"""Field checks shared by every constructor and formula.  A message starts
with its field's name, which ``config.parse_config`` maps to a line or flag."""


def check_range(name: str, value, lo, hi, ends: str = "[]", *, integer: bool = False) -> None:
    """Raise ValueError ``<name> out of [lo, hi]: <value!r>`` unless value lies in
    the interval whose brackets ``ends`` holds; NaN lies in none.  An ``integer``
    field takes exactly a Python int, a real one also any float, neither a bool."""
    number = type(value) is int or not integer and isinstance(value, float)
    if not (number and (lo < value if ends[0] == "(" else lo <= value)
            and (value < hi if ends[1] == ")" else value <= hi)):
        raise ValueError(f"{name} out of {ends[0]}{lo}, {hi}{ends[1]}: {value!r}")


def check_seed(seed) -> None:
    if not (type(seed) is int and 0 <= seed < 2 ** 64):
        raise ValueError(f"seed must be a 64-bit integer, got {seed!r}")


def check_type(name: str, value, cls: type) -> None:
    """A field holds exactly an instance of ``cls``, not of a subclass: an enum
    field a member, a bool field True or False, a nested spec that spec."""
    if type(value) is not cls:
        raise ValueError(f"{name} must be of type {cls.__name__}, got {value!r}")
