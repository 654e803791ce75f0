"""Workload generators and output checks for the qkdsim benchmark.

A workload turns a seed into a fixed cycle of distinct CLI operations
(argv lists plus the config files they name).  The timed loop repeats
the cycle until its time is up; the traced run executes a fixed number
of cycles, so its counts repeat exactly for a given seed.  The seed
drives the program seeds and the per-op physics parameters; the op
sizes are fixed, so the op-time distribution does not depend on it.

The checks hold for any correct engine.  They never compare bytes with
a stored digest: they use exact invariants (D_MM = 0 for copy attacks
on a noiseless line, Eve's accuracy 1, the PA output-length policy, the
transcript row count) and 4-sigma bounds on the statistical estimates.
"""

import csv
import math
import random
from collections.abc import Callable
from dataclasses import dataclass, field
from pathlib import Path

# One-sided mass of a normal distribution beyond 4 sigma.  The statistical
# checks reject an estimate only when the exact binomial tail beyond it is
# smaller than this, which is the 4-sigma rule without the normal
# approximation's excess false alarms on small, skewed samples.
TAIL_MASS_4SIGMA = 0.5 * math.erfc(4.0 / math.sqrt(2.0))

PA_SAFETY_BITS = 32
CM_FRACTION = 0.2
DISCLOSE_FRACTION = 0.1



@dataclass
class Op:
    """One CLI invocation and what its checks need."""

    argv: list[str]
    out_dir: Path
    rounds: int
    check: Callable[["Op", int | None], None]
    params: dict = field(default_factory=dict)


@dataclass(frozen=True)
class Workload:
    """A seeded op generator and how the benchmark runs it.

    ``tail_pct`` is the percentile reported as op_s_tail: a high one that
    still had at least ten ops beyond it in every 35-second run at the
    commit that defined the benchmark.  It is fixed per workload so that
    runs with a few more or fewer ops report the same percentile.
    """

    name: str
    why: str
    tail_pct: float
    trace_cycles: int
    build: Callable[[int, Path], list[Op]]
    params: dict


# ------------------------------------------------------------ statistics

def _log_pmf(n: int, k: int, q: float) -> float:
    return (math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)
            + k * math.log(q) + (n - k) * math.log1p(-q))


def _tail(n: int, q: float, ks) -> float:
    return sum(math.exp(_log_pmf(n, k, q)) for k in ks)


def within_4sigma(rate: float, q: float, n: float) -> bool:
    """Whether an observed rate over n Bernoulli(q) trials passes the 4-sigma rule.

    q of 0 or 1 makes the check exact.  A non-integer n (an expected
    count) is rounded, and the observed count is widened to the
    neighbouring integers so that the rounding never causes a rejection.
    """
    if q <= 0.0 or q >= 1.0:
        return rate == q
    n = max(1, round(n))
    count = rate * n
    lo, hi = math.floor(count + 1e-9), math.ceil(count - 1e-9)
    if lo < 0 or hi > n:
        return False
    if lo <= n * q <= hi:
        return True
    if hi < n * q:
        return _tail(n, q, range(0, hi + 1)) >= TAIL_MASS_4SIGMA
    return _tail(n, q, range(lo, n + 1)) >= TAIL_MASS_4SIGMA


# ------------------------------------------------------------ report parsing

def _num(text: str) -> float | None:
    value = float(text)
    return None if math.isnan(value) else value


def _read_summary(out_dir: Path) -> dict:
    with open(out_dir / "summary.csv", newline="", encoding="ascii") as fh:
        rows = list(csv.reader(fh))
    if rows[0] != ["key", "value"]:
        raise ValueError(f"summary header {rows[0]!r}")
    return dict(rows[1:])


def _hex_bits(text: str) -> int:
    return int(text.partition(":")[0])


def _count_lines(path: Path) -> int:
    with open(path, "rb") as fh:
        return fh.read().count(b"\n")


class CheckFailed(Exception):
    pass


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


# ------------------------------------------------------------ checks

def check_sweep(op: Op, rc: int) -> None:
    """Copy attack on a noiseless line: per presence point p, D_MM = 0,
    Eve's accuracy 1, and D_CM within 4 sigma of p/2 over the expected
    number of valid control rounds."""
    _require(rc == 0, f"exit code {rc}")
    with open(op.out_dir / "sweep.csv", newline="", encoding="ascii") as fh:
        rows = list(csv.reader(fh))
    _require(rows[0] == ["p", "d_mm", "d_cm", "eve_coverage", "eve_accuracy", "abort"],
             f"sweep header {rows[0]!r}")
    grid = op.params["p_grid"]
    _require(len(rows) - 1 == len(grid), f"{len(rows) - 1} rows for {len(grid)} points")
    n_cm = op.params["expected_n_cm"]
    for (p, d_mm, d_cm, coverage, accuracy, abort), p_want in zip(rows[1:], grid):
        p = float(p)
        _require(abs(p - p_want) < 1e-12, f"p {p} != {p_want}")
        _require(abort == "false", f"abort at p={p}")
        _require(_num(d_mm) == 0.0, f"d_mm {d_mm} at p={p}")
        if p == 0.0:
            _require(_num(coverage) == 0.0, f"coverage {coverage} at p=0")
        else:
            _require(_num(accuracy) == 1.0, f"eve_accuracy {accuracy} at p={p}")
        _require(within_4sigma(_num(d_cm), p / 2, n_cm),
                 f"d_cm {d_cm} outside 4 sigma of {p / 2} (n~{n_cm:.0f}) at p={p}")


def _check_session_common(op: Op, rc: int) -> dict:
    """Invariants every session op satisfies, whatever the attack."""
    summary = _read_summary(op.out_dir)
    aborted = summary["aborted"] == "true"
    _require(rc == (2 if aborted else 0), f"exit code {rc} with aborted={aborted}")
    n_rounds = op.params["n_rounds"]
    _require(int(summary["n_rounds"]) == n_rounds, f"n_rounds {summary['n_rounds']}")
    rows = _count_lines(op.out_dir / "transcript.csv") - 1
    _require(rows == n_rounds, f"transcript has {rows} rows for {n_rounds} rounds")
    m = int(summary["key_length"])
    _require(_hex_bits(summary["alice_key_hex"]) == m, "alice key length")
    if "pa_output_length" in summary:
        eve_info = float(summary["pa_eve_info"])
        want = max(0, math.floor(m * (1.0 - eve_info)) - PA_SAFETY_BITS)
        got = int(summary["pa_output_length"])
        _require(got == want, f"pa_output_length {got} != {want} (m={m}, eve_info={eve_info})")
        _require(_hex_bits(summary["secret_key_hex"]) == got, "secret key length")
    else:
        estimate = summary["d_mm" if op.params["protocol"] == "bb84" else "d_cm"]
        _require(aborted or m == 0 or _num(estimate) is None,
                 "privacy amplification missing from a completed session")
    return summary


def check_copy_session(op: Op, rc: int) -> None:
    """LM05 under the copy attack on a lossless, noiseless line."""
    s = _check_session_common(op, rc)
    _require(_num(s["d_mm"]) == 0.0, f"d_mm {s['d_mm']}")
    _require(s["alice_key_hex"] == s["bob_key_hex"], "alice and bob keys differ")
    if (_num(s["eve_coverage"]) or 0.0) > 0.0:
        _require(_num(s["eve_accuracy"]) == 1.0, f"eve_accuracy {s['eve_accuracy']}")
    p = op.params["presence"]
    _require(within_4sigma(_num(s["d_cm"]), p / 2, int(s["n_cm"])),
             f"d_cm {s['d_cm']} outside 4 sigma of {p / 2} (n={s['n_cm']})")


def check_mm_rate(op: Op, rc: int) -> None:
    """D_MM within 4 sigma of the expected flip rate over the disclosed sample."""
    s = _check_session_common(op, rc)
    q = op.params["expected_d_mm"]
    if int(s["n_mm"]):
        _require(within_4sigma(_num(s["d_mm"]), q, int(s["n_mm"])),
                 f"d_mm {s['d_mm']} outside 4 sigma of {q} (n={s['n_mm']})")


def check_mcas_session(op: Op, rc: int) -> None:
    """Z-basis intercept-resend against mcasBB84: message rounds untouched,
    control rounds fail at p/2."""
    s = _check_session_common(op, rc)
    if int(s["n_mm"]):
        _require(_num(s["d_mm"]) == 0.0, f"d_mm {s['d_mm']}")
    if (_num(s["eve_coverage"]) or 0.0) > 0.0:
        _require(_num(s["eve_accuracy"]) == 1.0, f"eve_accuracy {s['eve_accuracy']}")
    p = op.params["presence"]
    if int(s["n_cm"]):
        _require(within_4sigma(_num(s["d_cm"]), p / 2, int(s["n_cm"])),
                 f"d_cm {s['d_cm']} outside 4 sigma of {p / 2} (n={s['n_cm']})")


# ------------------------------------------------------------ generators

SWEEP_POINTS = 5
SWEEP_TRANSMITTANCE = 0.9
# pp runs about twice as many rounds per second as LM05, so it gets twice
# the rounds: both ops then take about as long, and the op-time
# distribution has one mode, which keeps its median and tail steady.
SWEEP_CYCLE = (("lm05", "mitm_lm05", 5000), ("pp", "mitm_pp", 10000))


def _p_grid(n: int) -> list[float]:
    step = 1.0 / (n - 1)
    return [i * step for i in range(n - 1)] + [1.0]


def _build_sweep(seed: int, tmp: Path) -> list[Op]:
    rng = random.Random(f"sweep_twoway/{seed}")
    t2 = SWEEP_TRANSMITTANCE ** 2
    ops = []
    for i, (protocol, attack, rounds) in enumerate(SWEEP_CYCLE):
        out = tmp / f"op{i}"
        program_seed = rng.getrandbits(63)
        # Valid control rounds: pp loses a control round on its two
        # forward legs; LM05 on both legs and keeps half (basis match).
        n_cm = rounds * CM_FRACTION * t2 * (1.0 if protocol == "pp" else 0.5)
        argv = ["sweep", "--protocol", protocol, "--attack", attack,
                "--p-grid", f"0:1:{SWEEP_POINTS}", "--rounds", str(rounds),
                "--cm-fraction", repr(CM_FRACTION),
                "--transmittance", repr(SWEEP_TRANSMITTANCE), "--flip-prob", "0",
                "--seed", str(program_seed), "--out", str(out)]
        params = {"protocol": protocol, "attack": attack, "seed": program_seed,
                  "p_grid": _p_grid(SWEEP_POINTS), "n_rounds": rounds,
                  "expected_n_cm": n_cm}
        ops.append(Op(argv, out, SWEEP_POINTS * rounds, check_sweep, params))
    return ops


def _session_op(tmp: Path, i: int, check, params: dict, sections: dict) -> Op:
    out = tmp / f"op{i}"
    sections = {"scenario": {"name": "session", "seed": params["seed"],
                             "out_dir": str(out)}, **sections}
    lines = []
    for section, keys in sections.items():
        lines.append(f"[{section}]")
        lines.extend(f"{key} = {value}" for key, value in keys.items())
        lines.append("")
    path = tmp / f"op{i}.cfg"
    path.write_text("\n".join(lines), encoding="ascii")
    return Op(["run", str(path)], out, params["n_rounds"], check, params)


# Sifted-key target in bits for session_pa; LM05 keeps the message rounds
# (1 - CM_FRACTION) minus the disclosed sample.  One size for every op:
# with several sizes the op-time median would rest on the few ops of one
# size and move with their noise.  Presence sets the hash output length.
PA_SIFTED_BITS = 20000
PA_ROUNDS = round(PA_SIFTED_BITS / ((1.0 - CM_FRACTION) * (1.0 - DISCLOSE_FRACTION)))
PA_PRESENCES = (0.05, 0.1, 0.15, 0.2, 0.25, 0.3)


def _build_session_pa(seed: int, tmp: Path) -> list[Op]:
    rng = random.Random(f"session_pa/{seed}")
    ops = []
    for i, presence in enumerate(PA_PRESENCES):
        params = {"protocol": "lm05", "attack": "mitm_lm05", "seed": rng.getrandbits(63),
                  "n_rounds": PA_ROUNDS, "presence": presence}
        ops.append(_session_op(tmp, i, check_copy_session, params, {
            "session": {"protocol": "lm05", "n_rounds": PA_ROUNDS,
                        "cm_fraction": CM_FRACTION},
            "channel": {"transmittance_per_leg": 1.0, "flip_prob": 0.0},
            "attack": {"kind": "mitm_lm05", "presence": presence},
        }))
    return ops


SHORT_ROUNDS = 4000
SHORT_TRANSMITTANCE = 0.9
# Two fast one-way ops per probe-attack op, so the op-time median sits
# inside the fast mode; the probe ops set the tail.
SHORT_CYCLE = ("bb84_noise", "mcas_mitm", "bb84_ancilla",
               "bb84_noise", "mcas_mitm", "lm05_ancilla") * 2


def _build_short(seed: int, tmp: Path) -> list[Op]:
    rng = random.Random(f"short_sessions/{seed}")
    channel = {"transmittance_per_leg": SHORT_TRANSMITTANCE}
    ops = []
    for i, kind in enumerate(SHORT_CYCLE):
        params = {"seed": rng.getrandbits(63), "n_rounds": SHORT_ROUNDS, "kind": kind}
        session = {"n_rounds": SHORT_ROUNDS, "cm_fraction": CM_FRACTION}
        if kind == "bb84_noise":
            flip = round(rng.uniform(0.02, 0.06), 4)
            params.update(protocol="bb84", attack="none", flip_prob=flip, expected_d_mm=flip)
            ops.append(_session_op(tmp, i, check_mm_rate, params, {
                "session": {"protocol": "bb84", **session},
                "channel": {**channel, "flip_prob": flip},
            }))
        elif kind == "mcas_mitm":
            # p/2 stays at or below half the default abort threshold 0.05.
            presence = round(rng.uniform(0.02, 0.05), 4)
            params.update(protocol="mcasbb84", attack="mitm_mcas_x", presence=presence)
            ops.append(_session_op(tmp, i, check_mcas_session, params, {
                "session": {"protocol": "mcasbb84", **session},
                "channel": {**channel, "flip_prob": 0.0},
                "attack": {"kind": "mitm_mcas_x", "presence": presence},
            }))
        else:
            protocol = kind.partition("_")[0]
            f0 = round(rng.uniform(0.93, 0.99), 4)
            f_plus = round(rng.uniform(0.93, 0.99), 4)
            params.update(protocol=protocol, attack="ancilla_ube", f0=f0, f_plus=f_plus,
                          expected_d_mm=1.0 - (f0 + f_plus) / 2.0)
            ops.append(_session_op(tmp, i, check_mm_rate, params, {
                "session": {"protocol": protocol, **session},
                "channel": {**channel, "flip_prob": 0.0},
                "attack": {"kind": "ancilla_ube", "presence": 1.0, "f0": f0,
                           "f_plus": f_plus},
            }))
    return ops


WORKLOADS = {w.name: w for w in (
    Workload(
        "sweep_twoway",
        "Copy-attack presence sweeps of pp and LM05 on a lossy, noiseless line, "
        "the paper's headline experiment: the round engine dominates, no hashing.",
        tail_pct=80.0,
        trace_cycles=6,
        build=_build_sweep,
        params={"cycle": [f"{p}/{a}" for p, a, _ in SWEEP_CYCLE],
                "rounds": [r for _, _, r in SWEEP_CYCLE], "p_grid": f"0:1:{SWEEP_POINTS}",
                "transmittance": SWEEP_TRANSMITTANCE, "flip_prob": 0.0,
                "cm_fraction": CM_FRACTION},
    ),
    Workload(
        "session_pa",
        "LM05 sessions under the copy attack at presence 0.05-0.3 with 2e4-bit sifted keys: "
        "one large Toeplitz hash is the largest stage, then the engine and the transcript.",
        tail_pct=60.0,
        trace_cycles=1,
        build=_build_session_pa,
        params={"sifted_bits": PA_SIFTED_BITS, "n_rounds": PA_ROUNDS,
                "presences": list(PA_PRESENCES), "transmittance": 1.0, "flip_prob": 0.0,
                "cm_fraction": CM_FRACTION},
    ),
    Workload(
        "short_sessions",
        "Many few-thousand-round sessions (BB84 noise, mcasBB84 under Z intercept, probe "
        "attack on BB84/LM05): per-op fixed cost and the one-way and probe paths.",
        tail_pct=95.0,
        trace_cycles=6,
        build=_build_short,
        params={"cycle": list(SHORT_CYCLE), "rounds": SHORT_ROUNDS,
                "transmittance": SHORT_TRANSMITTANCE, "flip_prob": "U(0.02, 0.06)",
                "mcas_presence": "U(0.02, 0.05)", "fidelities": "U(0.93, 0.99)",
                "cm_fraction": CM_FRACTION},
    ),
)}
