"""Scenario execution: curve sets, the protocol comparison table, sweeps
and single sessions, emitted as diff-able CSV (and SVG for curves).

Every output is a pure function of (scenario name, parameters, seed):
identical runs produce byte-identical files.  Report floats use repr,
which round-trips exactly.
"""

import itertools
from dataclasses import dataclass, field, replace
from functools import cached_property
from pathlib import Path

import numpy as np

from ..adversary import eve_accuracy
from ..channel import LinkBudget, leg_transmittance
from ..checks import check_range, check_seed, check_type
from ..infotheory import (
    CURVE_LABELS,
    DEFAULT_D_PD_CM,
    DEFAULT_GRID_POINTS,
    MutualInfoCurve,
    _linspace,
    build_curve,
    mutual_info_ab,
)
from ..postproc import DEFAULT_SAFETY_BITS, NO_PRIVACY_REASON, check_bits, privacy_amplify
from ..protocol import (
    DEFAULT_N_ROUNDS,
    MAX_N_ROUNDS,
    PROTOCOLS,
    SessionConfig,
    abort_threshold,
    leaked_fraction,
    monitored_rate,
    run_session,
    write_transcript_csv,
)
from ..stream import child_seed

# The stream purpose of a session's privacy amplification: its hash spec is
# drawn from child_seed(session seed, PA_PURPOSE), clear of the engine's 0-63.
PA_PURPOSE = 0x70A

# Most points of a curve grid or a presence grid.  Every point is a
# Python float in memory and a row of the report.
MAX_GRID_POINTS = 2 ** 20


@dataclass(frozen=True)
class Scenario:
    """A fully determined reproduction target.

    ``n_points`` sizes the curve grids (at most ``MAX_GRID_POINTS``) and
    ``n_rounds`` the table1 sessions (at most ``MAX_N_ROUNDS``).
    ``d_pd_cm`` is the control threshold of the curves and of table1
    (None reads ``DEFAULT_D_PD_CM``).  A ``session`` scenario runs
    ``session`` as given, and its privacy amplification is seeded from
    ``session.seed`` as well; a ``sweep`` runs it once per presence in
    ``p_values`` (at most ``MAX_GRID_POINTS``; see :attr:`sweep_configs`).
    Both read the threshold from ``session.d_pd_cm`` and reject a
    ``d_pd_cm`` of their own.  A ValueError names the offending field first.
    """

    name: str
    seed: int
    out_dir: str = "out"
    n_points: int = DEFAULT_GRID_POINTS
    d_pd_cm: float | None = None
    link: LinkBudget = LinkBudget()
    n_rounds: int = DEFAULT_N_ROUNDS
    session: SessionConfig | None = None
    p_values: tuple[float, ...] = ()

    def __post_init__(self):
        if self.name not in SCENARIO_NAMES:
            raise ValueError(f"name {self.name!r} is not one of {', '.join(SCENARIO_NAMES)}")
        check_seed(self.seed)
        check_type("out_dir", self.out_dir, str)
        if not self.out_dir or "\0" in self.out_dir:
            raise ValueError(f"out_dir must name a directory, got {self.out_dir!r}")
        check_range("n_points", self.n_points, 2, MAX_GRID_POINTS, integer=True)
        if self.d_pd_cm is not None:
            if self.name in ("session", "sweep"):
                raise ValueError(f"d_pd_cm: a {self.name} scenario reads session.d_pd_cm, "
                                 f"got {self.d_pd_cm!r}")
            check_range("d_pd_cm", self.d_pd_cm, 0, 0.5, "()")
        check_range("n_rounds", self.n_rounds, 1, MAX_N_ROUNDS, integer=True)
        check_type("link", self.link, LinkBudget)
        if self.session is not None:
            check_type("session", self.session, SessionConfig)
        elif self.name in ("session", "sweep"):
            raise ValueError(f"session: a {self.name} scenario needs a SessionConfig")
        if self.name == "sweep":
            if not self.p_values:
                raise ValueError("p_values: a sweep needs at least one presence")
            if len(self.p_values) > MAX_GRID_POINTS:
                raise ValueError(f"p_values: a sweep takes at most {MAX_GRID_POINTS} "
                                 f"presences, got {len(self.p_values)}")
            self.sweep_configs  # builds every grid point's session, which validates it

    @property
    def cm_threshold(self) -> float:
        """The control threshold of a curve or table1 scenario."""
        return DEFAULT_D_PD_CM if self.d_pd_cm is None else self.d_pd_cm

    @cached_property
    def sweep_configs(self) -> tuple[SessionConfig, ...]:
        """Each sweep point's session, built once at construction: the template
        at presence p, seeded per point."""
        return tuple(replace(self.session, seed=child_seed(self.seed, i),
                             attack=replace(self.session.attack, presence=p))
                     for i, p in enumerate(self.p_values))


@dataclass
class ScenarioResult:
    """Paths written plus whether a session-scenario transcript aborted."""

    paths: list[Path] = field(default_factory=list)
    session_aborted: bool = False


def parse_p_grid(text: str) -> tuple[float, ...]:
    """Parse `a:b:n` into n evenly spaced presence values from a to b."""
    parts = text.split(":")
    if len(parts) != 3:
        raise ValueError(f"p-grid must look like a:b:n, got {text!r}")
    lo, hi = float(parts[0]), float(parts[1])
    n = int(parts[2])
    check_range("p-grid points", n, 1, MAX_GRID_POINTS, integer=True)
    check_range("presence", lo, 0, 1)
    check_range("presence", hi, 0, 1)
    return (lo,) if n == 1 else _linspace(lo, hi, n)


def _fmt(value) -> str:
    if value is None:
        return "nan"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(float(value))  # a float subclass (numpy's) would repr as its type
    return str(value)


def bits_to_hex(bits: np.ndarray) -> str:
    """A 0/1 bit array as `<bitlen>:<hex>`, first bit most significant.

    The hex digits are the bits read as one binary number, zero-padded to
    ceil(bitlen / 4) digits; an empty array encodes as `0:`.  This is the
    only place key material becomes text.  Raises ValueError when a value
    is not 0 or 1.
    """
    bits = check_bits(bits, "bits")
    n = len(bits)
    # The first n % 8 bits fill a byte of their own, right-aligned, so the
    # rest packs from a view of the key, never a copy; the hex of that
    # leading byte may start with one surplus 0.
    lead = n % 8
    packed = bytes(np.packbits(bits[:lead]) >> (8 - lead)) + np.packbits(bits[lead:]).tobytes()
    digits = packed.hex()
    return f"{n}:{digits[len(digits) - (n + 3) // 4:]}"


def _write_rows(path: Path, header, rows) -> None:
    """Write a CSV report of one LF-ended line per row, cells joined by ``,``.

    For rows of two or more cells this is csv.writer's output when no cell
    needs quoting, and no report cell does: each is a number, a bool, an
    enum spelling, an abort reason or hex.  A cell holding ``,``, ``"``,
    CR or LF raises ValueError and removes the file.  Rows are written one
    at a time, so a long curve is never held as one string.
    """
    with open(path, "w", encoding="ascii", newline="") as fh:
        try:
            for row in itertools.chain((header,), rows):
                cells = [_fmt(cell) for cell in row]
                line = ",".join(cells)
                if line.count(",") >= len(cells) or '"' in line or "\r" in line or "\n" in line:
                    bad = next(cell for cell in cells if any(c in cell for c in ',"\r\n'))
                    raise ValueError(f"{path.name}: report cell needs CSV quoting: {bad!r}")
                fh.write(line + "\n")
        except ValueError:
            fh.close()
            path.unlink()
            raise


# ---------------------------------------------------------------- curves

_SVG_W, _SVG_H = 640, 440
_SVG_LEFT, _SVG_RIGHT, _SVG_TOP, _SVG_BOTTOM = 70, 24, 24, 48


def curve_svg(curve: MutualInfoCurve) -> str:
    """A self-contained SVG line plot of the two curves."""
    x_max = curve.d_grid[-1] if curve.d_grid[-1] > 0 else 1.0
    plot_w = _SVG_W - _SVG_LEFT - _SVG_RIGHT
    plot_h = _SVG_H - _SVG_TOP - _SVG_BOTTOM

    def px(d):
        return _SVG_LEFT + plot_w * d / x_max

    def py(v):
        return _SVG_TOP + plot_h * (1.0 - v)

    def polyline(values, color):
        pts = " ".join(f"{px(d):.2f},{py(v):.2f}" for d, v in zip(curve.d_grid, values))
        return (f'<polyline fill="none" stroke="{color}" stroke-width="1.5" '
                f'points="{pts}"/>')

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_SVG_W}" height="{_SVG_H}" '
        f'viewBox="0 0 {_SVG_W} {_SVG_H}">',
        f'<rect width="{_SVG_W}" height="{_SVG_H}" fill="white"/>',
        f'<line x1="{_SVG_LEFT}" y1="{py(0):.2f}" x2="{_SVG_W - _SVG_RIGHT}" '
        f'y2="{py(0):.2f}" stroke="black"/>',
        f'<line x1="{_SVG_LEFT}" y1="{py(0):.2f}" x2="{_SVG_LEFT}" '
        f'y2="{py(1):.2f}" stroke="black"/>',
    ]
    for i in range(5):
        xv = x_max * i / 4
        x = px(xv)
        parts.append(f'<line x1="{x:.2f}" y1="{py(0):.2f}" x2="{x:.2f}" '
                     f'y2="{py(0) + 5:.2f}" stroke="black"/>')
        parts.append(f'<text x="{x:.2f}" y="{py(0) + 20:.2f}" font-size="12" '
                     f'text-anchor="middle">{xv:g}</text>')
        yv = i / 4
        y = py(yv)
        parts.append(f'<line x1="{_SVG_LEFT - 5}" y1="{y:.2f}" x2="{_SVG_LEFT}" '
                     f'y2="{y:.2f}" stroke="black"/>')
        parts.append(f'<text x="{_SVG_LEFT - 9}" y="{y + 4:.2f}" font-size="12" '
                     f'text-anchor="end">{yv:g}</text>')
    parts.append(polyline(curve.i_ab, "#1f77b4"))
    parts.append(polyline(curve.i_ae, "#d62728"))
    legend_x = _SVG_W - _SVG_RIGHT - 130
    parts.append(f'<text x="{legend_x}" y="{_SVG_TOP + 14}" font-size="13" '
                 f'fill="#1f77b4">I_AB</text>')
    parts.append(f'<text x="{legend_x + 50}" y="{_SVG_TOP + 14}" font-size="13" '
                 f'fill="#d62728">I_AE</text>')
    parts.append(f'<text x="{(_SVG_LEFT + _SVG_W - _SVG_RIGHT) / 2:.2f}" '
                 f'y="{_SVG_H - 10}" font-size="13" text-anchor="middle">'
                 f'disturbance ({curve.label})</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _run_curve_scenario(sc: Scenario, out: Path) -> ScenarioResult:
    curve = build_curve(sc.name, sc.n_points, sc.cm_threshold)
    csv_path = out / f"{sc.name}.csv"
    _write_rows(csv_path, ["d", "i_ab", "i_ae"],
                zip(curve.d_grid, curve.i_ab, curve.i_ae))
    svg_path = out / f"{sc.name}.svg"
    with open(svg_path, "w", encoding="ascii", newline="") as fh:
        fh.write(curve_svg(curve))
    return ScenarioResult([csv_path, svg_path])


# ---------------------------------------------------------------- table

def _run_table_scenario(sc: Scenario, out: Path) -> ScenarioResult:
    t_leg = leg_transmittance(sc.link)
    table = []
    for i, (protocol, row) in enumerate(PROTOCOLS.items()):
        # Disturbance columns come from a live session under the protocol's
        # worst-case attack on a lossless, noiseless line; distance and
        # transmittance columns are analytic for the configured link.
        cfg = SessionConfig(protocol=protocol, n_rounds=sc.n_rounds, seed=child_seed(sc.seed, i),
                            attack=row.table1_attack, d_pd_cm=sc.cm_threshold)
        transcript = run_session(cfg)
        est = transcript.disturbance
        rate, threshold = monitored_rate(cfg), abort_threshold(cfg)
        if rate == "d_mm":
            # Clamped into the model domain like the leak; None when a
            # session is too short to disclose any bit.
            i_ab = None if est.d_mm is None else mutual_info_ab(min(est.d_mm, 0.5))
        else:
            i_ab = 1.0
        table.append([
            protocol.value,
            "MM+CM" if rate == "d_cm" else "MM",
            est.d_mm,
            est.d_cm,
            "undefined" if threshold is None else threshold,
            "undefined" if threshold is None else f"{rate} < {threshold}",
            i_ab,
            leaked_fraction(est, cfg),
            row.legs * sc.link.distance_km,
            t_leg ** row.legs,
            transcript.aborted,
        ])
        del transcript  # free its round columns before the next session's
    path = out / "table1.csv"
    _write_rows(path, ["protocol", "modes", "d_mm", "d_cm", "max_disturbance",
                       "secure_for", "i_ab", "i_ae", "photon_distance_km",
                       "transmittance", "aborted"], table)
    return ScenarioResult([path])


# ---------------------------------------------------------------- sweep

def _run_sweep_scenario(sc: Scenario, out: Path) -> ScenarioResult:
    rows = []
    for cfg in sc.sweep_configs:
        transcript = run_session(cfg)
        est = transcript.disturbance
        acc = eve_accuracy(transcript)
        rows.append([cfg.attack.presence, est.d_mm, est.d_cm, acc.coverage, acc.accuracy,
                     transcript.aborted])
        del transcript  # free its round columns before the next session's
    path = out / "sweep.csv"
    _write_rows(path, ["p", "d_mm", "d_cm", "eve_coverage", "eve_accuracy", "abort"],
                rows)
    return ScenarioResult([path])


# ---------------------------------------------------------------- session

def _run_session_scenario(sc: Scenario, out: Path) -> ScenarioResult:
    cfg = sc.session
    transcript = run_session(cfg)
    est = transcript.disturbance
    acc = eve_accuracy(transcript)

    transcript_path = out / "transcript.csv"
    with open(transcript_path, "wb") as fh:
        write_transcript_csv(transcript, fh)

    key, aborted = transcript.alice_key, transcript.aborted
    summary = [
        ("protocol", cfg.protocol.value),
        ("n_rounds", cfg.n_rounds),
        ("seed", cfg.seed),
        ("attack", cfg.attack.kind.value),
        ("presence", cfg.attack.presence),
        ("key_length", len(key)),
        ("d_mm", est.d_mm),
        ("d_cm", est.d_cm),
        ("n_mm", est.n_mm),
        ("n_cm", est.n_cm),
        ("d_cm_half_width_95", est.half_width_95),
        ("eve_coverage", acc.coverage),
        ("eve_accuracy", acc.accuracy),
        ("aborted", aborted),
        ("abort_reason", transcript.abort_reason or ""),
        ("alice_key_hex", bits_to_hex(key)),
        ("bob_key_hex", bits_to_hex(transcript.bob_key)),
    ]
    if len(transcript.eve_key) and (transcript.eve_key >= 0).all():
        summary.append(("eve_key_hex", bits_to_hex(transcript.eve_key)))
    # Privacy amplification needs only Alice's key: free the round columns
    # before the hash allocates its FFT buffers.  The key was gathered while
    # they were alive, above them in the heap; a copy moves it below, so the
    # heap can shrink (at 2**24 rounds the peak falls by about 40 MB).
    del transcript
    key = key.copy()

    if not aborted and len(key):
        eve_info = leaked_fraction(est, cfg)
        if eve_info is not None:
            secret, spec = privacy_amplify(key, eve_info, DEFAULT_SAFETY_BITS,
                                           child_seed(cfg.seed, PA_PURPOSE))
            summary.append(("pa_eve_info", eve_info))
            summary.append(("pa_output_length", spec.output_len if spec else 0))
            summary.append(("secret_key_hex", bits_to_hex(secret)))
            if not len(secret):
                summary.append(("pa_abort_reason", NO_PRIVACY_REASON))

    summary_path = out / "summary.csv"
    _write_rows(summary_path, ["key", "value"], summary)
    return ScenarioResult([transcript_path, summary_path], session_aborted=aborted)


_RUNNERS = {
    **dict.fromkeys(CURVE_LABELS, _run_curve_scenario),
    "table1": _run_table_scenario,
    "sweep": _run_sweep_scenario,
    "session": _run_session_scenario,
}
SCENARIO_NAMES = tuple(_RUNNERS)


def run_scenario(sc: Scenario) -> ScenarioResult:
    """Run a scenario, writing its report files under sc.out_dir."""
    out = Path(sc.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    return _RUNNERS[sc.name](sc, out)
