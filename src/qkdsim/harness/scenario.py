"""Scenario execution: curve sets, the protocol comparison table, sweeps
and single sessions, emitted as diff-able CSV (and SVG for curves).

Every output is a pure function of (scenario name, parameters, seed):
identical runs produce byte-identical files.  Report floats use repr,
which round-trips exactly.
"""

import csv
import math
import random
from dataclasses import dataclass, field, replace
from pathlib import Path

from ..adversary import AttackKind, AttackSpec, BasisPolicy, eve_accuracy
from ..channel import ChannelSpec, LinkBudget, leg_transmittance, legs_for, path_transmittance
from ..infotheory import (
    DEFAULT_D_PD_CM,
    MutualInfoCurve,
    _linspace,
    build_curve,
    check_d_pd_cm,
    eve_info_mitm,
    mutual_info_ab,
    mutual_info_ae,
)
from ..kinds import ProtocolKind
from ..postproc import DEFAULT_SAFETY_BITS, NO_PRIVACY_REASON, privacy_amplify
from ..protocol import (
    BB84_ABORT_THRESHOLD,
    DEFAULT_N_ROUNDS,
    SessionConfig,
    Transcript,
    run_session,
    write_transcript_csv,
)

SCENARIO_NAMES = ("fig2a", "fig2b", "fig2c", "table1", "sweep", "session")

_TABLE_ORDER = (ProtocolKind.BB84, ProtocolKind.PING_PONG,
                ProtocolKind.LM05, ProtocolKind.MCAS_BB84)

_TABLE_ATTACKS = {
    ProtocolKind.BB84: AttackSpec(AttackKind.INTERCEPT_RESEND, 1.0, BasisPolicy.RANDOM),
    ProtocolKind.PING_PONG: AttackSpec(AttackKind.MITM_PING_PONG, 1.0),
    ProtocolKind.LM05: AttackSpec(AttackKind.MITM_LM05, 1.0),
    ProtocolKind.MCAS_BB84: AttackSpec(AttackKind.MITM_MCAS_X, 1.0),
}


@dataclass(frozen=True)
class Scenario:
    """A fully determined reproduction target.

    ``n_points`` sizes the curve grids and ``n_rounds`` the table1
    sessions.  ``d_pd_cm`` is the control threshold of the curves and of
    table1 (None reads ``DEFAULT_D_PD_CM``).  A ``session`` scenario runs
    ``session`` as given, and its privacy amplification is seeded from
    ``session.seed`` as well; a ``sweep`` runs it once per presence in
    ``p_values`` (see :meth:`sweep_configs`).  Both read the threshold
    from ``session.d_pd_cm`` and reject a ``d_pd_cm`` of their own.  A
    ValueError names the offending field first.
    """

    name: str
    seed: int
    out_dir: str = "out"
    n_points: int = 201
    d_pd_cm: float | None = None
    link: LinkBudget = LinkBudget()
    n_rounds: int = DEFAULT_N_ROUNDS
    session: SessionConfig | None = None
    p_values: tuple[float, ...] = ()

    def __post_init__(self):
        if self.name not in SCENARIO_NAMES:
            raise ValueError(f"name {self.name!r} is not one of {', '.join(SCENARIO_NAMES)}")
        if not 0 <= self.seed < 2 ** 64:
            raise ValueError(f"seed must be a 64-bit integer, got {self.seed!r}")
        if self.n_points < 2:
            raise ValueError(f"n_points must be >= 2, got {self.n_points!r}")
        if self.d_pd_cm is not None:
            if self.name in ("session", "sweep"):
                raise ValueError(f"d_pd_cm: a {self.name} scenario reads session.d_pd_cm, "
                                 f"got {self.d_pd_cm!r}")
            check_d_pd_cm(self.d_pd_cm)
        if self.n_rounds < 1:
            raise ValueError(f"n_rounds must be positive, got {self.n_rounds!r}")
        if self.name in ("session", "sweep") and self.session is None:
            raise ValueError(f"session: a {self.name} scenario needs a SessionConfig")
        if self.name == "sweep":
            if not self.p_values:
                raise ValueError("p_values: a sweep needs at least one presence")
            self.sweep_configs()  # every grid point must make a valid session

    @property
    def cm_threshold(self) -> float:
        """The control threshold of a curve or table1 scenario."""
        return DEFAULT_D_PD_CM if self.d_pd_cm is None else self.d_pd_cm

    def sweep_configs(self) -> list[SessionConfig]:
        """The session of each sweep point: the template at presence p, seeded per point."""
        return [replace(self.session, seed=child_seed(self.seed, i),
                        attack=replace(self.session.attack, presence=p))
                for i, p in enumerate(self.p_values)]


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
    if n < 1:
        raise ValueError(f"p-grid needs at least one point, got {n}")
    for bound in (lo, hi):
        AttackSpec(presence=bound)  # the presence range check
    return (lo,) if n == 1 else _linspace(lo, hi, n)


def child_seed(seed: int, salt: int) -> int:
    """Derive an independent 64-bit stream seed (splitmix-style mix)."""
    x = (seed + (salt + 1) * 0x9E3779B97F4A7C15) % 2 ** 64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) % 2 ** 64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) % 2 ** 64
    return x ^ (x >> 31)


def _fmt(value) -> str:
    if value is None:
        return "nan"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def bits_to_hex(bits: str) -> str:
    """Bit string as `<bitlen>:<hex>`; empty strings encode as `0:`."""
    if not bits:
        return "0:"
    width = (len(bits) + 3) // 4
    return f"{len(bits)}:{int(bits, 2):0{width}x}"


def _write_rows(path: Path, header, rows) -> None:
    with open(path, "w", encoding="ascii", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(cell) for cell in row])


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
    rows = []
    for i, protocol in enumerate(_TABLE_ORDER):
        # Disturbance columns come from a live session under the
        # protocol's worst-case attack on a lossless, noiseless line;
        # distance and transmittance columns are analytic for the
        # configured link.
        cfg = SessionConfig(
            protocol=protocol,
            n_rounds=sc.n_rounds,
            seed=child_seed(sc.seed, i),
            cm_fraction=0.0 if protocol is ProtocolKind.BB84 else 0.2,
            channel=ChannelSpec(),
            attack=_TABLE_ATTACKS[protocol],
            d_pd_cm=sc.cm_threshold,
        )
        transcript = run_session(cfg)
        est = transcript.disturbance
        # Empirical rates can spill past the model domain [0, 0.5] by
        # sampling noise; clamp before evaluating the analytic columns.
        i_ae = _session_eve_info(transcript)
        if protocol is ProtocolKind.BB84:
            modes = "MM"
            max_disturbance = BB84_ABORT_THRESHOLD
            secure_for = f"d_mm < {BB84_ABORT_THRESHOLD}"
            # None when a session is too short to disclose any bit.
            i_ab = None if est.d_mm is None else mutual_info_ab(min(est.d_mm, 0.5))
        else:
            modes = "MM+CM"
            i_ab = 1.0
            if protocol is ProtocolKind.MCAS_BB84:
                max_disturbance = sc.cm_threshold
                secure_for = f"d_cm < {sc.cm_threshold}"
            else:
                max_disturbance = None
                secure_for = "undefined"
        rows.append([
            protocol.value,
            modes,
            est.d_mm,
            est.d_cm,
            max_disturbance if max_disturbance is not None else "undefined",
            secure_for,
            i_ab,
            i_ae,
            legs_for(protocol) * sc.link.distance_km,
            path_transmittance(t_leg, protocol),
            transcript.aborted,
        ])
    path = out / "table1.csv"
    _write_rows(path, ["protocol", "modes", "d_mm", "d_cm", "max_disturbance",
                       "secure_for", "i_ab", "i_ae", "photon_distance_km",
                       "transmittance", "aborted"], rows)
    return ScenarioResult([path])


# ---------------------------------------------------------------- sweep

def _run_sweep_scenario(sc: Scenario, out: Path) -> ScenarioResult:
    rows = []
    for cfg in sc.sweep_configs():
        transcript = run_session(cfg)
        est = transcript.disturbance
        acc = eve_accuracy(transcript)
        coverage = None if math.isnan(acc.coverage) else acc.coverage
        rows.append([cfg.attack.presence, est.d_mm, est.d_cm, coverage, acc.accuracy,
                     transcript.aborted])
    path = out / "sweep.csv"
    _write_rows(path, ["p", "d_mm", "d_cm", "eve_coverage", "eve_accuracy", "abort"],
                rows)
    return ScenarioResult([path])


# ---------------------------------------------------------------- session

def _session_eve_info(transcript: Transcript) -> float | None:
    """Leaked-fraction input for the output-length policy.

    Two-way and message/control protocols use the coverage model on the
    control estimate; plain BB84 uses the message-mode information curve.
    """
    est = transcript.disturbance
    if transcript.config.protocol is ProtocolKind.BB84:
        if est.d_mm is None:
            return None
        return mutual_info_ae(min(est.d_mm, 0.5))
    if est.d_cm is None:
        return None
    return eve_info_mitm(min(est.d_cm, 0.5))


def _run_session_scenario(sc: Scenario, out: Path) -> ScenarioResult:
    transcript = run_session(sc.session)
    est = transcript.disturbance
    acc = eve_accuracy(transcript)

    transcript_path = out / "transcript.csv"
    with open(transcript_path, "w", encoding="ascii", newline="") as fh:
        write_transcript_csv(transcript, fh)

    summary = [
        ("protocol", transcript.config.protocol.value),
        ("n_rounds", transcript.config.n_rounds),
        ("seed", transcript.config.seed),
        ("attack", transcript.config.attack.kind.value),
        ("presence", transcript.config.attack.presence),
        ("key_length", len(transcript.alice_key)),
        ("d_mm", est.d_mm),
        ("d_cm", est.d_cm),
        ("n_mm", est.n_mm),
        ("n_cm", est.n_cm),
        ("d_cm_half_width_95", est.half_width_95),
        ("eve_coverage", None if math.isnan(acc.coverage) else acc.coverage),
        ("eve_accuracy", acc.accuracy),
        ("aborted", transcript.aborted),
        ("abort_reason", transcript.abort_reason or ""),
        ("alice_key_hex", bits_to_hex(transcript.alice_key)),
        ("bob_key_hex", bits_to_hex(transcript.bob_key)),
    ]
    if transcript.eve_key and "?" not in transcript.eve_key:
        summary.append(("eve_key_hex", bits_to_hex(transcript.eve_key)))

    if not transcript.aborted and transcript.alice_key:
        eve_info = _session_eve_info(transcript)
        if eve_info is not None:
            pa_rng = random.Random(child_seed(transcript.config.seed, 0x70A))
            secret, spec = privacy_amplify(transcript.alice_key, eve_info,
                                           DEFAULT_SAFETY_BITS, pa_rng)
            summary.append(("pa_eve_info", eve_info))
            summary.append(("pa_output_length", spec.output_len if spec else 0))
            summary.append(("secret_key_hex", bits_to_hex(secret)))
            if not secret:
                summary.append(("pa_abort_reason", NO_PRIVACY_REASON))

    summary_path = out / "summary.csv"
    _write_rows(summary_path, ["key", "value"], summary)
    return ScenarioResult([transcript_path, summary_path],
                          session_aborted=transcript.aborted)


def run_scenario(sc: Scenario) -> ScenarioResult:
    """Run a scenario, writing its report files under sc.out_dir."""
    out = Path(sc.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    if sc.name in ("fig2a", "fig2b", "fig2c"):
        return _run_curve_scenario(sc, out)
    if sc.name == "table1":
        return _run_table_scenario(sc, out)
    if sc.name == "sweep":
        return _run_sweep_scenario(sc, out)
    return _run_session_scenario(sc, out)
