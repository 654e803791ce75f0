"""Run a fixed grid of scenarios through the CLI and digest every report.

    python scripts/report_digest.py <checkout> <out-dir>

Imports qkdsim from <checkout>/src, writes the configs and reports under
<out-dir>, and writes <out-dir>/manifest.txt: each run's exit code and
stderr, then the sha256 of each report file.  The last line printed is
the sha256 of the manifest, so two checkouts wrote the same bytes exactly
when they print the same digest.  The grid covers the curves, table1 at
n_rounds 1-10 and longer, and sweeps and sessions of all 13 protocol x
attack pairs at seeds 1-3, with the threshold extension on and off, flip
0 and 0.02, and round counts small enough to leave samples empty.

``main`` leaves ``sys.path`` as it found it, and raises ValueError if
the process has already imported qkdsim from another tree, rather than
digest that tree under the checkout's name.
"""

import contextlib
import hashlib
import io
import sys
from pathlib import Path

PAIRS = {
    "bb84": ["none", "intercept_resend", "ancilla_ube"],
    "mcasbb84": ["none", "intercept_resend", "mitm_mcas_x", "ancilla_ube"],
    "lm05": ["none", "intercept_resend", "mitm_lm05", "ancilla_ube"],
    "pp": ["none", "mitm_pp"],
}


def main(checkout: Path, out: Path) -> str:
    src = checkout / "src"
    saved = list(sys.path)
    sys.path.insert(0, str(src))
    try:
        import qkdsim
        from qkdsim.harness.cli import main as cli
    finally:
        sys.path[:] = saved
    loaded = Path(qkdsim.__file__).resolve()
    if not loaded.is_relative_to(src.resolve()):
        raise ValueError(f"qkdsim is already loaded from {loaded.parent}, not from {src}")

    reports, configs = out / "rep", out / "cfg"
    configs.mkdir(parents=True, exist_ok=True)
    lines = []

    def run(tag, argv):
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = cli(argv + ["--out", str(reports / tag)])
        lines.append(f"{tag} rc={code} err={err.getvalue().strip()!r}")

    def run_file(tag, text):
        path = configs / f"{tag}.cfg"
        path.write_text(text)
        run(tag, ["run", str(path)])

    for label in ("fig2a", "fig2b", "fig2c"):
        for points in (2, 11, 201):
            run(f"{label}-{points}", ["curves", label, "--points", str(points)])
        run(f"{label}-d01", ["curves", label, "--d-pd-cm", "0.1"])
    for seed in (1, 2, 3):
        for n in [*range(1, 11), 50, 400, 4000]:
            for d in ("", "d_pd_cm = 0.1\n"):
                run_file(f"table1-s{seed}-n{n}-{'d' if d else 'x'}",
                         f"[scenario]\nname = table1\nseed = {seed}\n{d}"
                         f"[session]\nn_rounds = {n}\n"
                         "[channel]\nalpha_db_per_km = 0.2\ndistance_km = 25\n")
    for protocol, attacks in PAIRS.items():
        for attack in attacks:
            probe = "f0 = 0.9\nf_plus = 0.8\n" if attack == "ancilla_ube" else ""
            for seed in (1, 2, 3):
                for enforce in ("true", "false"):
                    for flip in ("0", "0.02"):
                        common = (f"[session]\nprotocol = {protocol}\n"
                                  f"enforce_cm_threshold = {enforce}\n")
                        channel = f"[channel]\ntransmittance_per_leg = 0.9\nflip_prob = {flip}\n"
                        tag = f"{protocol}-{attack}-s{seed}-{enforce}-f{flip}"
                        for rounds in (3, 2000):
                            run_file(f"sweep-{tag}-n{rounds}",
                                     f"[scenario]\nname = sweep\nseed = {seed}\n{common}"
                                     f"cm_fraction = 0.3\n{channel}"
                                     f"[attack]\nkind = {attack}\n{probe}"
                                     f"[sweep]\np_grid = 0:1:5\nn_rounds = {rounds}\n")
                        for presence in ("0.05", "0.3", "1.0"):
                            for rounds in (1, 7, 40, 3000):
                                run_file(f"session-{tag}-p{presence}-n{rounds}",
                                         f"[scenario]\nname = session\nseed = {seed}\n{common}"
                                         f"n_rounds = {rounds}\n{channel}"
                                         f"[attack]\nkind = {attack}\npresence = {presence}\n"
                                         f"{probe}")
    for path in sorted(reports.rglob("*")):
        if path.is_file():
            lines.append(f"{path.relative_to(reports)} "
                         f"{hashlib.sha256(path.read_bytes()).hexdigest()}")
    text = "\n".join(lines) + "\n"
    (out / "manifest.txt").write_text(text)
    return hashlib.sha256(text.encode()).hexdigest()


if __name__ == "__main__":
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    print(main(Path(sys.argv[1]).resolve(), Path(sys.argv[2]).resolve()))
