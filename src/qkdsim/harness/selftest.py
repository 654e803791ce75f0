"""The acceptance suite: one executable check per shipped guarantee,
whose docstring states the criterion.

Each check returns a result instead of asserting, so the same registry
backs both the `qkdsim selftest` CLI command and the pytest acceptance
module.  Heavy Monte-Carlo sessions are cached and shared between
checks.  Statistical assertions use fixed seeds and 4-sigma binomial
bounds unless a check states a tighter deterministic bound.
"""

import csv
import filecmp
import functools
import math
import random
import tempfile
import time
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Callable

import numpy as np

from ..adversary import AttackKind, AttackSpec, BasisPolicy, eve_accuracy, xi_from_fidelities
from ..channel import ChannelSpec, LinkBudget, leg_transmittance
from ..infotheory import binary_entropy, build_curve, critical_disturbance, key_rate_rpa
from ..postproc import (
    HashSpec,
    _toeplitz_parity,
    bit_rows,
    choose_output_length,
    privacy_amplify,
    random_hash_spec,
    universal_hash,
)
from ..protocol import PROTOCOLS, ProtocolKind, SessionConfig, run_session
from .scenario import Scenario, run_scenario

_SEED = 987654321


@dataclass
class CheckResult:
    passed: bool
    detail: str


@dataclass(frozen=True)
class Check:
    number: int
    slug: str
    fn: Callable[[], CheckResult]


@functools.cache
def _session(cfg: SessionConfig) -> tuple:
    """A session's transcript plus its wall-clock runtime, run once per config."""
    start = time.perf_counter()
    transcript = run_session(cfg)
    return transcript, time.perf_counter() - start


def _mitm_config(protocol: ProtocolKind, presence: float) -> SessionConfig:
    """The noiseless copy-attack session of criteria 3-5 and 10."""
    return SessionConfig(
        protocol=protocol,
        n_rounds=20000,
        seed=_SEED + int(presence * 100),
        attack=replace(PROTOCOLS[protocol].table1_attack, presence=presence),
    )


# The four canonical states as (basis, bit), each prepared with weight 1/4;
# kept apart from the engine's columns so that the walker shares nothing with it.
_STATES = tuple((basis, bit) for basis in "ZX" for bit in (0, 1))


def _born(state: tuple, basis: str, bit: int) -> Fraction:
    """The chance that measuring ``state`` in ``basis`` reads ``bit``: 0 or 1
    in the state's own basis, 1/2 in the other."""
    if state[0] == basis:
        return Fraction(int(state[1] == bit))
    return Fraction(1, 2)


def error_rate(resend: Callable[[tuple], list]) -> Fraction:
    """The exact chance that a round reads other than its prepared bit.

    ``resend(state)`` is the mixture, a list of (weight, state) pairs,
    that replaces the prepared photon; it is read in the preparation's
    basis.  No simulation is involved.
    """
    return sum(Fraction(1, 4) * weight * _born(got, basis, 1 - bit)
               for basis, bit in _STATES for weight, got in resend((basis, bit)))


def intercept_resend(policy: BasisPolicy) -> Callable[[tuple], list]:
    """Eve measures in the basis ``policy`` picks and resends what she read."""
    bases = {BasisPolicy.FIXED_Z: "Z", BasisPolicy.FIXED_X: "X"}.get(policy, "ZX")
    return lambda state: [(_born(state, *read) / len(bases), read)
                          for read in _STATES if read[0] in bases]


def decoy(state: tuple) -> list:
    """A maximally mixed photon in place of ``state``: LM05's random decoy,
    or ping-pong's half of Eve's fresh pair."""
    return [(Fraction(1, 4), other) for other in _STATES]


def _four_sigma(p: float, n: int) -> float:
    return 4.0 * math.sqrt(p * (1.0 - p) / max(n, 1))


def _check_critical_disturbance() -> CheckResult:
    """The bisection threshold lands on 0.11 with h(D*) = 1/2, under 1 ms."""
    best = math.inf
    for _ in range(5):
        start = time.perf_counter()
        d_star = critical_disturbance(1e-6)
        best = min(best, time.perf_counter() - start)
    h_err = abs(binary_entropy(d_star) - 0.5)
    ok = abs(d_star - 0.11) <= 1e-3 and h_err <= 1e-6 and best < 1e-3
    return CheckResult(ok, f"D* = {d_star:.6f}, |h(D*)-1/2| = {h_err:.2e}, "
                           f"best runtime {best * 1e6:.0f} us")


def _check_mutual_info_identity() -> CheckResult:
    """I_AB + I_AE = 1 over the grid, and the curves cross at the threshold."""
    curve = build_curve("fig2a")
    worst = max(abs(ab + ae - 1.0) for ab, ae in zip(curve.i_ab, curve.i_ae))
    cross = None
    for i in range(len(curve.d_grid) - 1):
        gap_here = curve.i_ab[i] - curve.i_ae[i]
        gap_next = curve.i_ab[i + 1] - curve.i_ae[i + 1]
        if gap_here > 0.0 >= gap_next:
            cross = curve.d_grid[i]
            break
    step = curve.d_grid[1] - curve.d_grid[0]
    d_star = critical_disturbance(1e-6)
    ok = worst <= 1e-12 and cross is not None and abs(cross - d_star) <= step
    return CheckResult(ok, f"max |I_AB+I_AE-1| = {worst:.2e}, crossing cell at "
                           f"{cross}, D* = {d_star:.6f}, grid step {step}")


def _check_mitm_mm_undetectable() -> CheckResult:
    """The copy attacks flip zero message bits at p in {0.25, 0.5, 1.0}."""
    details = []
    ok = True
    for protocol in (ProtocolKind.PING_PONG, ProtocolKind.LM05):
        for presence in (0.25, 0.5, 1.0):
            transcript, runtime = _session(_mitm_config(protocol, presence))
            est = transcript.disturbance
            # Every received message round is either disclosed or in the key.
            flips = est.mm_failed + est.key_errors
            this_ok = flips == 0 and est.d_mm == 0.0 and runtime < 30.0
            ok = ok and this_ok
            details.append(f"{protocol.value}@p={presence}: {flips} flipped MM bits, "
                           f"d_mm={est.d_mm}, {runtime:.1f}s")
    return CheckResult(ok, "; ".join(details))


def _check_cm_detection() -> CheckResult:
    """Control-mode disturbance equals presence * error_rate(decoy) within 4 sigma."""
    details = []
    ok = True
    for protocol in (ProtocolKind.PING_PONG, ProtocolKind.LM05):
        for presence in (0.25, 0.5, 1.0):
            transcript, _ = _session(_mitm_config(protocol, presence))
            est = transcript.disturbance
            expected = presence * float(error_rate(decoy))
            bound = _four_sigma(expected, est.n_cm)
            this_ok = est.d_cm is not None and abs(est.d_cm - expected) <= bound
            if presence == 1.0:
                cm_rounds = int(np.count_nonzero(transcript.columns.cm))
                this_ok = this_ok and cm_rounds >= 2000 and 0.47 <= est.d_cm <= 0.53
            ok = ok and this_ok
            details.append(f"{protocol.value}@p={presence}: d_cm={est.d_cm:.4f} "
                           f"(n={est.n_cm}, target {expected})")
    return CheckResult(ok, "; ".join(details))


def _check_eve_key_copy() -> CheckResult:
    """Eve's raw key matches Alice's on every engaged round."""
    details = []
    ok = True
    for protocol in (ProtocolKind.PING_PONG, ProtocolKind.LM05):
        t_full, _ = _session(_mitm_config(protocol, 1.0))
        acc_full = eve_accuracy(t_full)
        full_ok = (acc_full.coverage == 1.0 and acc_full.accuracy == 1.0
                   and np.array_equal(t_full.eve_key, t_full.alice_key))
        t_half, _ = _session(_mitm_config(protocol, 0.5))
        acc_half = eve_accuracy(t_half)
        bound = _four_sigma(0.5, len(t_half.alice_key))
        half_ok = abs(acc_half.coverage - 0.5) <= bound and acc_half.accuracy == 1.0
        ok = ok and full_ok and half_ok
        details.append(f"{protocol.value}: p=1 copy exact={full_ok}, "
                       f"p=0.5 coverage={acc_half.coverage:.4f}")
    return CheckResult(ok, "; ".join(details))


def _check_key_rate_cases() -> CheckResult:
    """r_PA is exactly 1, 0, 0 for the three fidelity patterns."""
    cases = (((1.0, 1.0), 1.0), ((1.0, 0.5), 0.0), ((0.5, 1.0), 0.0))
    results = [key_rate_rpa(xi_from_fidelities(f0, fp)) for (f0, fp), _ in cases]
    ok = all(r == want for r, (_, want) in zip(results, cases))
    return CheckResult(ok, f"r_PA = {results} for fidelity pairs (1,1), (1,1/2), (1/2,1)")


def _check_intercept_resend_baseline() -> CheckResult:
    """Random-basis intercept-resend shows the enumerated 0.25 error rate."""
    transcript, _ = _session(SessionConfig(
        protocol=ProtocolKind.BB84,
        # 1.2e4 disclosed bits expected, so the >= 1e4 sample-size
        # requirement holds by a wide margin.
        n_rounds=240000,
        seed=_SEED + 11,
        attack=AttackSpec(AttackKind.INTERCEPT_RESEND, 1.0, BasisPolicy.RANDOM),
    ))
    est = transcript.disturbance
    expected = float(error_rate(intercept_resend(BasisPolicy.RANDOM)))
    bound = _four_sigma(expected, est.n_mm)
    ok = (expected == 0.25 and est.n_mm >= 10000
          and est.d_mm is not None and abs(est.d_mm - expected) <= bound)
    return CheckResult(ok, f"enumerated rate {expected}, simulated d_mm={est.d_mm:.4f} "
                           f"over {est.n_mm} disclosed bits (4-sigma {bound:.4f})")


def _check_mcas_threshold() -> CheckResult:
    """The predetermined control threshold aborts exactly when exceeded."""
    hot, cold = (_session(SessionConfig(
        protocol=ProtocolKind.MCAS_BB84,
        n_rounds=20000,
        seed=_SEED + 7,
        attack=AttackSpec(AttackKind.MITM_MCAS_X, presence),
    ))[0] for presence in (0.5, 0.04))
    hot_est = hot.disturbance
    cold_est = cold.disturbance
    hot_ok = (hot.aborted and hot.abort_reason == "cm-threshold-exceeded"
              and hot_est.d_cm is not None and hot_est.d_cm > hot.config.d_pd_cm)
    cold_ok = (not cold.aborted and cold_est.d_cm is not None
               and cold_est.d_cm < cold.config.d_pd_cm and cold_est.d_mm == 0.0)
    return CheckResult(hot_ok and cold_ok,
                       f"p=0.5: d_cm={hot_est.d_cm:.4f} aborted={hot.aborted}; "
                       f"p=0.04: d_cm={cold_est.d_cm:.4f} aborted={cold.aborted}, "
                       f"d_mm={cold_est.d_mm}")


# The paper's leg counts: one-way once, LM05 out and back, ping-pong the
# travel photon's round trip plus the stored photon's matched delay line.
_PAPER_LEGS = {"bb84": 1, "pp": 4, "lm05": 2, "mcasbb84": 1}


def _check_table1() -> CheckResult:
    """The distance and transmittance columns follow the leg counts exactly."""
    link = LinkBudget(0.2, 50.0)
    with tempfile.TemporaryDirectory() as tmp:
        sc = Scenario("table1", seed=_SEED, out_dir=tmp, link=link, n_rounds=4000)
        with open(run_scenario(sc).paths[0], encoding="ascii", newline="") as fh:
            rows = list(csv.DictReader(fh))
    t_leg = leg_transmittance(link)
    ok = len(rows) == len(_PAPER_LEGS)
    seen = []
    for row, (protocol, legs) in zip(rows, _PAPER_LEGS.items()):
        t, distance = row["transmittance"], row["photon_distance_km"]
        ok = ok and row["protocol"] == protocol and float(t) == t_leg ** legs
        ok = ok and float(distance) == legs * link.distance_km
        seen.append(f"{row['protocol']}: T={t}, L={distance}")
    return CheckResult(ok, "; ".join(seen))


def _check_pa_futility() -> CheckResult:
    """With a full copy, hashing returns Eve the same secret key; full leakage yields k=0."""
    transcript, _ = _session(_mitm_config(ProtocolKind.LM05, 1.0))
    copy_ok = np.array_equal(transcript.eve_key, transcript.alice_key)
    zero_k = choose_output_length(len(transcript.alice_key), 1.0, 32)
    secret_blocked, spec_blocked = privacy_amplify(transcript.alice_key, 1.0, 32, _SEED)
    blocked_ok = zero_k == 0 and not len(secret_blocked) and spec_blocked.output_len == 0
    # With any positive output length, hashing Eve's copy with the public
    # spec reproduces the secret key exactly.
    secret, spec = privacy_amplify(transcript.alice_key, 0.5, 32, _SEED)
    leak_ok = (copy_ok and spec.output_len > 0
               and np.array_equal(universal_hash(transcript.eve_key, spec), secret))
    ok = copy_ok and blocked_ok and leak_ok
    return CheckResult(ok, f"copied key exact={copy_ok}, k(eve_info=1)={zero_k}, "
                           f"k={spec.output_len} and Eve's hash matches={leak_ok}")


def _matrix_hash(seed: np.ndarray, x: np.ndarray, m: int, k: int) -> np.ndarray:
    """The hash by definition: entry (i, j) of the matrix is seed_bits[m - 1 + i - j]."""
    i, j = np.ogrid[:k, :m]
    return (seed[m - 1 + i - j].astype(np.int64) @ x) & 1


def _hash_rows(seeds: np.ndarray, xs: np.ndarray, m: int, k: int,
               chunk: int = 10000) -> np.ndarray:
    """The batch hash kernel over row chunks, bounding its FFT buffers."""
    return np.concatenate([_toeplitz_parity(seeds[i:i + chunk], xs[i:i + chunk], m, k)
                           for i in range(0, len(xs), chunk)])


def _check_hash_properties() -> CheckResult:
    """The hash family is deterministic, linear over XOR and collision-free at k=32."""
    rng = random.Random(_SEED)
    m, k = 64, 32
    spec = random_hash_spec(m, k, _SEED)
    x = bit_rows([rng.getrandbits(m)], m)[0]
    determinism = np.array_equal(universal_hash(x, spec), universal_hash(x, spec))

    pairs = [(rng.getrandbits(m), rng.getrandbits(m)) for _ in range(10000)]
    a, b = (bit_rows(column, m) for column in zip(*pairs))
    seed = np.broadcast_to(spec.seed_bits, (len(pairs), m + k - 1))
    ha, hb, hx = (_hash_rows(seed, rows, m, k) for rows in (a, b, a ^ b))
    linear = bool(np.array_equal(hx, ha ^ hb))

    trials = []
    for _ in range(100000):
        diagonals = rng.getrandbits(m + k - 1)  # a uniformly drawn member's diagonals
        xa = rng.getrandbits(m)
        xb = rng.getrandbits(m)
        while xb == xa:
            xb = rng.getrandbits(m)
        trials.append((diagonals, xa, xb))
    diagonals, xa, xb = zip(*trials)
    seeds = bit_rows(diagonals, m + k - 1)
    rows_a = bit_rows(xa, m)
    ha = _hash_rows(seeds, rows_a, m, k)
    hb = _hash_rows(seeds, bit_rows(xb, m), m, k)
    collisions = int(np.all(ha == hb, axis=1).sum())
    # On a sample of the trials the batch must agree with universal_hash
    # and with the matrix definition, which shares no arithmetic with it.
    agree = all(
        np.array_equal(universal_hash(rows_a[i], HashSpec(m, k, seeds[i])), ha[i])
        and np.array_equal(_matrix_hash(seeds[i], rows_a[i], m, k), ha[i])
        for i in range(0, len(trials), 1000))
    ok = determinism and agree and linear and collisions == 0
    return CheckResult(ok, f"deterministic={determinism}, batch agrees with "
                           f"universal_hash and the matrix={agree}, "
                           f"linear on 10^4 triples={linear}, "
                           f"collisions={collisions}/10^5 at k=32")


def _check_determinism() -> CheckResult:
    """Re-running any scenario with the same seed reproduces identical bytes."""
    session = SessionConfig(
        protocol=ProtocolKind.LM05,
        n_rounds=2000,
        seed=_SEED + 21,
        channel=ChannelSpec(0.9, 0.01),
        attack=AttackSpec(AttackKind.MITM_LM05, 0.5),
    )
    identical = True
    compared = []
    with tempfile.TemporaryDirectory() as tmp:
        for name, scenario in (
            ("fig2a", lambda d: Scenario("fig2a", seed=_SEED, out_dir=d)),
            ("session", lambda d: Scenario("session", seed=_SEED + 21, out_dir=d,
                                           session=session)),
            ("sweep", lambda d: Scenario(
                "sweep", seed=_SEED, out_dir=d, p_values=(0.0, 0.5, 1.0),
                session=SessionConfig(protocol=ProtocolKind.LM05, n_rounds=2000, seed=_SEED,
                                      attack=AttackSpec(AttackKind.MITM_LM05)))),
            ("table1", lambda d: Scenario("table1", seed=_SEED, out_dir=d,
                                          n_rounds=2000)),
        ):
            first = run_scenario(scenario(f"{tmp}/{name}-a"))
            second = run_scenario(scenario(f"{tmp}/{name}-b"))
            for p1, p2 in zip(first.paths, second.paths):
                same = filecmp.cmp(p1, p2, shallow=False)
                identical = identical and same
                compared.append(f"{name}/{p1.name}: {'identical' if same else 'DIFFERS'}")
    return CheckResult(identical, "; ".join(compared))


CHECKS: tuple[Check, ...] = (
    Check(1, "critical-disturbance", _check_critical_disturbance),
    Check(2, "mutual-info-identity", _check_mutual_info_identity),
    Check(3, "mitm-mm-undetectable", _check_mitm_mm_undetectable),
    Check(4, "cm-detection", _check_cm_detection),
    Check(5, "eve-key-copy", _check_eve_key_copy),
    Check(6, "key-rate-special-cases", _check_key_rate_cases),
    Check(7, "intercept-resend-baseline", _check_intercept_resend_baseline),
    Check(8, "mcas-threshold", _check_mcas_threshold),
    Check(9, "table1-accounting", _check_table1),
    Check(10, "pa-futility", _check_pa_futility),
    Check(11, "hash-properties", _check_hash_properties),
    Check(12, "determinism", _check_determinism),
)


def run_selftest() -> int:
    """Run every acceptance check; print one line per criterion.

    Returns 0 when all pass, 1 otherwise.
    """
    all_ok = True
    for check in CHECKS:
        try:
            result = check.fn()
        except Exception as exc:  # a crashed check is a failed check
            result = CheckResult(False, f"raised {type(exc).__name__}: {exc}")
        all_ok = all_ok and result.passed
        status = "PASS" if result.passed else "FAIL"
        print(f"[{status}] criterion {check.number:2d} {check.slug}: {result.detail}")
    print("selftest: all criteria passed" if all_ok else "selftest: FAILURES present")
    return 0 if all_ok else 1
