import cmath
import math
import os
from fractions import Fraction
from pathlib import Path

import numpy as np
from hypothesis import settings

from pointscatter.connection import ConnectionParams

# CLI subprocesses import the same source tree as the test process.
_SRC = str(Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [_SRC, os.getenv("PYTHONPATH")]))

# HYPOTHESIS_PROFILE=ci draws ten times the default examples per property and prints the
# blob that reproduces a failure; without it, the default profile.
settings.register_profile("ci", max_examples=1000, print_blob=True)
settings.load_profile(os.getenv("HYPOTHESIS_PROFILE", "default"))


def random_connection(rng: np.random.Generator, bound: float = 10.0) -> ConnectionParams:
    """Uniform draw over the connection family with entries inside [-bound, bound].

    alpha, beta, gamma are drawn directly and delta = (1 + beta*gamma)/alpha
    pins the determinant; draws with |alpha| < 1e-2 or |delta| > bound are
    rejected.
    """
    while True:
        alpha, beta, gamma = rng.uniform(-bound, bound, size=3)
        if abs(alpha) < 1e-2:
            continue
        delta = (1.0 + beta * gamma) / alpha
        if abs(delta) > bound:
            continue
        theta = rng.uniform(-math.pi, math.pi)
        return ConnectionParams(alpha, beta, gamma, delta, theta)


EPS = float(np.finfo(float).eps)


def exact_transmission(p: ConnectionParams, rho2: Fraction) -> Fraction:
    """4 / (alpha^2 + delta^2 + 2 + beta^2 rho2 + gamma^2/rho2) in exact rational arithmetic."""
    alpha, beta, gamma, delta = map(Fraction, (p.alpha, p.beta, p.gamma, p.delta))
    return 4 / (alpha**2 + delta**2 + 2 + beta**2 * rho2 + (gamma**2 / rho2 if gamma else 0))


def ulps_from(x: float, exact: Fraction) -> float:
    """|x - exact| in units in the last place of the double nearest to exact."""
    return float(abs(Fraction(x) - exact) / Fraction(math.ulp(float(exact))))


def five_factor_scale(v_plus, v_zero, v_minus, a, A, m, k) -> float:
    """Largest entry of |D(v+ - iA/2m)| |H| |D(v0)| |H| |D(v- + iA/2m)|.

    D(v) = [[1, 0], [v, 1]] and H is the propagator over a, both taken
    entry-wise in modulus.  Any evaluation of the three-delta product has a
    componentwise rounding error of a modest multiple of EPS times this
    number, however large the strengths make the intermediate entries.
    """
    c, s = math.cos(k * a), math.sin(k * a) / k
    hop = np.abs([[c - 1j * A * s, 2.0 * m * s], [(A * A - k * k) / (2.0 * m) * s, c + 1j * A * s]])
    edge = 1j * A / (2.0 * m)

    def delta(v):
        return np.abs([[1.0, 0.0], [v, 1.0]])

    product = delta(v_plus - edge) @ hop @ delta(v_zero) @ hop @ delta(v_minus + edge)
    return float(product.max())


def closed_form_transfer(cfg, med) -> np.ndarray:
    """Entry-by-entry closed form of the three-delta transfer matrix.

    Fully independent of the matrix product in three_delta_transfer, so the
    two serve as mutual oracles (gate c1).  The magnetic contribution factors
    out as the phase e^{2iAa} times a real unimodular matrix.
    """
    if med.A != cfg.A:
        raise ValueError("medium vector potential must equal the triple's A")
    m, k = med.m, med.k
    a = cfg.a
    vp, v0, vm = cfg.v_plus, cfg.v_zero, cfg.v_minus
    sin2, cos2 = math.sin(2.0 * k * a), math.cos(2.0 * k * a)
    sin1, cos1 = math.sin(k * a), math.cos(k * a)
    u12 = 2.0 * m * sin2 / k + 4.0 * m * m * sin1 * sin1 / (k * k) * v0
    u11 = cos2 + m * sin2 / k * v0 + u12 * vm
    u22 = cos2 + m * sin2 / k * v0 + u12 * vp
    u21 = (
        cos1 * cos1 * (vp + v0 + vm)
        - sin1 * sin1 * (vp + vm)
        + m * sin2 / k * (v0 * (vp + vm) - k * k / (2.0 * m * m))
        + u12 * vp * vm
    )
    real_part = np.array([[u11, u12], [u21, u22]], dtype=complex)
    return cmath.exp(2j * cfg.A * a) * real_part


def numpy_scalar_transfer(x, m, k, A, strengths=None) -> np.ndarray:
    """The 0-d Schrodinger kernels evaluated in numpy-scalar arithmetic.

    The propagator over x, or with strengths = (v_plus, v_zero, v_minus) the
    three-delta transfer over half-spacing x.  The kernels' operations in
    their order on np.float64 and np.complex128 scalars, then the phase times
    the matrix as a broadcast array multiply: the evaluation whose bits the
    0-d kernels must keep.  Overflow is left to IEEE arithmetic, without a
    numpy warning.
    """
    x, m, k, A = map(np.float64, (x, m, k, A))
    with np.errstate(all="ignore"):
        c, s = np.cos(k * x), np.sin(k * x) / k
        h = (c - 1j * A * s, 2.0 * m * s + 0.0, (A * A - k * k) / (2.0 * m) * s + 0.0, c + 1j * A * s)
        phase, entries = np.exp(1j * A * x), h
        if strengths is not None:
            v_plus, v_zero, v_minus = map(np.float64, strengths)
            edge = 1j * A / (2.0 * m)
            w = v_minus + edge
            p00, p01, p10, p11 = h[0] + h[1] * w, h[1], h[2] + h[3] * w, h[3]
            p10, p11 = p10 + v_zero * p00, p11 + v_zero * p01
            p00, p01, p10, p11 = (
                h[0] * p00 + h[1] * p10, h[0] * p01 + h[1] * p11,
                h[2] * p00 + h[3] * p10, h[2] * p01 + h[3] * p11,
            )
            w = v_plus - edge
            phase, entries = phase * phase, (p00, p01, p10 + w * p00, p11 + w * p01)
        out = np.empty((2, 2), dtype=complex)
        out[0, 0], out[0, 1], out[1, 0], out[1, 1] = entries
        return np.asarray(phase)[..., None, None] * out


def numpy_dirac_transfer(x, w_plus, w_minus, A) -> np.ndarray:
    """The Dirac kernel e^{iAx} exp(x [[0, w_plus], [-w_minus, 0]]) in numpy's array arithmetic.

    The branch is chosen with np.where on 0-d arrays, as over a column:
    cos/sin where w_plus*w_minus > 0, cosh/sinh where it is negative, and
    c = 1, s = x where it is 0.  Then the phase times the matrix as a
    broadcast array multiply: the evaluation whose bits dirac.propagator and
    barrier_limit must keep.  Overflow is left to IEEE arithmetic, without
    a numpy warning.
    """
    with np.errstate(all="ignore"):
        product = w_plus * w_minus
        trig, hyper = product > 0.0, product < 0.0
        w = np.sqrt(np.abs(product))
        t, h = np.where(trig, w * x, 0.0), np.where(hyper, w * x, 0.0)
        w = np.where(trig | hyper, w, 1.0)
        c = np.where(trig, np.cos(t), np.where(hyper, np.cosh(h), 1.0))
        s = np.where(trig, np.sin(t) / w, np.where(hyper, np.sinh(h) / w, x))
        out = np.empty((2, 2), dtype=complex)
        out[0, 0], out[0, 1], out[1, 0], out[1, 1] = c, w_plus * s, -w_minus * s, c
        return np.asarray(np.exp(1j * A * x))[..., None, None] * out
