import cmath
import math
import os
from pathlib import Path

import numpy as np

from pointscatter.connection import ConnectionParams

# CLI subprocesses import the same source tree as the test process.
_SRC = str(Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [_SRC, os.getenv("PYTHONPATH")]))


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
