import math

import numpy as np

from pointscatter.connection import ConnectionParams


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
