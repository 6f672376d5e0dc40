"""Relativistic (Dirac) transfer-matrix machinery.

One-dimensional Dirac spinors propagate through constant scalar potential
S, vector-potential time component V and spatial component A via a 2x2
transfer matrix with a trigonometric or hyperbolic branch, set by the sign
of (m+E+S-V)(E-m-S-V).  A single step barrier of shrinking width 2a at
fixed integrated strengths s = 2aS, v = 2aV, theta = 2aA realises a
three-parameter family of point interactions without renormalizing any
coupling; s = v gives the delta connection and s = -v the epsilon
connection, so both arise from one zero-range scalar/vector pair.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from . import connection
from .connection import ConnectionParams, ModePair, TransferMatrix
from .connection import _from_scalars, _propagation, _require_finite_fields

__all__ = [
    "DiracMedium",
    "BarrierParams",
    "BarrierClass",
    "DegenerateModes",
    "propagator",
    "rho2",
    "free_mode_vectors",
    "barrier_limit",
    "finite_barrier_transfer",
    "transmission",
    "classify",
]


class DegenerateModes(ValueError):
    """No propagating free modes: E is not finite and above the mass."""


def _require_exterior(m: float, E: float) -> None:
    """Require m > 0 and a finite E with |E| > m; NaN fails both."""
    if not m > 0.0:
        raise ValueError("mass must be positive")
    # abs(E) > m, not E*E > m*m: the squares overflow from about 1.3e154.
    if not (abs(E) > m and math.isfinite(E)):
        raise ValueError("|E| must be finite and exceed m (propagating exterior modes)")


def _coefficients(m, E, S, V):
    """Spinor coupling coefficients k_plus = m+E+S-V and k_minus = E-m-S-V."""
    return m + E + S - V, E - m - S - V


@dataclass(frozen=True, init=False)
class DiracMedium:
    """Mass, energy, and the three constant potentials S, V, A.

    |E| must be finite and exceed m so the exterior free modes propagate.
    The spinor coupling coefficients are derived on the fly, never stored:
    k_plus = m+E+S-V, k_minus = E-m-S-V, k = sqrt(|k_plus * k_minus|).
    """

    m: float
    E: float
    S: float = 0.0
    V: float = 0.0
    A: float = 0.0

    def __init__(self, m: float, E: float, S: float = 0.0, V: float = 0.0, A: float = 0.0) -> None:
        vars(self).update(m=float(m), E=float(E), S=float(S), V=float(V), A=float(A))
        self.__post_init__()

    def __post_init__(self) -> None:
        _require_finite_fields(self, ("S", "V", "A"))
        _require_exterior(self.m, self.E)

    @property
    def k_plus(self) -> float:
        return _coefficients(self.m, self.E, self.S, self.V)[0]

    @property
    def k_minus(self) -> float:
        return _coefficients(self.m, self.E, self.S, self.V)[1]

    @property
    def k(self) -> float:
        return math.sqrt(abs(self.k_plus * self.k_minus))


@dataclass(frozen=True, init=False)
class BarrierParams:
    """Integrated strengths of a vanishing-width barrier.

    s = 2aS, v = 2aV, theta = 2aA held fixed as the width 2a shrinks.  The
    derived combinations p_plus = s - v and p_minus = -s - v control which
    branch the zero-width limit lands on.
    """

    s: float
    v: float
    theta: float = 0.0

    def __init__(self, s: float, v: float, theta: float = 0.0) -> None:
        vars(self).update(s=float(s), v=float(v), theta=float(theta))
        self.__post_init__()

    def __post_init__(self) -> None:
        _require_finite_fields(self, ("s", "v", "theta"))

    @property
    def p_plus(self) -> float:
        return self.s - self.v

    @property
    def p_minus(self) -> float:
        return -self.s - self.v

    @property
    def p(self) -> float:
        return math.sqrt(abs(self.p_plus * self.p_minus))


class BarrierClass(NamedTuple):
    """Barrier classification; strength is set for delta/epsilon only."""

    kind: str
    strength: Optional[float] = None


def _propagate(x, k_plus, k_minus, A):
    """Phase e^{iAx} and the four entries of exp(x [[0, k_plus], [-k_minus, 0]]), entry-wise over arrays.

    c I + s N: connection._propagation at w = sqrt|k_plus k_minus| and sign = k_plus k_minus.  Its
    cosh branch holds the only np.errstate of a float x; a column runs under the sweep's.
    """
    product = k_plus * k_minus
    w = math.sqrt(abs(product)) if x.__class__ is float else np.sqrt(np.abs(product))
    phase, c, s = _propagation(x, w, product, 1j * A)
    return phase, (c, k_plus * s, -k_minus * s, c)


def propagator(x: float, med: DiracMedium) -> TransferMatrix:
    """Spinor transfer matrix over a float displacement x in constant potentials.

    e^{iAx} times cos/sin where k_plus*k_minus > 0, cosh/sinh where it is negative, the linear limit
    [[1, k_plus x], [-k_minus x, 1]] where either vanishes, and I at x = ±0: both frameworks' kernel
    connection._propagation (_propagate); the determinant is e^{2iAx} on every branch.  Where an
    entry is not finite (a cosh beyond about 710), or for an array x, ValueError, with no numpy warning.
    """
    return connection._propagator(_propagate, x, med.k_plus, med.k_minus, med.A)


def rho2(E: float | np.ndarray, m: float | np.ndarray) -> float | np.ndarray:
    """The rho^2 = (E-m)/(E+m) of connection.modes and connection.transmission.

    Raises ValueError unless 0 < m < E < inf (DegenerateModes for E).
    Entry-wise over ndarray arguments, each checked as a whole.  Where
    E + m overflows, the ratio is formed from E/2 and m/2, exact there.
    """
    # Plain floats stay on float comparisons: np.all costs microseconds a call.
    floats = E.__class__ is m.__class__ is float
    if not (m > 0.0 if m.__class__ is float else np.all(m > 0.0)):
        raise ValueError("mass must be positive")
    if not (m < E < math.inf if floats else np.all((m < E) & (E < math.inf))):
        raise DegenerateModes("energy must be finite and above the mass")
    # The ratio is at least 2^-54 where E + m is finite, and 0 exactly where it overflows.
    if floats:
        r = (E - m) / (E + m)
        return r if r else (0.5 * E - 0.5 * m) / (0.5 * E + 0.5 * m)
    with np.errstate(over="ignore"):
        r = (E - m) / (E + m)
    return r if np.all(r) else np.where(r, r, (0.5 * E - 0.5 * m) / (0.5 * E + 0.5 * m))[()]


def free_mode_vectors(E: float, m: float) -> ModePair:
    """Plane-wave spinor modes connection.modes(sqrt(rho2(E, m))) at energy E > m.

    As E - m -> 0, rho tends to the non-relativistic k/2m at the same
    kinetic energy (the low-energy correspondence).
    """
    return connection.modes(math.sqrt(rho2(E, m)))


def barrier_limit(b: BarrierParams) -> TransferMatrix:
    """Zero-width limit of the step barrier at fixed integrated strengths.

    e^{i theta} exp([[0, p_plus], [-p_minus, 0]]) with p± = ±s - v, connection._propagation at x = 1:
    trigonometric for s^2 < v^2, hyperbolic for s^2 > v^2, and on the boundary the linear
    matrix [[1, p_plus], [-p_minus, 1]], the delta connection of strength 2s at s = v and
    the epsilon connection of strength 2s at s = -v.  Where an entry is not finite,
    ValueError naming s and v, with no numpy warning.
    """
    return _from_scalars(
        *_propagate(1.0, b.p_plus, b.p_minus, b.theta), "barrier s=%r, v=%r: its zero-width limit "
        "is not finite in double precision (cosh sqrt|s^2 - v^2| overflows beyond about 710)", b.s, b.v,
    )


def finite_barrier_transfer(b: BarrierParams, a: float, E: float, m: float) -> TransferMatrix:
    """Transfer matrix of the width-2a step barrier carrying strengths b.

    Propagation over x = 2a with S = s/x, V = v/x, A = theta/x (_propagate); converges to
    barrier_limit(b) as a -> 0 at fixed E and m, at first order.  The matrix is e^{i theta}
    exp(P + 2aQ) with P = [[0, s-v], [s+v, 0]] and Q = [[0, m+E], [-(E-m), 0]], and the limit
    is e^{i theta} exp(P), so max|finite - limit| = 2a max|L(P, Q)| + O(a^2), where L is the
    Frechet derivative of exp (scipy.linalg.expm_frechet computes it).  The half-width a is a
    positive, finite float; analysis.dirac_convergence sweeps a column.  Where an entry is not
    finite, ValueError naming a, with no numpy warning.
    """
    if (a.__class__ is not float and np.ndim(a)) or not 0.0 < a < math.inf:
        raise ValueError("half-width a must be a positive, finite scalar")
    _require_exterior(m, E)
    a, E, m = float(a), float(E), float(m)
    return _from_scalars(*_barrier(b, a, E, m), "half-spacing a=%r is out of range: "
                         "the finite barrier overflows", a)


def _barrier(b: BarrierParams, a, E: float, m: float):
    """Phase and entries of finite_barrier_transfer, for checked floats or a column a under np.errstate."""
    x = 2.0 * a
    return _propagate(x, *_coefficients(m, E, b.s / x, b.v / x), b.theta / x)


def transmission(p: ConnectionParams, E: float | np.ndarray, m: float | np.ndarray) -> float | np.ndarray:
    """connection.transmission through p at rho^2 = (E-m)/(E+m), entry-wise; independent of theta."""
    return connection.transmission(p, rho2(E, m))


def classify(b: BarrierParams) -> BarrierClass:
    """Name the point interaction realised by the zero-width barrier.

    Equal scalar and vector strengths give a delta of strength 2s, opposite
    ones an epsilon of strength 2s; those identifications hold at theta = 0
    only, so s = ±v with theta != 0 raises ValueError.  Away from the
    boundary the branch is trig (s^2 < v^2) or hyperbolic (s^2 > v^2).
    The comparisons are exact: floating sweeps should band s^2 - v^2
    against their own tolerance before calling this.
    """
    if b.s == b.v or b.s == -b.v:
        if b.theta != 0.0:
            raise ValueError("delta/epsilon identification requires theta = 0")
        kind = "delta" if b.s == b.v else "epsilon"
        return BarrierClass(kind, 2.0 * b.s)
    return BarrierClass("trig" if abs(b.s) < abs(b.v) else "hyperbolic")
