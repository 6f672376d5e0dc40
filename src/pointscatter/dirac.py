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
from .connection import _chebyshev, _coerce_fields, _from_entries

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
    "convergence_error",
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


@dataclass(frozen=True)
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

    def __post_init__(self) -> None:
        _coerce_fields(self, float, ("S", "V", "A"))
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


@dataclass(frozen=True)
class BarrierParams:
    """Integrated strengths of a vanishing-width barrier.

    s = 2aS, v = 2aV, theta = 2aA held fixed as the width 2a shrinks.  The
    derived combinations p_plus = s - v and p_minus = -s - v control which
    branch the zero-width limit lands on.
    """

    s: float
    v: float
    theta: float = 0.0

    def __post_init__(self) -> None:
        _coerce_fields(self, float, ("s", "v", "theta"))

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


def _propagate(x, w_plus, w_minus, A):
    """The phase e^{iAx} and the four entries of exp(x [[0, w_plus], [-w_minus, 0]]).

    In closed form, entry-wise over arrays.  The branch is chosen per element by the sign of w_plus*w_minus:
    cos/sin when positive, cosh/sinh when negative, and the truncated
    series c = 1, s = x when either coefficient vanishes.  Each branch only
    sees its own elements' arguments (the others get 0), so a cosh that
    would overflow where another branch is taken is never evaluated.
    """
    product = w_plus * w_minus
    trig = product > 0.0
    hyper = product < 0.0
    w = np.sqrt(np.abs(product))
    wx = w * x
    t = np.where(trig, wx, 0.0)
    h = np.where(hyper, wx, 0.0)
    w = np.where(trig | hyper, w, 1.0)
    c = np.where(trig, np.cos(t), np.where(hyper, np.cosh(h), 1.0))
    s = np.where(trig, np.sin(t) / w, np.where(hyper, np.sinh(h) / w, x))
    return np.exp(1j * A * x), (c, w_plus * s, -w_minus * s, c)


def propagator(x: float, med: DiracMedium) -> TransferMatrix:
    """Spinor transfer matrix over displacement x in constant potentials.

    Oscillatory when k_plus*k_minus > 0, cosh/sinh when it is negative, and
    the linear limit [[1, k_plus x], [-k_minus x, 1]] when either
    coefficient vanishes.  The spatial vector potential only contributes
    the phase e^{iAx}; the determinant is e^{2iAx} on every branch.  The
    scalar call is the 0-d case of the kernel that dirac convergence
    sweeps evaluate over a whole array of barrier widths at once.
    """
    return _from_entries(*_propagate(x, med.k_plus, med.k_minus, med.A))


def rho2(E: float | np.ndarray, m: float | np.ndarray) -> float | np.ndarray:
    """The rho^2 = (E-m)/(E+m) of connection.modes and connection.transmission.

    Raises ValueError unless 0 < m < E < inf (DegenerateModes for E).
    Entry-wise over ndarray arguments, each checked as a whole.
    """
    # Plain floats stay on float comparisons: np.all costs microseconds a call.
    floats = E.__class__ is m.__class__ is float
    if not (m > 0.0 if floats else np.all(m > 0.0)):
        raise ValueError("mass must be positive")
    if not (m < E < math.inf if floats else np.all((m < E) & (E < math.inf))):
        raise DegenerateModes("energy must be finite and above the mass")
    return (E - m) / (E + m)


def free_mode_vectors(E: float, m: float) -> ModePair:
    """Plane-wave spinor modes connection.modes(sqrt(rho2(E, m))) at energy E > m.

    As E - m -> 0, rho tends to the non-relativistic k/2m at the same
    kinetic energy (the low-energy correspondence).
    """
    return connection.modes(math.sqrt(rho2(E, m)))


def barrier_limit(b: BarrierParams) -> TransferMatrix:
    """Zero-width limit of the step barrier at fixed integrated strengths.

    e^{i theta} times the kernel built from p± = ±s - v: trigonometric for
    s^2 < v^2, hyperbolic for s^2 > v^2, and on the boundary s^2 = v^2 the
    linear matrix [[1, p_plus], [-p_minus, 1]], which is the delta
    connection of strength 2s at s = v and the epsilon connection of
    strength 2s at s = -v.
    """
    return _from_entries(*_propagate(1.0, b.p_plus, b.p_minus, b.theta))


def finite_barrier_transfer(
    b: BarrierParams, a: float | np.ndarray, E: float, m: float
) -> TransferMatrix:
    """Transfer matrix of the width-2a step barrier carrying strengths b.

    Propagation over x = 2a with S = s/x, V = v/x, A = theta/x; converges to
    barrier_limit(b) as a -> 0 at fixed E and m, at first order.  The
    matrix is e^{i theta} exp(P + 2aQ) with P = [[0, s-v], [s+v, 0]] and
    Q = [[0, m+E], [-(E-m), 0]], and the limit is e^{i theta} exp(P), so
    max|finite - limit| = 2a max|L(P, Q)| + O(a^2), where L is the
    Frechet derivative of exp (scipy.linalg.expm_frechet computes it).
    An array of half-widths a gives a stack of shape a.shape + (2, 2), one
    matrix per a by the scalar call's operations; every a must be positive.
    """
    if not np.greater(a, 0.0).all():
        raise ValueError("half-width a must be positive")
    if not np.less(a, math.inf).all():
        raise ValueError("half-width a must be finite")
    _require_exterior(m, E)
    return _from_entries(*_barrier(b, a, E, m))


def _barrier(b: BarrierParams, a, E: float, m: float):
    """Phase and entries of finite_barrier_transfer, for checked arguments."""
    x = 2.0 * a
    k_plus, k_minus = _coefficients(m, E, b.s / x, b.v / x)
    return _propagate(x, k_plus, k_minus, b.theta / x)


def convergence_error(b: BarrierParams, E: float, m: float, a: np.ndarray) -> np.ndarray:
    """max_ij |finite_barrier_transfer(b, a, E, m) - barrier_limit(b)|_ij over a column a > 0.

    Raises ValueError for a bad m or E first, then, naming s and v, for a
    barrier whose limit overflows.  A width whose cosh overflows gives an
    inf or NaN error, which is not checked here.
    """
    _require_exterior(m, E)
    with np.errstate(over="ignore", invalid="ignore"):
        target = barrier_limit(b)
        if not np.all(np.isfinite(target)):
            raise ValueError(
                f"barrier s={b.s!r}, v={b.v!r}: its zero-width limit is not finite in "
                "double precision (cosh sqrt|s^2 - v^2| overflows beyond about 710)"
            )
        return _chebyshev(*_barrier(b, a, E, m), target)


def transmission(p: ConnectionParams, E: float, m: float) -> float:
    """connection.transmission through p at rho^2 = (E-m)/(E+m), independent of theta."""
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
