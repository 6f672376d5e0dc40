"""Convergence sweeps and Schrodinger/Dirac comparison tables.

Pure drivers over the transfer-matrix modules: how fast the short-range
models approach their target connection, how the two frameworks'
transmission probabilities track each other across kinetic energy, and the
closed-form high-energy limits.  Matrix error is the Chebyshev norm (max
componentwise modulus) so sweep values compare directly with per-entry
tolerances.  The sweeps are columnar: each validates its input column
once and evaluates its model in one call over the whole column, the
call the scalar transfer-matrix functions are the 0-d case of.  A
convergence sweep returns SweepRow tuples.  A correspondence table is one
float array, one row (eps, T_schrodinger, T_dirac, diff) per kinetic
energy.
"""

from __future__ import annotations

import math
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from . import dirac, schrodinger
from .connection import ConnectionParams, as_matrix, transmission
from .dirac import BarrierParams

__all__ = [
    "SweepRow",
    "nonrel_convergence",
    "dirac_convergence",
    "correspondence_table",
    "high_energy_asymptote",
    "loglog_slope",
]


class _Row(NamedTuple):
    x: float
    value: float
    label: str


class SweepRow(_Row):
    """One point of a sweep: abscissa, value, short series tag.

    Constructing one validates it: x > 0 and a finite value.  The sweeps
    validate their whole columns instead and build their rows with
    tuple.__new__, which skips the per-row check.
    """

    __slots__ = ()

    def __new__(cls, x: float, value: float, label: str) -> SweepRow:
        row = tuple.__new__(cls, (float(x), float(value), label))
        row.__post_init__()
        return row

    # Named as a dataclass's hook, so tools that count constructions by
    # wrapping __post_init__ (bench/tracer.py) still see public ones.
    def __post_init__(self) -> None:
        if not self.x > 0.0:
            raise ValueError("sweep abscissa must be positive")
        if not math.isfinite(self.value):
            raise ValueError("sweep value must be finite")


def _column(values: Iterable[float]) -> np.ndarray:
    """The values as a 1-d float array, each through float()."""
    return np.array([float(v) for v in values], dtype=float)


def _spacings(a_list: Iterable[float]) -> np.ndarray:
    """The sweep's spacings as floats, largest first; each must be positive and finite."""
    a = _column(a_list)
    if not np.all((a > 0.0) & (a < math.inf)):
        raise ValueError("spacings must be positive and finite")
    return np.sort(a)[::-1]


def _sweep_rows(
    a: np.ndarray, stack: np.ndarray, target: np.ndarray, label: str
) -> list[SweepRow]:
    """One row per spacing: the Chebyshev distance of each matrix from target."""
    errors = np.max(np.abs(stack - target), axis=(1, 2))
    if not np.all(np.isfinite(errors)):
        raise ValueError("sweep value must be finite")
    new = tuple.__new__
    return [new(SweepRow, (x, err, label)) for x, err in zip(a.tolist(), errors.tolist())]


def nonrel_convergence(
    p: ConnectionParams, m: float, k: float, a_list: Iterable[float]
) -> list[SweepRow]:
    """Chebyshev error of the renormalized three-delta model against p.

    One row per half-spacing, largest spacing first.  Propagates
    SingularRenormalization for beta = 0 targets with alpha + delta = -2.
    """
    a = _spacings(a_list)
    if a.size == 0:
        return []
    # The medium before the scheme: a bad m or k (k = inf included) outranks
    # SingularRenormalization.
    schrodinger.rho(m, k)
    if not math.isfinite(k):
        raise ValueError(f"wave number k={k!r} must be finite for a convergence sweep")
    strengths = schrodinger._strengths(p, a, m)
    stack = schrodinger._three_delta(a, m, k, *strengths)
    return _sweep_rows(a, stack, as_matrix(p), "schrodinger")


def dirac_convergence(
    b: BarrierParams, E: float, m: float, a_list: Iterable[float]
) -> list[SweepRow]:
    """Chebyshev error of the finite step barrier against its zero-width limit.

    One row per half-width, largest first: finite_barrier_transfer over the
    whole column of a against barrier_limit(b).  Raises ValueError for a
    bad m or E first, then, naming s and v, for a barrier whose limit
    overflows.
    """
    a = _spacings(a_list)
    if a.size == 0:
        return []
    with np.errstate(over="ignore", invalid="ignore"):
        stack = dirac.finite_barrier_transfer(b, a, E, m)
        target = dirac.barrier_limit(b)
    if not np.all(np.isfinite(target)):
        raise ValueError(
            f"barrier s={b.s!r}, v={b.v!r}: its zero-width limit is not finite in "
            "double precision (cosh sqrt|s^2 - v^2| overflows beyond about 710)"
        )
    return _sweep_rows(a, stack, target, "dirac")


def correspondence_table(
    p: ConnectionParams, m: float, kinetic_list: Iterable[float]
) -> np.ndarray:
    """Transmission in both frameworks at matched kinetic energy.

    An (n, 4) float array, one row per kinetic energy eps (ascending):
    eps, T_schrodinger (at k = sqrt(2 m eps)), T_dirac (at E = m + eps)
    and diff = |T_schrodinger - T_dirac|.  Only rho^2 differs: eps/2m
    against eps/(2m + eps).  Raises ValueError for an eps that is not
    positive or so small against m that m + eps == m.
    """
    eps = np.sort(_column(kinetic_list))
    if eps.size == 0:
        return np.empty((0, 4))
    if not np.all(eps > 0.0):
        raise ValueError("kinetic energies must be positive")
    E = m + eps
    if m > 0.0:
        lost = eps[E == m]
        if lost.size:
            raise ValueError(
                f"kinetic energy {float(lost[0])!r} is below the resolution of the mass {m!r}"
            )
    t_d = transmission(p, dirac.rho2(E, m))
    rho = schrodinger.rho(m, np.sqrt(2.0 * m * eps))
    t_s = transmission(p, rho * rho)
    return np.column_stack((eps, t_s, t_d, np.abs(t_s - t_d)))


def high_energy_asymptote(p: ConnectionParams) -> tuple[float, float]:
    """Transmission limits of both frameworks as the energy grows unboundedly.

    connection.transmission at rho^2 = inf (Schrodinger) and rho^2 = 1
    (Dirac).  The first is 0 whenever beta != 0 (perfect reflection) and 1
    for the plain delta potential; the second is 1 for the pure-vector
    barrier family (alpha = delta = cos v, gamma = -beta = sin v).
    """
    return transmission(p, math.inf), transmission(p, 1.0)


def loglog_slope(rows: Sequence[SweepRow]) -> float:
    """Least-squares slope of log(value) vs log(x): the empirical decay order."""
    if len(rows) < 2:
        raise ValueError("need at least two rows")
    if any(row.value <= 0.0 for row in rows):
        raise ValueError("log-log slope needs positive values")
    xs = np.log([row.x for row in rows])
    ys = np.log([row.value for row in rows])
    return float(np.polyfit(xs, ys, 1)[0])
