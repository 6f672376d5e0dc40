"""Convergence sweeps and Schrodinger/Dirac comparison tables.

Pure drivers over the transfer-matrix modules: how fast the short-range
models approach their target connection, how the two frameworks'
transmission probabilities track each other across kinetic energy, and the
closed-form high-energy limits.  Matrix error is the Chebyshev norm (max
componentwise modulus) so sweep values compare directly with per-entry
tolerances.  A convergence sweep validates its inputs once and evaluates
its model in one kernel call over the whole array of spacings, the same
kernel the scalar transfer-matrix functions are the 0-d case of.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

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


@dataclass(frozen=True)
class SweepRow:
    """One point of a sweep: abscissa, value, short series tag."""

    x: float
    value: float
    label: str

    def __post_init__(self) -> None:
        object.__setattr__(self, "x", float(self.x))
        object.__setattr__(self, "value", float(self.value))
        if not self.x > 0.0:
            raise ValueError("sweep abscissa must be positive")
        if not math.isfinite(self.value):
            raise ValueError("sweep value must be finite")


def _spacings(a_list: Iterable[float]) -> np.ndarray:
    """The sweep's spacings as floats, largest first; each must be positive and finite."""
    a = np.array([float(a) for a in a_list], dtype=float)
    if not np.all((a > 0.0) & (a < math.inf)):
        raise ValueError("spacings must be positive and finite")
    return np.sort(a)[::-1]


def _sweep_rows(
    a: np.ndarray, stack: np.ndarray, target: np.ndarray, label: str
) -> list[SweepRow]:
    """One row per spacing: the Chebyshev distance of each matrix from target."""
    errors = np.max(np.abs(stack - target), axis=(1, 2))
    return [SweepRow(x, err, label) for x, err in zip(a.tolist(), errors.tolist())]


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
    # Checks in the scalar route's order: mass, scheme, then the medium.
    strengths = schrodinger._strengths(p, a, m)
    schrodinger._require_medium(m, k)
    stack = schrodinger._three_delta(a, m, k, *strengths)
    return _sweep_rows(a, stack, as_matrix(p), "schrodinger")


def dirac_convergence(
    b: BarrierParams, E: float, m: float, a_list: Iterable[float]
) -> list[SweepRow]:
    """Chebyshev error of the finite step barrier against its zero-width limit."""
    a = _spacings(a_list)
    if a.size == 0:
        return []
    dirac._require_exterior(m, E)
    return _sweep_rows(a, dirac._barrier(b, a, E, m), dirac.barrier_limit(b), "dirac")


def correspondence_table(
    p: ConnectionParams, m: float, kinetic_list: Iterable[float]
) -> list[SweepRow]:
    """Transmission in both frameworks at matched kinetic energy.

    For each kinetic energy eps (ascending) three rows are emitted,
    labelled T2_schrodinger (at k = sqrt(2 m eps)), T2_dirac (at
    E = m + eps) and diff (their absolute difference).  Only rho^2
    differs: eps/2m against eps/(2m + eps).
    """
    rows = []
    for eps in sorted(float(e) for e in kinetic_list):
        if not eps > 0.0:
            raise ValueError("kinetic energies must be positive")
        t_d = transmission(p, dirac.rho2(m + eps, m))
        rho = schrodinger.rho(m, math.sqrt(2.0 * m * eps))
        t_s = transmission(p, rho * rho)
        rows.append(SweepRow(eps, t_s, "T2_schrodinger"))
        rows.append(SweepRow(eps, t_d, "T2_dirac"))
        rows.append(SweepRow(eps, abs(t_s - t_d), "diff"))
    return rows


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
