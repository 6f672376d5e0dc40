"""Convergence sweeps and Schrodinger/Dirac comparison tables.

Pure drivers over the transfer-matrix modules: how fast the short-range
models approach their target connection, how the two frameworks'
transmission probabilities track each other across kinetic energy, and the
closed-form high-energy limits.  Matrix error is the Chebyshev norm (max
componentwise modulus) so sweep values compare directly with per-entry
tolerances.  The sweeps are columnar: each validates its input column and
medium, runs its model's column kernel once (whose errors are the scalar
transfer-matrix functions', bit for bit) and checks the error column it
forms.  A convergence sweep returns one Sweep: read-only float columns x
and value and a label, which also reads as a sequence of SweepRow tuples
built on demand.  A correspondence table is one float array, one row (eps,
T_schrodinger, T_dirac, diff) per kinetic energy.
"""

from __future__ import annotations

import math
import sys
from collections.abc import Sequence
from typing import Iterable, NamedTuple

import numpy as np

from . import dirac, schrodinger
from .connection import ConnectionParams, transmission

__all__ = [
    "Sweep",
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

    Constructing one validates it: x > 0 and a finite value.  A Sweep
    validates its whole columns instead and builds its rows with
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


class Sweep(Sequence):
    """A sweep's abscissae x and values as read-only float64 columns, and its label.

    Constructing one validates it as SweepRow validates a row: x > 0 and a
    finite value at every point, in two 1-d columns of one length.  The
    columns are copies.  The convergence sweeps build theirs unchecked in
    _error, from fresh columns that already pass those checks.  A Sweep is
    also a sequence of SweepRow (length, indexing, iteration; a slice gives
    a list), and builds each row only when it is read.
    """

    __slots__ = ("x", "value", "label")

    def __init__(self, x: Iterable[float], value: Iterable[float], label: str) -> None:
        x, value = np.array(x, dtype=float), np.array(value, dtype=float)
        if x.ndim != 1 or x.shape != value.shape:
            raise ValueError("sweep columns must be 1-d and of one length")
        if not (x > 0.0).all():
            raise ValueError("sweep abscissa must be positive")
        if not np.isfinite(value).all():
            raise ValueError("sweep value must be finite")
        x.setflags(write=False)
        value.setflags(write=False)
        self.x, self.value, self.label = x, value, label

    def __len__(self) -> int:
        return len(self.x)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return list(self)[index]
        i = range(len(self.x))[index]  # a list's index rules and errors
        return tuple.__new__(SweepRow, (float(self.x[i]), float(self.value[i]), self.label))

    def __iter__(self):
        new, label = tuple.__new__, self.label
        for x, value in zip(self.x.tolist(), self.value.tolist()):
            yield new(SweepRow, (x, value, label))


def _spacings(a_list: Iterable[float]) -> np.ndarray:
    """The sweep's spacings as floats, largest first; each must be positive and finite."""
    try:
        a = np.sort(np.fromiter(a_list, float))[::-1]
    except ValueError as exc:  # a nested value ("setting an array element with a sequence") or a word
        raise ValueError(f"spacings must be a flat sequence of numbers: {exc}") from None
    # Sorted, so the ends decide: the smallest is last, and a NaN sorts first.
    if a.size and not (a[-1] > 0.0 and a[0] < math.inf):
        raise ValueError("spacings must be positive and finite")
    return a


def _error(a: np.ndarray, block: np.ndarray, target, why: str, label: str) -> Sweep:
    """The sweep of a over the error column max_ij |m_ij - target_ij|, for 4 real target entries.

    Under the caller's np.errstate, in place on the kernel's (4, n) block of entries: the max
    of non-negative moduli is exact in any order.  inf and NaN propagate through + and *, abs
    and max, so one check is exact: ValueError names the largest a whose error is not finite.
    """
    block -= np.array(target).reshape(4, 1)
    err = np.abs(block, out=block).max(axis=0)
    if err.size and not math.isfinite(err.max()):
        worst = a[~np.isfinite(err)].max()
        raise ValueError(f"half-spacing a={float(worst)!r} is out of range: {why}")
    # Sweep's checks hold without running them: _spacings admitted a, 1-d, with a > 0, and
    # err is a fresh column of a's length that the check above proved finite.
    sweep = object.__new__(Sweep)
    a.setflags(write=False)
    err.setflags(write=False)
    sweep.x, sweep.value, sweep.label = a, err, label
    return sweep


def nonrel_convergence(
    p: ConnectionParams, m: float, k: float, a_list: Iterable[float]
) -> Sweep:
    """Chebyshev error max_ij |M(a) - as_matrix(p)|_ij of the renormalized three-delta model.

    M(a) is three_delta_transfer of renormalized_strengths(p, a, m) at wave
    number k, over every spacing in one kernel call: one point per
    half-spacing, largest first, each a's outcome its own.  Raises, in this
    order: ValueError unless every spacing is positive and finite; for a
    bad or infinite m or k; as renormalized_strengths does (naming the
    largest a whose strengths overflow, or v_zero where it overflows at
    every a); naming the largest a whose error is not finite.  Overflow
    raises no numpy warning.  The value does not depend on p.theta: A = theta/2a
    is a pure gauge, M(a) at A being e^{2iAa} = e^{i theta} times M(a) at A = 0.  So
    the kernel _three_delta_block runs at A = 0, against the real matrix of _strengths' connection.
    """
    a = _spacings(a_list)
    schrodinger.rho(m, k)
    if not math.isfinite(k):  # rho admits k = inf
        raise ValueError(f"wave number k={k!r} must be finite for a convergence sweep")
    with np.errstate(over="ignore", invalid="ignore"):
        v_plus, v_zero, v_minus, q = schrodinger._strengths(p, a, m)
        block = schrodinger._three_delta_block(a, m, k, v_plus, v_zero, v_minus)
        return _error(a, block, (q.alpha, q.beta, q.gamma, q.delta), "the three-delta products overflow",
                      "schrodinger")


def dirac_convergence(
    b: dirac.BarrierParams, E: float, m: float, a_list: Iterable[float]
) -> Sweep:
    """Chebyshev error max_ij |finite_barrier_transfer(b, a, E, m) - barrier_limit(b)|_ij.

    One point per half-width, largest first.  Raises ValueError, in this
    order: unless every half-width is positive and finite; for a bad m or
    E; naming s and v, for a barrier whose limit overflows; naming the
    largest a whose error is not finite.  Overflow raises no numpy warning.
    Both matrices carry b.theta only as their phase e^{i theta}, so the value does
    not depend on it: kernel and target run in float64 at (s, v, 0).
    """
    a = _spacings(a_list)
    dirac._require_exterior(m, E)
    target = dirac.barrier_limit(dirac.BarrierParams(b.s, b.v)).real
    with np.errstate(over="ignore", invalid="ignore"):
        _, entries = dirac._propagate(*dirac._barrier(b, a, E, m), 0.0)
        return _error(a, np.array(entries), target, "the finite barrier overflows", "dirac")


def correspondence_table(
    p: ConnectionParams, m: float, kinetic_list: Iterable[float]
) -> np.ndarray:
    """Transmission in both frameworks at matched kinetic energy.

    An (n, 4) float array, one row per kinetic energy eps (ascending):
    eps, T_schrodinger, T_dirac and diff = |T_schrodinger - T_dirac|.  Only
    rho^2 differs, eps/2m against eps/(2m + eps), as schrodinger's T at
    k = sqrt(2 m eps) and dirac.transmission at E = m + eps form them.
    Where 2 m eps is not a normal float, rho^2 is eps/2m itself.  Raises
    ValueError for an infinite m, or an eps that is not positive, so small
    against m that m + eps == m, or so large that m + eps overflows; no warning.
    """
    eps = np.sort(np.fromiter(kinetic_list, float))
    if eps.size == 0:
        return np.empty((0, 4))
    if not np.all(eps > 0.0):
        raise ValueError("kinetic energies must be positive")
    if m == math.inf:  # before the resolution check, which every eps would fail
        raise ValueError("mass must be finite")
    with np.errstate(over="ignore", invalid="ignore"):  # inf past the float range, NaN as -inf + inf
        E = m + eps
    if m > 0.0 and E[0] == m:  # E is sorted: the smallest eps is lost first, the largest overflows
        raise ValueError(f"kinetic energy {float(eps[0])!r} is below the resolution of the mass {m!r}")
    if m > 0.0 and E[-1] == math.inf:
        raise ValueError(f"kinetic energy {float(eps[-1])!r} plus the mass {m!r} exceeds the float range")
    t_d = dirac.transmission(p, E, m)
    with np.errstate(over="ignore"):
        k2 = 2.0 * m * eps
        # Where 2 m eps is subnormal, 0 or inf (k2 is sorted: the ends tell), sqrt loses rho^2 = eps/2m:
        # those rows take it directly, rounded once (where 2m overflows, m + eps != m puts eps/m above
        # 2^-54).  Where it overflows, m < 2^-1024: 2^300 m, 2^300 eps are exact, their 2 m eps normal.
        odd = [] if sys.float_info.min <= k2[0] <= k2[-1] < math.inf else np.flatnonzero(
            (k2 < sys.float_info.min) | (k2 == math.inf)).tolist()
        k2[odd] = 1.0  # placeholders
        t_s = schrodinger._transmission(p, m, np.sqrt(k2))
        for i, e in zip(odd, eps[odd].tolist()):
            rho2 = e / (2.0 * m) if 2.0 * m < math.inf else e / m * 0.5
            t_s[i] = transmission(p, rho2) if rho2 < math.inf else schrodinger._transmission(
                p, m * 2.0**300, math.sqrt(2.0 * (m * 2.0**300) * (e * 2.0**300)))
    return np.column_stack((eps, t_s, t_d, np.abs(t_s - t_d)))


def high_energy_asymptote(p: ConnectionParams) -> tuple[float, float]:
    """Transmission limits of both frameworks as the energy grows unboundedly.

    connection.transmission at rho^2 = inf (Schrodinger) and rho^2 = 1
    (Dirac).  The first is 0 whenever beta != 0 (perfect reflection) and 1
    for the plain delta potential; the second is 1 for the pure-vector
    barrier family (alpha = delta = cos v, gamma = -beta = sin v).
    """
    return transmission(p, math.inf), transmission(p, 1.0)


def loglog_slope(sweep: Sweep) -> float:
    """Least-squares slope of log(value) vs log(x): the empirical decay order."""
    log_x = np.log(sweep.x)
    if not log_x.size or log_x.min() == log_x.max():  # a sweep may repeat a spacing
        raise ValueError("need at least two distinct abscissae")
    if not (sweep.value > 0.0).all():
        raise ValueError("log-log slope needs positive values")
    return float(np.polyfit(log_x, np.log(sweep.value), 1)[0])
