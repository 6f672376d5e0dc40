"""Sweep drivers: convergence series, correspondence tables, asymptotes."""

import math
import re

import numpy as np
import pytest

from conftest import EPS, five_factor_scale, random_connection
from pointscatter import analysis, connection, dirac, schrodinger
from pointscatter.analysis import (
    SweepRow,
    correspondence_table,
    dirac_convergence,
    high_energy_asymptote,
    loglog_slope,
    nonrel_convergence,
)
from pointscatter.connection import ConnectionParams
from pointscatter.dirac import BarrierParams
from pointscatter.schrodinger import NonRelMedium, SingularRenormalization


class TestSweepRow:
    def test_rejects_nonpositive_abscissa(self):
        with pytest.raises(ValueError):
            SweepRow(0.0, 1.0, "x")

    def test_rejects_nonfinite_value(self):
        with pytest.raises(ValueError):
            SweepRow(1.0, math.nan, "x")


class TestNonrelConvergence:
    def test_rows_sorted_by_descending_spacing(self):
        p = ConnectionParams(2, 1, 1, 1, 0.3)
        rows = nonrel_convergence(p, 1.0, 1.0, [1e-4, 1e-2, 1e-3])
        assert [r.x for r in rows] == [1e-2, 1e-3, 1e-4]
        assert all(r.label == "schrodinger" for r in rows)

    def test_errors_decay(self):
        p = ConnectionParams(2, 1, 1, 1, 0.3)
        rows = nonrel_convergence(p, 1.0, 1.0, [1e-2, 1e-3, 1e-4])
        values = [r.value for r in rows]
        assert values[0] > values[1] > values[2] > 0.0

    def test_two_decade_drop(self):
        # First-order decay: two decades of a buy two decades of error.
        p = ConnectionParams(1, 0, 1, 1, 0)
        rows = nonrel_convergence(p, 1.0, 1.0, [1e-2, 1e-3, 1e-4])
        values = [r.value for r in rows]
        assert values[2] < 1e-2 * values[0]

    def test_delta_potential_error_small_but_nonzero(self):
        # No renormalization happens, yet free propagation between the
        # deltas keeps the finite-a error at O(a).
        p = ConnectionParams(1, 0, 1, 1, 0)
        rows = nonrel_convergence(p, 1.0, 1.0, [1e-3])
        assert 0.0 < rows[0].value < 1e-2

    def test_log_slope_near_first_order(self):
        p = ConnectionParams(2, 1, 1, 1, 0.3)
        rows = nonrel_convergence(p, 1.0, 1.0, np.geomspace(1e-3, 1e-4, 4))
        assert loglog_slope(rows) == pytest.approx(1.0, abs=0.25)

    def test_propagates_singular_renormalization(self):
        with pytest.raises(SingularRenormalization):
            nonrel_convergence(ConnectionParams(-1, 0, 3, -1, 0), 1.0, 1.0, [1e-2])


class TestDiracConvergence:
    def test_zero_barrier_error_vanishes_with_width(self):
        rows = dirac_convergence(BarrierParams(0, 0, 0), 2.0, 1.0, [1e-2, 1e-3, 1e-4])
        values = [r.value for r in rows]
        assert values[0] > values[1] > values[2]
        assert values[2] < 1e-3
        assert all(r.label == "dirac" for r in rows)

    @pytest.mark.parametrize("svt", [(1.0, 1.0, 0.0), (2.0, 0.0, 0.0)])
    def test_decaying_sequences(self, svt):
        rows = dirac_convergence(BarrierParams(*svt), 2.0, 1.0, [1e-2, 1e-3, 1e-4])
        values = [r.value for r in rows]
        assert values[0] > values[1] > values[2]

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("s, v", [(1000.0, 0.0), (0.0, -1e308), (1e308, 1e308)])
    def test_overflowing_limit_names_s_and_v(self, s, v):
        # cosh sqrt|s^2 - v^2| overflows beyond about 710, and 2s overflows
        # on the s = v boundary: the error names the barrier, not a sweep value.
        with pytest.raises(ValueError, match=re.escape(f"s={s!r}, v={v!r}")):
            dirac_convergence(BarrierParams(s, v), 2.0, 1.0, [1e-2, 1e-3, 1e-4])


# Both renormalization schemes, with and without a phase; beta = 1e-3 drives
# v0 = beta/4m^2a^2 and with it the modulus product far above 1.
SWEEP_CONNECTIONS = [
    (2.0, 1.0, 1.0, 1.0, 0.0),
    (2.0, 1.0, 1.0, 1.0, 0.3),
    (0.5, 1e-3, -1000.0, 0.0, -2.5),
    (2.0, 0.0, 1.3, 0.5, 0.0),
    (-0.4, 0.0, 0.7, -2.5, 1.9),
]
# Trig (s^2 < v^2), hyperbolic, s = v, s = -v, and at E = 2, m = 1 a barrier
# with s + v = 0.8 > 0: its k_minus = 1 - (s+v)/2a changes sign at a = 0.4,
# so the sweep crosses from the trig branch (large a) to the hyperbolic one.
# At a = 1e3 every barrier is on the trig branch with w x in the thousands,
# where a cosh evaluated for the unselected branch would overflow.
SWEEP_BARRIERS = [
    (0.3, 1.0, 0.0),
    (1.5, 0.4, 0.7),
    (1.0, 1.0, 0.0),
    (0.8, -0.8, 0.0),
    (0.6, 0.2, -1.1),
]
SWEEP_A = np.concatenate([[1e3], np.geomspace(10.0, 1e-7, 27), [0.4, 0.3999, 0.4001]])


@pytest.mark.filterwarnings("error")
class TestSweepMatchesScalarRoute:
    """Each sweep row against the scalar public functions at the same a.

    Both evaluations are within 64 eps times the modulus scale of their
    matrix of the exact product, so their Chebyshev errors may differ by at
    most twice that.  The scale is the factors' modulus product for the
    three-delta model and (1 + |w x|) max|M| for the barrier, whose entries
    are cos/cosh/sin/sinh of w x.
    """

    @pytest.mark.parametrize("conn", SWEEP_CONNECTIONS)
    @pytest.mark.parametrize("m, k", [(1.0, 1.0), (0.4, 3.0)])
    def test_nonrel_rows(self, conn, m, k):
        p = ConnectionParams(*conn)
        a_list = SWEEP_A[SWEEP_A < 0.2]
        rows = nonrel_convergence(p, m, k, a_list)
        assert [r.x for r in rows] == sorted(a_list.tolist(), reverse=True)
        for row in rows:
            cfg = schrodinger.renormalized_strengths(p, row.x, m)
            M = schrodinger.three_delta_transfer(cfg, NonRelMedium(m, k, cfg.A))
            scalar_err = float(np.max(np.abs(M - connection.as_matrix(p))))
            scale = five_factor_scale(cfg.v_plus, cfg.v_zero, cfg.v_minus, row.x, cfg.A, m, k)
            assert abs(row.value - scalar_err) <= 2 * 64 * EPS * scale

    @pytest.mark.parametrize("svt", SWEEP_BARRIERS)
    @pytest.mark.parametrize("E, m", [(2.0, 1.0), (-3.0, 0.5)])
    def test_dirac_rows(self, svt, E, m):
        b = BarrierParams(*svt)
        rows = dirac_convergence(b, E, m, SWEEP_A)
        assert [r.x for r in rows] == sorted(SWEEP_A.tolist(), reverse=True)
        target = dirac.barrier_limit(b)
        for row in rows:
            M = dirac.finite_barrier_transfer(b, row.x, E, m)
            scalar_err = float(np.max(np.abs(M - target)))
            med = dirac.DiracMedium(m, E, b.s / (2 * row.x), b.v / (2 * row.x))
            wx = med.k * 2 * row.x
            scale = (1.0 + wx) * float(np.max(np.abs(M)))
            assert abs(row.value - scalar_err) <= 2 * 64 * EPS * scale

    def test_crossing_sweep_covers_both_branches(self):
        b = BarrierParams(*SWEEP_BARRIERS[-1])
        signs = set()
        for a in SWEEP_A:
            med = dirac.DiracMedium(1.0, 2.0, b.s / (2 * a), b.v / (2 * a))
            signs.add(np.sign(med.k_plus * med.k_minus))
        assert {1.0, -1.0} <= signs


@pytest.mark.filterwarnings("error")
class TestSweepInputContract:
    """Bad spacings are rejected before any evaluation, without a warning."""

    SWEEPS = {
        "nonrel": lambda a_list: nonrel_convergence(
            ConnectionParams(2, 1, 1, 1, 0.3), 1.0, 1.0, a_list
        ),
        "dirac": lambda a_list: dirac_convergence(BarrierParams(1.0, 0.5, 0.2), 2.0, 1.0, a_list),
    }

    @pytest.mark.parametrize("sweep", sorted(SWEEPS))
    def test_empty_sweep_has_no_rows(self, sweep):
        assert self.SWEEPS[sweep]([]) == []

    @pytest.mark.parametrize("sweep", sorted(SWEEPS))
    @pytest.mark.parametrize(
        "a_list", [[math.nan], [math.inf], [0.0], [-1e-3], [1e-3, math.nan]],
        ids=["nan", "inf", "zero", "negative", "trailing-nan"],
    )
    def test_rejects_bad_spacing(self, sweep, a_list):
        with pytest.raises(ValueError):
            self.SWEEPS[sweep](a_list)


class TestCorrespondenceTable:
    def test_row_structure(self):
        # One row per energy: eps, T2_schrodinger, T2_dirac, diff.
        p = ConnectionParams(1, 0, 1, 1, 0)
        table = correspondence_table(p, 1.0, [0.5, 2.0])
        assert table.shape == (2, 4)
        assert table[:, 0].tolist() == [0.5, 2.0]
        assert np.array_equal(table[:, 3], np.abs(table[:, 1] - table[:, 2]))

    def test_probabilities_in_unit_interval(self):
        rng = np.random.default_rng(103)
        energies = np.geomspace(1e-6, 1e6, 13)
        for _ in range(20):
            p = random_connection(rng)
            probabilities = correspondence_table(p, 1.0, energies)[:, 1:3]
            assert np.all((0.0 <= probabilities) & (probabilities <= 1.0))

    def test_frameworks_agree_at_low_kinetic_energy(self):
        p = ConnectionParams(2, 1, 1, 1, 0)
        [(_, t_s, t_d, diff)] = correspondence_table(p, 1.0, [1e-6])
        assert diff / t_s < 1e-4

    def test_delta_potential_diverges_relativistically(self):
        # High kinetic energy: the nonrelativistic delta turns transparent,
        # the relativistic one keeps reflecting.
        p = ConnectionParams(1, 0, 1, 1, 0)
        [(_, t_s, t_d, _)] = correspondence_table(p, 1.0, [1e6])
        assert t_s > 1.0 - 1e-6
        assert t_d == pytest.approx(4.0 / 5.0, abs=1e-5)

    def test_delta_potential_difference_is_monotone(self):
        p = ConnectionParams(1, 0, 1, 1, 0)
        table = correspondence_table(p, 1.0, np.geomspace(1e-6, 1e6, 13))
        diffs = table[:, 3].tolist()
        assert all(later > earlier for earlier, later in zip(diffs, diffs[1:]))

    def test_rejects_nonpositive_kinetic_energy(self):
        with pytest.raises(ValueError):
            correspondence_table(ConnectionParams(1, 0, 0, 1, 0), 1.0, [0.0])

    @pytest.mark.parametrize("m, eps", [(1.0, 1e-20), (1e10, 1e-7), (math.inf, 1.0)])
    def test_rejects_kinetic_energy_below_mass_resolution(self, m, eps):
        # m + eps == m: the Dirac energy would equal the mass, and the error
        # must name eps, not the energy the caller never passed.
        with pytest.raises(ValueError, match="below the resolution of the mass"):
            correspondence_table(ConnectionParams(1, 0, 0, 1, 0), m, [1.0, eps])

    def test_negative_mass_is_named_before_resolution(self):
        with pytest.raises(ValueError, match="mass must be positive"):
            correspondence_table(ConnectionParams(1, 0, 0, 1, 0), -1.0, [1e-20])


class TestHighEnergyAsymptote:
    def test_delta_potential(self):
        nonrel, rel = high_energy_asymptote(ConnectionParams(1, 0, 1, 1, 0))
        assert nonrel == 1.0
        assert rel == pytest.approx(4.0 / 5.0)

    def test_epsilon_potential(self):
        nonrel, rel = high_energy_asymptote(ConnectionParams(1, 1, 0, 1, 0))
        assert nonrel == 0.0
        assert rel == pytest.approx(4.0 / 5.0)

    def test_pure_vector_barrier_transmits(self):
        p = connection.decompose(dirac.barrier_limit(BarrierParams(0.0, 1.0, 0.0)))
        nonrel, rel = high_energy_asymptote(p)
        assert rel == pytest.approx(1.0, abs=1e-12)

    def test_equals_the_closed_form_limits_bit_for_bit(self):
        rng = np.random.default_rng(109)
        for i in range(2000):
            p = random_connection(rng)
            if i % 2:
                p = ConnectionParams(p.alpha, 0.0, p.gamma, 1.0 / p.alpha, p.theta)
            base = p.alpha * p.alpha + p.delta * p.delta + 2.0
            nonrel = 4.0 / base if p.beta == 0.0 else 0.0
            rel = 4.0 / (base + p.beta * p.beta + p.gamma * p.gamma)
            assert high_energy_asymptote(p) == (nonrel, rel)

    def test_limits_match_transmission_at_huge_energy(self):
        rng = np.random.default_rng(107)
        for _ in range(50):
            p = random_connection(rng)
            _, rel = high_energy_asymptote(p)
            assert dirac.transmission(p, 1e9, 1.0) == pytest.approx(rel, abs=1e-6)


class TestLoglogSlope:
    def test_recovers_power_law(self):
        rows = [SweepRow(x, 3.5 * x**2, "t") for x in (1e-1, 1e-2, 1e-3)]
        assert loglog_slope(rows) == pytest.approx(2.0, abs=1e-12)

    def test_needs_two_rows(self):
        with pytest.raises(ValueError):
            loglog_slope([SweepRow(1.0, 1.0, "t")])

    def test_needs_positive_values(self):
        with pytest.raises(ValueError):
            loglog_slope([SweepRow(1.0, 0.0, "t"), SweepRow(2.0, 1.0, "t")])
