"""Sweep drivers: convergence series, correspondence tables, asymptotes."""

import decimal
import fractions
import functools
import math
import re
import sys

import numpy as np
import pytest

from conftest import EPS, exact_transmission, five_factor_scale, random_connection, ulps_from
from pointscatter import analysis, connection, dirac, schrodinger
from pointscatter.analysis import (
    Sweep,
    SweepRow,
    correspondence_table,
    dirac_convergence,
    high_energy_asymptote,
    loglog_slope,
    nonrel_convergence,
)
from pointscatter.connection import ConnectionParams
from pointscatter.dirac import BarrierParams
from pointscatter.schrodinger import NonRelMedium


class TestSweepRow:
    def test_rejects_nonpositive_abscissa(self):
        with pytest.raises(ValueError):
            SweepRow(0.0, 1.0, "x")

    def test_rejects_nonfinite_value(self):
        with pytest.raises(ValueError):
            SweepRow(1.0, math.nan, "x")


# Spacings, largest first, of the sweeps recorded below the first two.
GOLDEN_A = [10.0, 3.0, 1.0, 0.5, 0.3, 0.1, 0.03, 0.01, 1e-3, 1e-4, 1e-6]

# Values the theta = 0 sweeps returned (recorded as repr of each row's float), before their
# error became one pass over a (4, n) block.  They cover both renormalization schemes and the
# s = v barrier, which takes the linear branch at a = 0.5.
RECORDED_SWEEPS = {
    "nonrel-beta-theta0": (
        lambda: nonrel_convergence(ConnectionParams(2.0, 0.5, 2.0, 1.0), 1.0, 1.5, GOLDEN_A),
        GOLDEN_A,
        [30.678848658443595, 1.7356517679531613, 3.0308539536206602, 26.890432359046056,
         22.801835053872644, 9.108924727886198, 2.820893991471941, 0.9462150668135934,
         0.09485092813565643, 0.00948726056049054, 9.487476199865341e-05],
        "schrodinger",
    ),
    "nonrel-beta0-theta0": (
        lambda: nonrel_convergence(ConnectionParams(2.0, 0.0, 1.5, 0.5), 0.5, 2.0, GOLDEN_A),
        GOLDEN_A,
        [2.7794621784189943, 1.3753807003991472, 2.9573081080546024, 3.331219851570765,
         2.6898268643547047, 0.9692824869406778, 0.2847606071296518, 0.09390979146216694,
         0.009339309858944489, 0.0009333933103334857, 9.333365596830845e-06],
        "schrodinger",
    ),
    "dirac-delta": (
        lambda: dirac_convergence(BarrierParams(0.5, 0.5), 2.0, 1.0, GOLDEN_A),
        GOLDEN_A,
        [1.7012598508952874, 1.9980752050525274, 1.769905729749893, 3.0, 2.023910644651401,
         0.6491652538698981, 0.18511911636595485, 0.060589731142185556, 0.006005989793062825,
         0.0006000599897993058, 6.0000059999898e-06],
        "dirac",
    ),
}

# theta != 0 sweeps: the sweep, its connection or barrier, and its other arguments.  Each
# records its theta = 0 twin's values, the same U (or (s, v, 0)) run here: theta is a pure
# gauge, so that relation holds on any host.  The two with GOLDEN_A at beta != 0 and beta = 0
# are the recorded theta = 0 sweeps' twins.  In each Dirac sweep the finite barrier's branch
# changes as a shrinks (the trigonometric one's twice).
THETA_SWEEPS = {
    "nonrel": (nonrel_convergence, ConnectionParams(0.5, 1e-3, -1000.0, 0.0, -2.5),
               (0.4, 3.0, [1e-2, 1e-4, 1e-6, 1e-3])),
    "nonrel-beta-theta": (nonrel_convergence, ConnectionParams(2, 0.5, 2, 1, 0.7), (1.0, 1.5, GOLDEN_A)),
    "nonrel-beta0-theta": (nonrel_convergence, ConnectionParams(2, 0, 1.5, 0.5, -1.3), (0.5, 2.0, GOLDEN_A)),
    "dirac": (dirac_convergence, BarrierParams(0.6, 0.2, -1.1), (-3.0, 0.5, [1e3, 0.4, 1e-7, 0.3999])),
    "dirac-trig": (dirac_convergence, BarrierParams(0.3, 1.2, 0.4), (2.0, 1.0, GOLDEN_A)),
    "dirac-hyperbolic": (dirac_convergence, BarrierParams(1.2, 0.3, -0.4), (-2.0, 1.0, GOLDEN_A)),
    "dirac-epsilon": (dirac_convergence, BarrierParams(-0.5, 0.5, 0.9), (2.0, 1.0, GOLDEN_A)),
}


def theta0_twin(target):
    """The same U at theta = 0, or the barrier (s, v, 0)."""
    if isinstance(target, BarrierParams):
        return BarrierParams(target.s, target.v)
    return ConnectionParams(target.alpha, target.beta, target.gamma, target.delta)


RECORDED_SWEEPS |= {
    name: (
        functools.partial(sweep, target, *rest),
        sorted(rest[-1], reverse=True),
        functools.partial(sweep, theta0_twin(target), *rest),
        "dirac" if sweep is dirac_convergence else "schrodinger",
    )
    for name, (sweep, target, rest) in THETA_SWEEPS.items()
}


def recorded(name):
    """A recorded sweep's run, x, values and label: a theta != 0 sweep's values are its twin's."""
    run, x, value, label = RECORDED_SWEEPS[name]
    return run, x, value().value.tolist() if callable(value) else value, label


class TestSweep:
    @pytest.mark.parametrize("name", sorted(RECORDED_SWEEPS))
    def test_columns_are_read_only_float64_with_the_recorded_bits(self, name):
        run, x, value, label = recorded(name)
        sweep = run()
        assert isinstance(sweep, Sweep) and sweep.label == label
        for column, want in ((sweep.x, x), (sweep.value, value)):
            assert column.dtype == np.float64 and column.shape == (len(want),)
            assert not column.flags.writeable
            assert column.tobytes() == np.array(want).tobytes()
            with pytest.raises(ValueError):
                column[0] = 1.0

    @pytest.mark.parametrize("name", sorted(RECORDED_SWEEPS))
    def test_reads_as_the_list_of_rows(self, name):
        run, x, value, label = recorded(name)
        sweep = run()
        rows = [SweepRow(*row) for row in zip(x, value, [label] * len(x))]
        assert len(sweep) == len(rows)
        assert list(sweep) == rows
        assert all(type(row) is SweepRow for row in sweep)
        assert all(type(v) is float for row in sweep for v in row[:2])
        for i in range(-len(rows), len(rows)):
            assert sweep[i] == rows[i] and type(sweep[i]) is SweepRow
        for index in (len(rows), -len(rows) - 1):
            with pytest.raises(IndexError):
                sweep[index]
        with pytest.raises(TypeError):
            sweep[1.0]
        for cut in (slice(None), slice(1, None), slice(None, -1), slice(None, None, -2), slice(9, 12)):
            assert type(sweep[cut]) is list and sweep[cut] == rows[cut]
        assert sweep[:-1] + [rows[-1]] == rows
        assert list(reversed(sweep)) == rows[::-1]
        assert rows[1] in sweep and sweep.index(rows[1]) == 1

    def test_constructor_copies_and_validates(self):
        x, value = np.array([1e-2, 1e-3]), np.array([0.5, 0.25])
        sweep = Sweep(x, value, "t")
        x[0] = value[0] = 7.0
        assert sweep.x.tolist() == [1e-2, 1e-3] and sweep.value.tolist() == [0.5, 0.25]
        assert x.flags.writeable
        assert Sweep((1, 2), [3, 4], "t").x.dtype == np.float64
        with pytest.raises(ValueError, match="abscissa must be positive"):
            Sweep([1.0, 0.0], [1.0, 1.0], "t")
        with pytest.raises(ValueError, match="abscissa must be positive"):
            Sweep([1.0, math.nan], [1.0, 1.0], "t")
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match="value must be finite"):
                Sweep([1.0, 2.0], [1.0, bad], "t")
        with pytest.raises(ValueError, match="1-d and of one length"):
            Sweep([1.0, 2.0], [1.0], "t")
        with pytest.raises(ValueError, match="1-d and of one length"):
            Sweep([[1.0, 2.0]], [[1.0, 1.0]], "t")


class TestNonrelConvergence:
    def test_rows_sorted_by_descending_spacing(self):
        p = ConnectionParams(2, 1, 1, 1, 0.3)
        sweep = nonrel_convergence(p, 1.0, 1.0, [1e-4, 1e-2, 1e-3])
        assert sweep.x.tolist() == [1e-2, 1e-3, 1e-4]
        assert sweep.label == "schrodinger"

    def test_errors_decay(self):
        p = ConnectionParams(2, 1, 1, 1, 0.3)
        values = nonrel_convergence(p, 1.0, 1.0, [1e-2, 1e-3, 1e-4]).value.tolist()
        assert values[0] > values[1] > values[2] > 0.0

    def test_two_decade_drop(self):
        # First-order decay: two decades of a buy two decades of error.
        p = ConnectionParams(1, 0, 1, 1, 0)
        values = nonrel_convergence(p, 1.0, 1.0, [1e-2, 1e-3, 1e-4]).value.tolist()
        assert values[2] < 1e-2 * values[0]

    def test_delta_potential_error_small_but_nonzero(self):
        # No renormalization happens, yet free propagation between the
        # deltas keeps the finite-a error at O(a).
        p = ConnectionParams(1, 0, 1, 1, 0)
        [value] = nonrel_convergence(p, 1.0, 1.0, [1e-3]).value.tolist()
        assert 0.0 < value < 1e-2

    def test_log_slope_near_first_order(self):
        p = ConnectionParams(2, 1, 1, 1, 0.3)
        sweep = nonrel_convergence(p, 1.0, 1.0, np.geomspace(1e-3, 1e-4, 4))
        assert loglog_slope(sweep) == pytest.approx(1.0, abs=0.25)

    def test_singular_point_converges_at_first_order(self):
        # beta = 0 with alpha + delta = -2 runs on the sign representative (1, 0, -0.7, 1, 0.3 + pi).
        sweep = nonrel_convergence(ConnectionParams(-1, 0, 0.7, -1, 0.3), 1.0, 1.3, [1e-2, 1e-5])
        assert [f"{e:.1e}" for e in sweep.value] == ["4.0e-02", "4.0e-05"]

    def test_underflowing_spacing_is_named(self):
        # 4 m^2 a^2 underflows to 0 below a of about 1e-162.  The sweep sorts
        # its spacings, so the message does not depend on their order.
        for a_list in ([1e-3, 1e-200], [1e-200, 1e-3]):
            with pytest.raises(ValueError, match="a=1e-200 is too small"):
                nonrel_convergence(ConnectionParams(2, 1, 1, 1), 1.0, 1.0, a_list)

    # A divisor that is small but not 0 makes its quotient overflow; numpy
    # would warn on the division, and pytest turns the warning into an error.
    @pytest.mark.parametrize(
        "conn, a, what",
        [
            ((1, 1e10, 0, 1), 1e-155, "beta / (4 m^2 a^2) overflows"),
            ((1e-10, 0, 0, 1e10), 2.5e-301, "max(|alpha - 1|, |delta - 1|) / (4 m a) overflows"),
        ],
        ids=["v_zero", "v_side"],
    )
    def test_overflowing_strength_names_the_spacing(self, conn, a, what):
        p = ConnectionParams(*conn)
        message = re.escape(f"half-spacing a={a!r} is too small: {what}")
        with pytest.raises(ValueError, match=message):
            nonrel_convergence(p, 1.0, 1.0, [1e-3, a])
        with pytest.raises(ValueError, match=message):
            schrodinger.renormalized_strengths(p, a, 1.0)

    def test_overflowing_v_zero_blames_no_spacing(self):
        # v0 = 4 gamma / (alpha + delta + 2) overflows at every a: the sweep named a=0.1.
        p = ConnectionParams(-1.00000003, 0, 1e300, -0.9999999700000008)
        with pytest.raises(ValueError, match="^v_zero must be finite$"):
            nonrel_convergence(p, 1.0, 1.0, [0.1, 0.01])

    def test_largest_failing_spacing_is_named(self):
        # 1e-155 and 1e-160 overflow beta/(4 m^2 a^2); 1e-200 underflows 4 m^2 a^2.
        with pytest.raises(ValueError, match=re.escape("a=1e-155 is too small: beta")):
            nonrel_convergence(
                ConnectionParams(1, 1e10, 0, 1), 1.0, 1.0, [1e-200, 1e-3, 1e-160, 1e-155]
            )

    def test_theta_over_2a_overflows_in_the_strengths_alone(self):
        # renormalized_strengths forms A = theta/2a; the sweep's kernel runs at A = 0 and
        # admits the spacing, as its theta = 0 twin does.
        p, a = ConnectionParams(1, 0, 0, 1, 0.5), 1e-310
        with pytest.raises(ValueError, match=re.escape(f"a={a!r} is too small: theta / (2 a) overflows")):
            schrodinger.renormalized_strengths(p, a, 1.0)
        twin = nonrel_convergence(ConnectionParams(1, 0, 0, 1), 1.0, 1.0, [1e-3, a])
        assert nonrel_convergence(p, 1.0, 1.0, [1e-3, a]).value.tobytes() == twin.value.tobytes()

    # Spacings at which the complex kernel's A*A overflowed (A = theta/2a at a of 1e-200,
    # and at m = 1000 a band of a about two decades below the v0 guard): the sweep runs at
    # A = 0, and admits them as its theta = 0 twin does.
    @pytest.mark.parametrize(
        "conn, m, a",
        [((2, 0, 1.3, 0.5, 0.3), 1.0, 1e-200), ((2, 1, 1, 1, 0.3), 1000.0, 1e-157)],
        ids=["beta_zero", "heavy"],
    )
    def test_spacings_where_A_squared_overflowed_are_admitted(self, conn, m, a):
        sweep = nonrel_convergence(ConnectionParams(*conn), m, 1.0, [1e-3, a])
        twin = nonrel_convergence(ConnectionParams(*conn[:4]), m, 1.0, [1e-3, a])
        assert np.isfinite(sweep.value).all() and sweep.value.tobytes() == twin.value.tobytes()

    # Finite strengths (v0 = beta/4m^2a^2 is 0 where 4m^2a^2 overflows) at a spacing where
    # k a = 3.2e308 overflows: the real kernel's hops are not finite, at every theta.
    @pytest.mark.parametrize("theta", [0.0, 0.3], ids=["theta0", "theta"])
    def test_overflowing_kernel_names_the_spacing(self, theta):
        a = 3.1622776601683794e+305
        message = re.escape(f"half-spacing a={a!r} is out of range: the three-delta products")
        with pytest.raises(ValueError, match=message):
            nonrel_convergence(ConnectionParams(2, 1e10, 1e-10, 1, theta), 1e-3, 1e3, [1e-3, a])

    @pytest.mark.parametrize("beta", [1e10, 1.0, 1e-3, 0.0])
    @pytest.mark.parametrize("theta", [0.0, 0.3])
    @pytest.mark.parametrize("m", [1e-3, 1.0, 1e3])
    def test_tiny_spacings_are_rejected_or_finite(self, beta, theta, m):
        # No spacing down to the subnormals or up to 1e307 leaks a numpy
        # warning, which pytest would raise: each is either rejected or
        # gives a finite error.
        if beta:
            p = ConnectionParams(2, beta, 1 / beta, 1, theta)
        else:
            p = ConnectionParams(2, 0, 1.3, 0.5, theta)
        tiny, large = np.arange(-320.0, -99.0, 0.5), np.arange(100.0, 307.6, 0.5)
        for a in 10.0 ** np.concatenate((tiny, large)):
            try:
                value = nonrel_convergence(p, m, 1.0, [a]).value
            except ValueError:
                continue
            assert np.isfinite(value).all()

    @pytest.mark.parametrize(
        "conn, name",
        [((1e-10, 1e-300, 0, 1e10), "v_plus"), ((1e10, 1e-300, 0, 1e-10), "v_minus")],
    )
    def test_tiny_beta_names_the_infinite_strength(self, conn, name):
        # (delta + 1)/beta or (alpha + 1)/beta overflows at every spacing.
        p = ConnectionParams(*conn)
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            nonrel_convergence(p, 1.0, 1.0, [1e-3])
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            schrodinger.renormalized_strengths(p, 1e-3, 1.0)


def single_outcomes(sweep, a_list):
    """Each spacing's own outcome: its error alone, or the message it is rejected with."""
    outcomes = {}
    for a in a_list:
        try:
            outcomes[a] = sweep([a]).value[0]
        except ValueError as exc:
            outcomes[a] = str(exc)
    return outcomes


def assert_column_outcome_is_each_spacings_own(sweep, a_list):
    """The column fails iff a spacing fails alone, with the message of the
    largest spacing that fails alone for that reason; the spacings that pass
    alone give the same bits as one column."""
    outcomes = single_outcomes(sweep, a_list)
    reasons = {a: re.sub(r"a=\S+ ", "", v) for a, v in outcomes.items() if isinstance(v, str)}
    if reasons:
        with pytest.raises(ValueError) as info:
            sweep(a_list)
        reason = re.sub(r"a=\S+ ", "", str(info.value))
        assert str(info.value) == outcomes[max(a for a in reasons if reasons[a] == reason)]
    accepted = sorted((a for a, v in outcomes.items() if not isinstance(v, str)), reverse=True)
    if accepted:
        assert np.array_equal(sweep(accepted).value, [outcomes[a] for a in accepted])


# (connection, m, k) of the seeded columns below: both schemes, with and
# without a phase, at light and heavy masses.
COLUMN_MODELS = [
    ((2.0, 1.0, 1.0, 1.0, 0.3), 1.0, 1.0),
    ((2.0, 1e-3, 1000.0, 1.0, 0.0), 1.0, 1000.0),
    ((0.5, 1e-3, -1000.0, 0.0, -2.5), 1e3, 1e-3),
    ((2.0, 0.0, 1.3, 0.5, 0.0), 1e-3, 1.0),
    ((-0.4, 0.0, 0.7, -2.5, 1.9), 1e3, 1e3),
    ((2.0, 1e10, 1e-10, 1.0, 0.3), 1.0, 1e3),
]


@pytest.mark.filterwarnings("error")
class TestColumnOutcome:
    """Whether a spacing is accepted, and its error, do not depend on the rest of its column."""

    def test_large_spacing_alone_and_beside_a_small_one(self):
        # 10**149.5 at k = 1000 is in range both ways: a check that reads
        # only the column's smallest spacing would decide it by its neighbour.
        p = ConnectionParams(2, 1e-3, 1000, 1, 0)
        alone = nonrel_convergence(p, 1.0, 1000.0, [10**149.5]).value
        both = nonrel_convergence(p, 1.0, 1000.0, [10**149.5, 1e-3]).value
        assert np.isfinite(both).all() and alone[0] == both[0]

    @pytest.mark.parametrize("seed", range(6))
    def test_seeded_nonrel_columns(self, seed):
        rng = np.random.default_rng(seed)
        conn, m, k = COLUMN_MODELS[seed]
        p = ConnectionParams(*conn)
        a_list = (10.0 ** rng.uniform(-330.0, 308.0, size=8)).tolist()
        assert_column_outcome_is_each_spacings_own(
            lambda a: nonrel_convergence(p, m, k, a), a_list
        )

    @pytest.mark.parametrize("seed", range(3))
    def test_seeded_dirac_columns(self, seed):
        rng = np.random.default_rng(seed)
        b = BarrierParams(rng.uniform(-1.0, 1.0), rng.choice([-1.0, 1.0]) * rng.uniform(50, 300))
        # Near E - m = 1e-3, a large |v| puts half-widths of 1e4 and more on
        # the hyperbolic branch with a cosh that overflows.
        a_list = (10.0 ** rng.uniform(-8.0, 6.0, size=8)).tolist()
        assert_column_outcome_is_each_spacings_own(
            lambda a: dirac_convergence(b, 1.001, 1.0, a), a_list
        )


class TestDiracConvergence:
    def test_zero_barrier_error_vanishes_with_width(self):
        sweep = dirac_convergence(BarrierParams(0, 0, 0), 2.0, 1.0, [1e-2, 1e-3, 1e-4])
        values = sweep.value.tolist()
        assert values[0] > values[1] > values[2]
        assert values[2] < 1e-3
        assert sweep.label == "dirac"

    @pytest.mark.parametrize("svt", [(1.0, 1.0, 0.0), (2.0, 0.0, 0.0)])
    def test_decaying_sequences(self, svt):
        values = dirac_convergence(BarrierParams(*svt), 2.0, 1.0, [1e-2, 1e-3, 1e-4]).value.tolist()
        assert values[0] > values[1] > values[2]

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("s, v", [(1000.0, 0.0), (0.0, -1e308), (1e308, 1e308)])
    def test_overflowing_limit_names_s_and_v(self, s, v):
        # cosh sqrt|s^2 - v^2| overflows beyond about 710, and 2s overflows
        # on the s = v boundary: the error names the barrier, not a sweep value.
        with pytest.raises(ValueError, match=re.escape(f"s={s!r}, v={v!r}")):
            dirac_convergence(BarrierParams(s, v), 2.0, 1.0, [1e-2, 1e-3, 1e-4])

    @pytest.mark.filterwarnings("error")
    def test_overflowing_width_is_named(self):
        # The limit is finite, but at this half-width the finite barrier's
        # cosh overflows; the narrower widths around it are fine alone.
        b = BarrierParams(-0.03249090995812371, 183.62771374892313)
        E, m = 1.1503661775380474, 1.1499948238031545
        message = re.escape("half-spacing a=21917.61871521 is out of range")
        with pytest.raises(ValueError, match=message):
            dirac_convergence(b, E, m, [1.0, 21917.61871521, 1e-3])
        assert np.isfinite(dirac_convergence(b, E, m, [1.0, 1e-3]).value).all()
        # Of several such half-widths, the largest is named.
        with pytest.raises(ValueError, match=re.escape("a=40000.0 is out of range")):
            dirac_convergence(b, E, m, [1.0, 21917.61871521, 4e4, 1e-3])


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
        sweep = nonrel_convergence(p, m, k, a_list)
        assert sweep.x.tolist() == sorted(a_list.tolist(), reverse=True)
        for a, value in zip(sweep.x.tolist(), sweep.value.tolist()):
            cfg = schrodinger.renormalized_strengths(p, a, m)
            M = schrodinger.three_delta_transfer(cfg, NonRelMedium(m, k, cfg.A))
            scalar_err = float(np.max(np.abs(M - connection.as_matrix(p))))
            scale = five_factor_scale(cfg.v_plus, cfg.v_zero, cfg.v_minus, a, cfg.A, m, k)
            assert abs(value - scalar_err) <= 2 * 64 * EPS * scale

    @pytest.mark.parametrize("svt", SWEEP_BARRIERS)
    @pytest.mark.parametrize("E, m", [(2.0, 1.0), (-3.0, 0.5)])
    def test_dirac_rows(self, svt, E, m):
        b = BarrierParams(*svt)
        sweep = dirac_convergence(b, E, m, SWEEP_A)
        assert sweep.x.tolist() == sorted(SWEEP_A.tolist(), reverse=True)
        target = dirac.barrier_limit(b)
        for a, value in zip(sweep.x.tolist(), sweep.value.tolist()):
            M = dirac.finite_barrier_transfer(b, a, E, m)
            scalar_err = float(np.max(np.abs(M - target)))
            med = dirac.DiracMedium(m, E, b.s / (2 * a), b.v / (2 * a))
            wx = med.k * 2 * a
            scale = (1.0 + wx) * float(np.max(np.abs(M)))
            assert abs(value - scalar_err) <= 2 * 64 * EPS * scale

    def test_crossing_sweep_covers_both_branches(self):
        b = BarrierParams(*SWEEP_BARRIERS[-1])
        signs = set()
        for a in SWEEP_A:
            med = dirac.DiracMedium(1.0, 2.0, b.s / (2 * a), b.v / (2 * a))
            signs.add(np.sign(med.k_plus * med.k_minus))
        assert {1.0, -1.0} <= signs


class TestGaugedSweepIsNearExact:
    """Each row of the theta != 0 sweeps against the 50-digit error of the model with A = theta/2a.

    The sweeps run their model at A = 0 against a real target.  The model at A is e^{2iAa}
    = e^{i theta} times that (the barrier's: e^{iAx} over x = 2a) and its target e^{i theta}
    times the real one, so the exact errors are equal, and the bound holds the gauged
    evaluation's rounding alone.  Its entries are within 64 eps times the modulus scale of
    the exact product (TestSweepMatchesScalarRoute): the real factors' modulus product for
    the three-delta model, and (1 + |w x|) max|M| for the barrier.  The three-delta target U
    is exact; the barrier's limit L, cos/cosh and sin/sinh of p = sqrt|p_plus p_minus|, adds
    64 eps (1 + p) max|L|.  The difference and the modulus round by eps times the error, at
    most eps (max|M| + max|U|), so the three-delta bound adds 64 eps max|U|.
    """

    @staticmethod
    def exact_error(sweep, target, rest, a):
        """The 50-digit max_ij |M(a) - target matrix|_ij, A exactly theta/2a, and the float bound."""
        mp = pytest.importorskip("mpmath")
        with mp.workdps(50):
            def exp_traceless(x, k_plus, k_minus):  # exp(x [[0, k_plus], [-k_minus, 0]])
                w = mp.sqrt(k_plus * k_minus)
                c, s = mp.cos(w * x), mp.sin(w * x) / w if w else x
                return mp.matrix([[c, k_plus * s], [-k_minus * s, c]])

            if sweep is dirac_convergence:
                (E, m, _), b = rest, target
                x = 2 * mp.mpf(a)
                S, V, A = mp.mpf(b.s) / x, mp.mpf(b.v) / x, mp.mpf(b.theta) / x
                M = mp.expj(A * x) * exp_traceless(x, m + E + S - V, E - m - S - V)
                L = mp.expj(b.theta) * exp_traceless(1, mp.mpf(b.s) - b.v, -mp.mpf(b.s) - b.v)
                Mf = dirac.finite_barrier_transfer(b, a, E, m)
                wx = dirac.DiracMedium(m, E, b.s / (2 * a), b.v / (2 * a)).k * 2 * a
                scale = (1 + wx) * float(np.max(np.abs(Mf))) + (1 + b.p) * float(np.max(np.abs(L.tolist())))
            else:
                (m, k, _), p = rest, target
                v_plus, v_zero, v_minus, q = schrodinger._strengths(p, a, m)
                a_, A, m_, k_ = mp.mpf(a), mp.mpf(q.theta) / (2 * mp.mpf(a)), mp.mpf(m), mp.mpf(k)
                c, s = mp.cos(k_ * a_), mp.sin(k_ * a_) / k_
                hop = mp.expj(A * a_) * mp.matrix(
                    [[c - 1j * A * s, 2 * m_ * s], [(A * A - k_ * k_) / (2 * m_) * s, c + 1j * A * s]])
                edge = 1j * A / (2 * m_)
                M = (mp.matrix([[1, 0], [v_plus - edge, 1]]) * hop * mp.matrix([[1, 0], [v_zero, 1]]) * hop
                     * mp.matrix([[1, 0], [v_minus + edge, 1]]))
                L = mp.expj(p.theta) * mp.matrix([[p.alpha, p.beta], [p.gamma, p.delta]])
                u = max(abs(p.alpha), abs(p.beta), abs(p.gamma), abs(p.delta))
                scale = five_factor_scale(v_plus, v_zero, v_minus, a, 0.0, m, k) + u
            return max(abs(M[i, j] - L[i, j]) for i in range(2) for j in range(2)), 64 * EPS * scale

    @pytest.mark.parametrize("name", sorted(THETA_SWEEPS))
    def test_rows_are_within_the_derived_bound(self, name):
        sweep, target, rest = THETA_SWEEPS[name]
        got = sweep(target, *rest)
        for a, value in zip(got.x.tolist(), got.value.tolist()):
            exact, bound = self.exact_error(sweep, target, rest, a)
            assert abs(value - exact) <= bound


@pytest.mark.filterwarnings("error")
class TestSweepInputContract:
    """Bad spacings are rejected before any evaluation, without a warning."""

    SWEEPS = {
        "nonrel": lambda a_list: nonrel_convergence(
            ConnectionParams(2, 1, 1, 1, 0.3), 1.0, 1.0, a_list
        ),
        "dirac": lambda a_list: dirac_convergence(BarrierParams(1.0, 0.5, 0.2), 2.0, 1.0, a_list),
        # theta = 0: both run in float64, the Dirac kernel on one branch per single-branch column.
        "nonrel-theta0": lambda a_list: nonrel_convergence(ConnectionParams(2, 1, 1, 1), 1.0, 1.0, a_list),
        "dirac-theta0": lambda a_list: dirac_convergence(BarrierParams(1.0, 0.5), 2.0, 1.0, a_list),
    }

    @pytest.mark.parametrize("sweep", sorted(SWEEPS))
    def test_empty_sweep_has_no_rows(self, sweep):
        empty = self.SWEEPS[sweep]([])
        assert isinstance(empty, Sweep) and list(empty) == [] and empty[:] == []
        assert empty.x.shape == empty.value.shape == (0,)
        assert empty.x.dtype == empty.value.dtype == np.float64

    @pytest.mark.parametrize("sweep", sorted(SWEEPS))
    @pytest.mark.parametrize(
        "a_list", [[math.nan], [math.inf], [0.0], [-1e-3], [1e-3, math.nan]],
        ids=["nan", "inf", "zero", "negative", "trailing-nan"],
    )
    def test_rejects_bad_spacing(self, sweep, a_list):
        with pytest.raises(ValueError):
            self.SWEEPS[sweep](a_list)


def float_loop(values):
    """The spacings' former conversion: each value through float()."""
    return np.array([float(v) for v in values], dtype=float)


# Factories, so that a generator is fresh for each conversion.
COLUMN_ACCEPTS = {
    "tuple": lambda: (1e-3, 2, 3.5),
    "list": lambda: [1e-2, 1e-3, 1e-4],
    "generator": lambda: (10.0**-e for e in range(5)),
    "ndarray": lambda: np.geomspace(1e-6, 1e-2, 7),
    "float32-ndarray": lambda: np.array([0.1, 1e-3], dtype=np.float32),
    "int-ndarray": lambda: np.array([1, 2]),
    "numeric-strings": lambda: ["1.5", " 2 ", "1e-3", "inf", "-0", "nan"],
    "bytes": lambda: [b"0.25"],
    "empty-list": lambda: [],
    "empty-tuple": lambda: (),
    "range": lambda: range(1, 4),
    "bool-decimal-fraction": lambda: [True, decimal.Decimal("0.1"), fractions.Fraction(1, 3)],
}
# Rejected both ways, with the same exception type.
COLUMN_REJECTS = {
    "word": (lambda: ["1e-3", "abc"], ValueError),
    "huge-int": (lambda: [10**400], OverflowError),
    "complex": (lambda: [1e-3, 1j], TypeError),
    "real-complex": (lambda: [1 + 0j], TypeError),
    "0-d-ndarray": (lambda: np.array(1e-3), TypeError),
    "not-iterable": (lambda: None, TypeError),
}
# Rejected both ways, but np.fromiter raises ValueError where float() raised
# TypeError (nested values), or makes NaN of None, which the sweeps reject
# with ValueError.  A ValueError is what the CLI maps to exit code 2.
COLUMN_TYPE_CHANGES = {
    "None": lambda: [1e-3, None],
    "nested-list": lambda: [[1e-3]],
    "2-d-ndarray": lambda: np.array([[1e-3, 1e-4]]),
}


class TestColumnConversion:
    """The sweeps' conversion np.fromiter(values, float) against the per-value float() loop it replaced."""

    @pytest.mark.parametrize("name", sorted(COLUMN_ACCEPTS))
    def test_accepts_the_same_values_as_the_same_floats(self, name):
        values = COLUMN_ACCEPTS[name]
        got, want = np.fromiter(values(), float), float_loop(values())
        assert got.dtype == want.dtype == np.float64 and got.shape == want.shape
        assert got.tobytes() == want.tobytes()
        # The spacings are that column, largest first, wherever each is positive and finite.
        if ((want > 0.0) & (want < math.inf)).all():
            assert analysis._spacings(values()).tobytes() == np.sort(want)[::-1].tobytes()
        else:
            with pytest.raises(ValueError, match="spacings must be positive and finite"):
                analysis._spacings(values())

    @pytest.mark.parametrize("name", sorted(COLUMN_REJECTS))
    def test_rejects_the_same_values_with_the_same_error(self, name):
        values, error = COLUMN_REJECTS[name]
        with pytest.raises(error):
            float_loop(values())
        with pytest.raises(error):
            analysis._spacings(values())
        with pytest.raises(error):
            correspondence_table(ConnectionParams(2, 1, 1, 1), 1.0, values())

    @pytest.mark.parametrize("name", sorted(COLUMN_TYPE_CHANGES))
    def test_formerly_type_errors_are_value_errors_now(self, name):
        values = COLUMN_TYPE_CHANGES[name]
        with pytest.raises(TypeError):
            float_loop(values())
        p = ConnectionParams(2, 1, 1, 1)
        calls = [
            lambda v: nonrel_convergence(p, 1.0, 1.0, v),
            lambda v: dirac_convergence(BarrierParams(1.0, 0.5), 2.0, 1.0, v),
            lambda v: correspondence_table(p, 1.0, v),
        ]
        for call in calls:
            with pytest.raises(ValueError):
                call(values())

    @pytest.mark.parametrize("framework", ["schrodinger", "dirac"])
    @pytest.mark.parametrize("name", ["nested-list", "2-d-ndarray"])
    def test_nested_spacings_are_named(self, framework, name):
        values = COLUMN_TYPE_CHANGES[name]
        sweep = {
            "schrodinger": lambda v: nonrel_convergence(ConnectionParams(2, 1, 1, 1), 1.0, 1.0, v),
            "dirac": lambda v: dirac_convergence(BarrierParams(1.0, 0.5), 2.0, 1.0, v),
        }[framework]
        with pytest.raises(ValueError, match="^spacings must be a flat sequence of numbers: "):
            sweep(values())

    def test_none_becomes_nan(self):
        assert np.isnan(np.fromiter([None], float)).tolist() == [True]


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

    def test_no_energies_give_an_empty_table(self):
        assert correspondence_table(ConnectionParams(1, 0, 1, 1), 1.0, []).shape == (0, 4)

    def test_rejects_nonpositive_kinetic_energy(self):
        with pytest.raises(ValueError):
            correspondence_table(ConnectionParams(1, 0, 0, 1, 0), 1.0, [0.0])

    @pytest.mark.parametrize("m, eps", [(1.0, 1e-20), (1e10, 1e-7)])
    def test_rejects_kinetic_energy_below_mass_resolution(self, m, eps):
        # m + eps == m: the Dirac energy would equal the mass, and the error
        # must name eps, not the energy the caller never passed.
        with pytest.raises(ValueError, match="below the resolution of the mass"):
            correspondence_table(ConnectionParams(1, 0, 0, 1, 0), m, [1.0, eps])

    def test_rejects_infinite_mass(self):
        # m + eps == m for every eps, yet the fault is the mass, as schrodinger.rho says.
        with pytest.raises(ValueError, match="^mass must be finite$"):
            correspondence_table(ConnectionParams(1, 0, 0, 1, 0), math.inf, [1.0, 2.0])

    # m + eps overflows: rho2 raised "energy must be finite and above the mass", naming an
    # energy the caller never passed, after numpy warned on the addition.
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("m, eps", [(1e308, sys.float_info.max), (1.0, math.inf)])
    def test_rejects_kinetic_energy_whose_sum_with_the_mass_overflows(self, m, eps):
        message = re.escape(f"kinetic energy {eps!r} plus the mass {m!r} exceeds the float range")
        with pytest.raises(ValueError, match=message):
            correspondence_table(ConnectionParams(1, 0.5, 0, 1), m, [1e300, eps])

    # -inf + inf is NaN, on which numpy warned.
    @pytest.mark.filterwarnings("error")
    def test_minus_infinite_mass_is_named(self):
        with pytest.raises(ValueError, match="mass must be positive"):
            correspondence_table(ConnectionParams(1, 0, 0, 1, 0), -math.inf, [1.0, math.inf])

    def test_negative_mass_is_named_before_resolution(self):
        with pytest.raises(ValueError, match="mass must be positive"):
            correspondence_table(ConnectionParams(1, 0, 0, 1, 0), -1.0, [1e-20])

    # 2 m eps is subnormal, 0, infinite, and infinite through 2m: sqrt(2 m eps) lost rho^2 =
    # eps/2m to 1.2e-6, raised "wave number must be positive", gave 0 with a numpy warning, and
    # raised "rho2 must be non-negative, got nan".
    @pytest.mark.parametrize("m, eps", [(1e-160, 1e-160), (1e-300, 1e-300), (1.0, 1e308), (1e308, 1e307)],
                             ids=["subnormal", "zero", "infinite", "two-m-infinite"])
    def test_schrodinger_column_where_two_m_eps_is_not_normal(self, m, eps):
        p = ConnectionParams(1, 1, 0, 1)
        [(_, t_s, _, _)] = correspondence_table(p, m, [eps])
        rho2 = fractions.Fraction(eps) / (2 * fractions.Fraction(m))
        assert ulps_from(t_s, exact_transmission(p, rho2)) <= 4

    def test_schrodinger_column_where_eps_over_two_m_overflows(self):
        # 2 m eps is subnormal and eps/2m beyond the float range: T_s read 0, the rho^2 = inf
        # limit, for T_s near 1 at beta = 1e-200.  At beta = 1 the exact T_s, 8e-310, is below
        # 4/DBL_MAX, the least nonzero value of 4/bracket, and the column reads 0.
        rho2 = fractions.Fraction(1e-5) / (2 * fractions.Fraction(1e-315))
        p = ConnectionParams(1, 1e-200, 0, 1)
        [(_, t_s, _, _)] = correspondence_table(p, 1e-315, [1e-5])
        assert ulps_from(t_s, exact_transmission(p, rho2)) <= 4
        p = ConnectionParams(1, 1, 0, 1)
        [(_, t_s, t_d, _)] = correspondence_table(p, 1e-315, [1e-5])
        assert (t_s, t_d) == (0.0, 0.8)
        assert exact_transmission(p, rho2) < sys.float_info.min

    # (k/2m)^2 is not a normal double, though 2 m eps is: T_s read 0 for 8.9e-308 and for 1.
    @pytest.mark.parametrize("p, m, eps", [(ConnectionParams(1, 0.5, 0, 1), sys.float_info.min, 8.0),
                                           (ConnectionParams(1, 1e-200, 0, 1), 1e-300, 2e10)],
                             ids=["dbl-min-mass", "tiny-beta"])
    def test_schrodinger_column_where_rho_squared_is_not_normal(self, p, m, eps):
        [(_, t_s, _, _)] = correspondence_table(p, m, [eps])
        rho2 = fractions.Fraction(eps) / (2 * fractions.Fraction(m))
        assert ulps_from(t_s, exact_transmission(p, rho2)) <= 4


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
        x = np.array([1e-1, 1e-2, 1e-3])
        assert loglog_slope(Sweep(x, 3.5 * x**2, "t")) == pytest.approx(2.0, abs=1e-12)

    def test_needs_two_rows(self):
        with pytest.raises(ValueError):
            loglog_slope(Sweep([1.0], [1.0], "t"))

    def test_needs_two_distinct_abscissae(self):
        # A sweep may repeat a spacing; polyfit then fit a slope through one point, with a warning.
        sweep = nonrel_convergence(ConnectionParams(2, 1, 1, 1), 1.0, 1.0, [1e-3, 1e-3])
        with pytest.raises(ValueError, match="two distinct abscissae"):
            loglog_slope(sweep)
        with pytest.raises(ValueError, match="two distinct abscissae"):  # distinct x, one log x
            loglog_slope(Sweep([1e300, math.nextafter(1e300, math.inf)], [1.0, 2.0], "t"))

    def test_needs_positive_values(self):
        with pytest.raises(ValueError):
            loglog_slope(Sweep([1.0, 2.0], [0.0, 1.0], "t"))
