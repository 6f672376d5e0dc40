"""Connection matrices: construction, decomposition, conservation, scattering."""

import math

import numpy as np
import pytest

from conftest import EPS, random_connection
from pointscatter import connection, dirac, schrodinger
from pointscatter.connection import (
    ConnectionParams,
    ModePair,
    NotConnectionForm,
    ScatteringResult,
    SingularProjection,
    as_matrix,
    conserves_current,
    decompose,
    delta_connection,
    epsilon_connection,
    modes,
    scatter,
    transmission,
    wrap_angle,
)
from pointscatter.schrodinger import NonRelMedium


def band_edge(d):
    """Entries whose computed det is exactly d: alpha delta = 2^45, beta gamma = 2^45 - d.

    d must be a multiple of 2^-8, the spacing of the floats below 2^45.  The
    band is 9u (2^46 - d), just under 18/256, so 1 ± 17/256 lies inside it
    and 1 ± 18/256, one det step further, outside.
    """
    return 2.0**23, 2.0**22, 2.0**23 - d * 2.0**-22, 2.0**22


class TestConnectionParams:
    def test_rejects_non_unimodular(self):
        for entries in [
            (2.0, 0.0, 0.0, 1.0),
            (1.0 + 1.1e-12, 0.0, 0.0, 1.0),  # just outside the 1e-12 floor, on both sides
            (1.0 - 1.1e-12, 0.0, 0.0, 1.0),
            band_edge(1.0 + 18 / 256),  # just outside the rounding band, on both sides
            band_edge(1.0 - 18 / 256),
            (math.inf, 0.0, 0.0, 1.0),  # det inf: an infinite band must not admit it
            (1e200, 0.0, 0.0, 1e200),  # det overflows to inf
            (1e8, 1e8, 1e8, 1e8),  # computed det 0, inside the band but not positive
        ]:
            with pytest.raises(ValueError, match="not 1"):
                ConnectionParams(*entries)

    def test_accepts_tiny_det_slack(self):
        for entries in [
            (1.0 + 5e-13, 0.0, 0.0, 1.0),
            (1.0 + 0.9e-12, 0.0, 0.0, 1.0),  # just inside the 1e-12 floor, on both sides
            (1.0 - 0.9e-12, 0.0, 0.0, 1.0),
            band_edge(1.0 + 17 / 256),  # just inside the rounding band, on both sides
            band_edge(1.0 - 17 / 256),
        ]:
            p = ConnectionParams(*entries)
            assert [p.alpha, p.beta, p.gamma, p.delta] == list(entries)

    def test_theta_normalised_into_half_open_interval(self):
        assert ConnectionParams(1, 0, 0, 1, 3.0 * math.pi).theta == pytest.approx(math.pi)
        assert ConnectionParams(1, 0, 0, 1, -math.pi).theta == pytest.approx(math.pi)
        assert ConnectionParams(1, 0, 0, 1, -0.5).theta == pytest.approx(-0.5)
        p = ConnectionParams(1, 0, 0, 1, 2.0 * math.pi + 0.25)
        assert p.theta == pytest.approx(0.25)

    @pytest.mark.parametrize("theta", [math.inf, -math.inf, math.nan])
    def test_rejects_nonfinite_theta(self, theta):
        # inf % 2pi is NaN, which no angle in (-pi, pi] is.
        with pytest.raises(ValueError, match="theta must be finite"):
            ConnectionParams(1, 0, 0, 1, theta)

    def test_wrap_angle_boundaries(self):
        assert wrap_angle(math.pi) == pytest.approx(math.pi)
        assert wrap_angle(-math.pi) == pytest.approx(math.pi)
        assert wrap_angle(0.0) == 0.0


# Every value type with the fields its policy requires finite, from valid
# integral arguments: all fields are stored as float (complex for
# ScatteringResult), and a NaN or infinite finite field is rejected by name.
VALUE_TYPES = [
    (ConnectionParams, dict(alpha=2, beta=1, gamma=1, delta=1, theta=1), ("theta",)),
    (NonRelMedium, dict(m=1, k=2, A=3), ("A",)),
    (schrodinger.DeltaTriple, dict(v_plus=1, v_zero=2, v_minus=3, a=1, A=1),
     ("v_plus", "v_zero", "v_minus", "a", "A")),
    (dirac.DiracMedium, dict(m=1, E=3, S=1, V=2, A=1), ("S", "V", "A")),
    (dirac.BarrierParams, dict(s=1, v=2, theta=3), ("s", "v", "theta")),
]


class TestFieldPolicy:
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize("cls, kwargs, name", [
        pytest.param(cls, kwargs, name, id=f"{cls.__name__}.{name}")
        for cls, kwargs, finite in VALUE_TYPES for name in finite
    ])
    def test_rejects_nonfinite_field_by_name(self, cls, kwargs, name, bad):
        with pytest.raises(ValueError, match=f"^{name} must be finite$"):
            cls(**{**kwargs, name: bad})

    @pytest.mark.parametrize("convert", [int, np.float64], ids=["int", "float64"])
    @pytest.mark.parametrize("cls, kwargs", [
        pytest.param(cls, kwargs, id=cls.__name__) for cls, kwargs, _ in VALUE_TYPES
    ])
    def test_fields_are_plain_floats(self, cls, kwargs, convert):
        value = cls(**{name: convert(v) for name, v in kwargs.items()})
        assert all(type(getattr(value, name)) is float for name in kwargs)

    @pytest.mark.parametrize("convert", [int, np.float64], ids=["int", "float64"])
    def test_amplitudes_are_plain_complex(self, convert):
        result = ScatteringResult(convert(1), convert(0))
        assert type(result.t_amp) is complex and type(result.r_amp) is complex


class TestAsMatrix:
    def test_identity(self):
        p = ConnectionParams(1, 0, 0, 1, 0)
        assert np.array_equal(as_matrix(p), np.eye(2, dtype=complex))

    def test_delta_structure(self):
        p = ConnectionParams(1, 0, 2, 1, 0)
        assert np.array_equal(as_matrix(p), np.array([[1, 0], [2, 1]], dtype=complex))

    def test_pure_phase(self):
        p = ConnectionParams(1, 0, 0, 1, math.pi / 2)
        assert np.allclose(as_matrix(p), 1j * np.eye(2), atol=1e-15)


class TestElementaryConnections:
    def test_delta_zero_strength_is_identity(self):
        assert np.array_equal(delta_connection(0.0), np.eye(2, dtype=complex))

    def test_delta_entries(self):
        assert np.array_equal(delta_connection(2.0), np.array([[1, 0], [2, 1]], dtype=complex))

    @pytest.mark.parametrize("a,b", [(0.5, 1.5), (-3.0, 2.0), (4.0, 4.0)])
    def test_delta_strengths_add_under_composition(self, a, b):
        assert np.allclose(
            delta_connection(a) @ delta_connection(b), delta_connection(a + b), atol=1e-15
        )

    def test_epsilon_entries(self):
        assert np.array_equal(epsilon_connection(2.0), np.array([[1, 2], [0, 1]], dtype=complex))

    def test_epsilon_is_delta_transpose(self):
        assert np.array_equal(delta_connection(1.7).T, epsilon_connection(1.7))


class TestConservesCurrent:
    def test_identity(self):
        assert conserves_current(np.eye(2, dtype=complex), 1e-12)

    @pytest.mark.parametrize("v", [-7.0, 0.0, 0.3, 5.0])
    def test_delta_connection_conserves(self, v):
        assert conserves_current(delta_connection(v), 1e-14)

    def test_non_unimodular_fails(self):
        assert not conserves_current(np.array([[2, 0], [0, 1]], dtype=complex), 1e-6)

    def test_every_connection_matrix_conserves(self):
        rng = np.random.default_rng(7)
        for _ in range(300):
            assert conserves_current(as_matrix(random_connection(rng)), 1e-10)

    def test_residual_beyond_the_float_range_does_not_conserve(self):
        # Finite entries whose residual b conj(c) - conj(a) d + 1 has a modulus past DBL_MAX.
        M = np.array([[0, 1.2e154], [1.2e154 + 1.2e154j, 0]])
        assert conserves_current(M, 1e-8) is False

    @pytest.mark.parametrize("tol", [0.0, -1.0, math.nan])
    def test_rejects_bad_tolerance(self, tol):
        with pytest.raises(ValueError, match="tol"):
            conserves_current(np.eye(2, dtype=complex), tol)


class TestDecompose:
    def test_identity(self):
        p = decompose(np.eye(2, dtype=complex))
        assert (p.alpha, p.beta, p.gamma, p.delta, p.theta) == (1, 0, 0, 1, 0)

    def test_phased_delta(self):
        M = np.exp(0.3j) * np.array([[1, 0], [2, 1]], dtype=complex)
        p = decompose(M)
        assert p.theta == pytest.approx(0.3, abs=1e-12)
        assert (p.alpha, p.beta, p.delta) == pytest.approx((1, 0, 1), abs=1e-12)
        assert p.gamma == pytest.approx(2, abs=1e-12)

    def test_sign_rule_lands_on_theta_pi(self):
        # [[0, -1], [1, 0]] = e^{i pi} [[0, 1], [-1, 0]]: the first nonzero
        # entry of U must be positive, which forces the theta = pi branch.
        p = decompose(np.array([[0, -1], [1, 0]], dtype=complex))
        assert (p.alpha, p.beta, p.gamma, p.delta) == pytest.approx((0, 1, -1, 0), abs=1e-12)
        assert p.theta == pytest.approx(math.pi)

    def test_round_trip_canonical(self):
        rng = np.random.default_rng(11)
        for _ in range(1000):
            p = random_connection(rng)
            M = as_matrix(p)
            q = decompose(M)
            # Matrix-level round trip is normalization independent.
            assert np.max(np.abs(as_matrix(q) - M)) < 1e-12
            # Canonical branch: first nonzero entry positive, theta in (-pi, pi].
            entries = [q.alpha, q.beta, q.gamma, q.delta]
            lead = next(e for e in entries if abs(e) > 1e-8)
            assert lead > 0.0
            assert -math.pi < q.theta <= math.pi

    def test_rejects_unphaseable_matrix(self):
        with pytest.raises(NotConnectionForm):
            decompose(np.array([[1, 1j], [0, 1]], dtype=complex))

    def test_rejects_wrong_determinant(self):
        with pytest.raises(NotConnectionForm):
            decompose(np.exp(0.2j) * np.array([[2, 0], [0, 1]], dtype=complex))

    def test_rejects_zero_matrix(self):
        with pytest.raises(NotConnectionForm):
            decompose(np.zeros((2, 2), dtype=complex))

    def test_rejects_entry_whose_modulus_is_beyond_the_float_range(self):
        with pytest.raises(NotConnectionForm, match="^matrix is zero or non-finite$"):
            decompose(np.array([[1.7e308 + 1.7e308j, 0], [0, 1]]))


class TestModePair:
    def test_rejects_non_biorthogonal(self):
        e1 = np.array([1.0, 0.0])
        e2 = np.array([0.0, 1.0])
        with pytest.raises(ValueError, match="bi-orthogonal"):
            ModePair(e1, e2, e2, e1)

    def test_rejects_bad_shape(self):
        v = np.array([1.0, 0.0, 0.0])
        with pytest.raises(ValueError, match="2-component"):
            ModePair(v, v, v, v)

    def test_rejects_nan_entry(self):
        u = np.array([1.0, math.nan])
        with pytest.raises(ValueError, match="bi-orthogonal"):
            ModePair(u, u, u, u)


class TestScatteringResult:
    def test_rejects_non_unitary(self):
        with pytest.raises(ValueError, match="non-unitary"):
            ScatteringResult(0.5, 0.5)

    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            ScatteringResult(math.nan, math.nan)

    def test_from_amplitudes(self):
        res = ScatteringResult(0.6, 0.8j)
        assert res.t_prob == pytest.approx(0.36)
        assert res.r_prob == pytest.approx(0.64)

    # |t| beyond the float range, and |t| finite with |t|^2 beyond it:
    # Python's abs and ** raise OverflowError there.
    @pytest.mark.parametrize("t", [1.3e308 + 1.3e308j, 1e200, 1e154 + 1e154j])
    def test_overflowing_amplitude_is_non_unitary(self, t):
        with pytest.raises(ValueError, match="non-unitary"):
            ScatteringResult(t, 0.0)
        with pytest.raises(ValueError, match="non-unitary"):
            ScatteringResult(0.0, t)


class TestScatter:
    def test_identity_transmits_perfectly(self):
        modes = schrodinger.mode_vectors(NonRelMedium(m=1.0, k=2.0))
        res = scatter(np.eye(2, dtype=complex), modes)
        assert res.t_amp == pytest.approx(1.0)
        assert res.r_amp == pytest.approx(0.0)

    def test_delta_strength_one_at_k_two(self):
        # 4 / (4 + 1*4*1/4) = 0.8 for m = 1, v = 1, k = 2.
        modes = schrodinger.mode_vectors(NonRelMedium(m=1.0, k=2.0))
        res = scatter(delta_connection(1.0), modes)
        assert res.t_prob == pytest.approx(0.8, abs=1e-12)
        assert res.r_prob == pytest.approx(0.2, abs=1e-12)

    def test_epsilon_transmits_at_low_k(self):
        modes = schrodinger.mode_vectors(NonRelMedium(m=1.0, k=1e-8))
        res = scatter(epsilon_connection(1.0), modes)
        assert res.t_prob > 1.0 - 1e-12

    def test_unitarity_over_random_connections(self):
        rng = np.random.default_rng(23)
        for _ in range(300):
            p = random_connection(rng)
            med = NonRelMedium(m=rng.uniform(0.2, 5.0), k=rng.uniform(0.2, 5.0))
            res = scatter(as_matrix(p), schrodinger.mode_vectors(med))
            assert abs(res.t_prob + res.r_prob - 1.0) < 1e-10

    def test_probabilities_ignore_theta(self):
        rng = np.random.default_rng(29)
        modes = schrodinger.mode_vectors(NonRelMedium(m=0.7, k=1.3))
        for _ in range(100):
            p = random_connection(rng)
            shifted = ConnectionParams(
                p.alpha, p.beta, p.gamma, p.delta, p.theta + rng.uniform(-10, 10)
            )
            res = scatter(as_matrix(p), modes)
            res2 = scatter(as_matrix(shifted), modes)
            assert res.t_prob == pytest.approx(res2.t_prob, abs=1e-12)
            assert res.r_prob == pytest.approx(res2.r_prob, abs=1e-12)

    def test_vanishing_projection_reports_perfect_reflection(self):
        # Self-dual real modes swapped by the delta connection: the forward
        # projection is exactly zero while the matrix conserves current.
        u = np.array([1.0, 1.0]) / math.sqrt(2.0)
        w = np.array([1.0, -1.0]) / math.sqrt(2.0)
        modes = ModePair(u, w, u, w)
        res = scatter(delta_connection(2.0), modes)
        assert res.t_prob == 0.0
        assert res.r_prob == 1.0
        assert abs(res.r_amp) == 1.0

    def test_vanishing_projection_without_conservation_raises(self):
        u = np.array([1.0, 1.0]) / math.sqrt(2.0)
        w = np.array([1.0, -1.0]) / math.sqrt(2.0)
        modes = ModePair(u, w, u, w)
        M = np.array([[2.0, 0.0], [4.0, 2.0]], dtype=complex)
        with pytest.raises(SingularProjection):
            scatter(M, modes)

    def test_nan_entry_raises(self):
        modes_at_one = modes(1.0)
        M = np.array([[1.0, math.nan], [0.0, 1.0]], dtype=complex)
        with pytest.raises(ValueError, match="not finite"):
            scatter(M, modes_at_one)

    def test_determinant_beyond_float_modulus_raises_value_error(self):
        # det M = 1.3e308 (1 + i) is finite, but |det M| is not a float, and
        # Python's abs of a complex raises OverflowError there.
        M = np.array([[1e154, 0.0], [0.0, 1.3e154 + 1.3e154j]])
        with pytest.raises(ValueError, match="overflows the float range") as info:
            scatter(M, modes(1.0))
        assert not isinstance(info.value, SingularProjection)


def matching_residual(M, pair, res):
    """Componentwise |T u+ - M (u+ + R u-)| over the moduli of the terms that form it."""
    u_p, u_m = np.asarray(pair.u_plus), np.asarray(pair.u_minus)
    residual = np.abs(res.t_amp * u_p - M @ (u_p + res.r_amp * u_m))
    scale = abs(res.t_amp) * np.abs(u_p) + np.abs(M) @ (np.abs(u_p) + abs(res.r_amp) * np.abs(u_m))
    return float(np.max(residual / scale))


class TestMatchingCondition:
    # T u+ = M (u+ + R u-) pins the phase of R, which unitarity leaves free.
    # Measured residuals stay below 1.2 eps over 6e4 draws, rho from 1e-6 to 1e6.

    def test_random_connections_under_both_frameworks_modes(self):
        rng = np.random.default_rng(31)
        for _ in range(300):
            M = as_matrix(random_connection(rng))
            m, k = rng.uniform(0.2, 5.0, size=2)
            E = m * (1.0 + 10.0 ** rng.uniform(-2.0, 1.0))
            for rho in (schrodinger.rho(m, k), math.sqrt(dirac.rho2(E, m))):
                pair = modes(rho)
                assert matching_residual(M, pair, scatter(M, pair)) <= 8 * EPS

    @pytest.mark.parametrize("lam", [0.25, 2.0, 7.0])
    @pytest.mark.parametrize("theta", [0.0, 1.0, -2.5])
    def test_generic_self_dual_modes(self, lam, theta):
        # The real self-dual pair of the vanishing-projection tests, under
        # e^{i theta} diag(lam, 1/lam): a nonzero projection, R real.
        u = np.array([1.0, 1.0]) / math.sqrt(2.0)
        w = np.array([1.0, -1.0]) / math.sqrt(2.0)
        pair = ModePair(u, w, u, w)
        M = np.exp(1j * theta) * np.diag([lam, 1.0 / lam]).astype(complex)
        res = scatter(M, pair)
        assert res.r_amp == pytest.approx(-(lam * lam - 1.0) / (lam * lam + 1.0), abs=4 * EPS)
        assert matching_residual(M, pair, res) <= 8 * EPS


class TestMatrixShape:
    CALLS = {
        "scatter": lambda M: scatter(M, modes(1.0)),
        "decompose": decompose,
        "conserves_current": lambda M: conserves_current(M, 1e-8),
    }

    @pytest.mark.parametrize("M", [np.eye(3), np.eye(2)[np.newaxis], np.eye(2).ravel()],
                             ids=["3x3", "1x2x2", "4"])
    @pytest.mark.parametrize("name", sorted(CALLS))
    def test_rejects_matrix_that_is_not_2x2(self, name, M):
        with pytest.raises(ValueError, match="2x2"):
            self.CALLS[name](M)


class TestNonFiniteEntries:
    # Each position separately: Python's max skips a NaN unless it comes first.
    # No numpy RuntimeWarning may escape either; pytest makes them errors.
    @pytest.mark.parametrize("bad", [math.nan, math.inf, complex(0.0, math.nan)],
                             ids=["nan", "inf", "nanj"])
    @pytest.mark.parametrize("pos", [(0, 0), (0, 1), (1, 0), (1, 1)], ids=str)
    def test_every_entry_point_rejects_it(self, pos, bad):
        M = np.eye(2, dtype=complex)
        M[pos] = bad
        with pytest.raises(NotConnectionForm, match="zero or non-finite"):
            decompose(M)
        assert conserves_current(M, 1e-6) is False
        with pytest.raises(ValueError, match="singular or not finite"):
            scatter(M, modes(1.0))


class TestModes:
    def test_values(self):
        pair = modes(0.5)
        rt2 = math.sqrt(2.0)
        assert np.array_equal(pair.u_plus, np.array([1.0, 0.5j]) / rt2)
        assert np.array_equal(pair.u_minus, np.array([1.0, -0.5j]) / rt2)
        assert np.array_equal(pair.v_plus, np.array([1.0, 2.0j]) / rt2)
        assert np.array_equal(pair.v_minus, np.array([1.0, -2.0j]) / rt2)

    # Below 1/DBL_MAX (about 5.6e-309) the duals' 1/rho overflows.
    @pytest.mark.parametrize("rho", [0.0, -1.0, math.inf, math.nan, 5e-324, 1e-310])
    def test_rejects_rho_outside_positive_reals(self, rho):
        with pytest.raises(ValueError, match="rho"):
            modes(rho)

    # A long double beyond the float range rounds to inf or 0 in float(rho).
    @pytest.mark.skipif(np.finfo(np.longdouble).maxexp <= 1024, reason="long double is a double here")
    @pytest.mark.parametrize("exp", [1100, -1100])
    def test_rejects_long_double_outside_the_float_range(self, exp):
        with pytest.raises(ValueError, match=r"^rho must be positive and finite, got (inf|0\.0)$"):
            modes(np.ldexp(np.longdouble(1.0), exp))


class TestTransmission:
    beta_zero = ConnectionParams(2.0, 0.0, 1.0, 0.5)
    gamma_zero = ConnectionParams(2.0, 1.0, 0.0, 0.5)

    def test_value(self):
        # 4 / (1 + 1 + 2 + 1 / 1) for the delta of strength 1 at rho = 1.
        assert transmission(ConnectionParams(1, 0, 1, 1), 1.0) == pytest.approx(0.8, abs=1e-15)

    def test_rho2_zero_is_the_low_energy_limit(self):
        assert transmission(self.beta_zero, 0.0) == 0.0
        assert transmission(self.gamma_zero, 0.0) == 0.64

    def test_rho2_infinite_is_the_high_energy_limit(self):
        assert transmission(self.beta_zero, math.inf) == 0.64
        assert transmission(self.gamma_zero, math.inf) == 0.0

    def test_underflowing_coefficient_at_infinite_rho2(self):
        # beta * beta underflows to 0, but beta != 0: the limit is still 0.
        p = ConnectionParams(1.0, 1e-200, 0.0, 1.0)
        assert transmission(p, math.inf) == 0.0

    # beta^2 or gamma^2 overflows a double although beta*rho or gamma/rho
    # is small: beta*rho = 1e-5, gamma/rho = 1e5.
    @pytest.mark.parametrize("p, rho2, want", [
        (ConnectionParams(1, 1e155, 0, 1), 1e-320, 4.0 / (4.0 + 1e-10)),
        (ConnectionParams(1, 0, 1e155, 1), 1e300, 4.0 / (4.0 + 1e10)),
    ], ids=["beta", "gamma"])
    def test_overflowing_square_of_the_off_diagonal(self, p, rho2, want):
        t = transmission(p, rho2)
        assert t == pytest.approx(want, rel=1e-12)
        rho = math.sqrt(rho2)
        result = scatter(as_matrix(p), modes(rho))
        size = 1.0 + abs(p.alpha) + abs(p.delta) + abs(p.beta) * rho + abs(p.gamma) / rho
        assert abs(result.t_prob - t) <= 32 * EPS * size**2 * t + 2 * EPS

    @pytest.mark.parametrize("rho2", [math.nan, -1.0, -math.inf, np.array([1.0, -1.0])],
                             ids=lambda v: "array-with-negative" if isinstance(v, np.ndarray) else None)
    def test_rejects_rho2_outside_nonnegative_reals(self, rho2):
        with pytest.raises(ValueError, match="rho2"):
            transmission(self.beta_zero, rho2)
