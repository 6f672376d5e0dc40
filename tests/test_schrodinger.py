"""Non-relativistic machinery: propagator, modes, three-delta model."""

import cmath
import math
import sys
from fractions import Fraction

import numpy as np
import pytest
from scipy.linalg import expm

from conftest import closed_form_transfer, exact_transmission, random_connection, ulps_from
from pointscatter import connection, schrodinger
from pointscatter.connection import ConnectionParams, as_matrix, conserves_current, scatter
from pointscatter.schrodinger import (
    DeltaTriple,
    ModesRequireFreeSpace,
    NonRelMedium,
    SingularRenormalization,
    mode_vectors,
    propagator,
    renormalized_strengths,
    three_delta_transfer,
    transmission,
)


def _generator(med):
    return np.array(
        [[0.0, 2.0 * med.m], [(med.A**2 - med.k**2) / (2.0 * med.m), 2j * med.A]]
    )


class TestMediumTypes:
    def test_rejects_nonpositive_mass(self):
        with pytest.raises(ValueError):
            NonRelMedium(m=0.0, k=1.0)

    def test_rejects_nonpositive_wavenumber(self):
        with pytest.raises(ValueError):
            NonRelMedium(m=1.0, k=-2.0)

    def test_rejects_nonpositive_spacing(self):
        with pytest.raises(ValueError):
            DeltaTriple(0.0, 0.0, 0.0, 0.0)

    @pytest.mark.parametrize(
        "m, k, what",
        [(0.0, 1.0, "mass"), (math.nan, 1.0, "mass"), (1.0, 0.0, "wave number"),
         (1.0, -1.0, "wave number"), (1.0, math.nan, "wave number")],
    )
    def test_rho_is_the_exterior_check(self, m, k, what):
        with pytest.raises(ValueError, match=what):
            schrodinger.rho(m, k)
        with pytest.raises(ValueError, match=what):
            NonRelMedium(m=m, k=k)

    def test_rho_accepts_infinite_wave_number(self):
        assert schrodinger.rho(1.0, math.inf) == schrodinger.rho(1e308, math.inf) == math.inf

    def test_rho_column_overflows_as_the_float_calls_without_a_warning(self):
        m, k = np.array([1e-300, 1.0, 1e308, 1e308]), np.array([1e10, 2.0, 1.0, math.inf])
        want = [schrodinger.rho(mass, wave) for mass, wave in zip(m.tolist(), k.tolist())]
        assert want == [math.inf, 1.0, 5e-309, math.inf]
        assert schrodinger.rho(m, k).tolist() == want

    # Where 2m overflows (m > DBL_MAX/2), k/2m is formed without that product,
    # rounded once: Fraction's exact quotient, rounded to the nearest float.
    @pytest.mark.parametrize("m", [1.0, 1e300, sys.float_info.max / 2.0, 2.0**1023, 1e308,
                                   sys.float_info.max])
    def test_rho_is_k_over_2m_rounded_once(self, m):
        ks = [5e-324, 1e-310, 1e-300, 0.3, 1.0, 3.0, 1e300, 1.7976931348623157e308]
        want = [float(Fraction(k) / (2 * Fraction(m))) for k in ks]
        assert [schrodinger.rho(m, k) for k in ks] == want
        assert schrodinger.rho(np.full(len(ks), m), np.array(ks)).tolist() == want
        assert schrodinger.rho(m, np.array(ks)).tolist() == want

    def test_rejects_infinite_mass(self):
        # rho(inf, k) = 0 passes the exterior check; the propagator would be NaN.
        with pytest.raises(ValueError, match="mass must be finite"):
            propagator(0.3, NonRelMedium(math.inf, 1.0))


class TestPropagator:
    def test_zero_displacement_is_identity(self):
        med = NonRelMedium(m=1.3, k=0.7, A=2.1)
        assert np.allclose(propagator(0.0, med), np.eye(2), atol=1e-15)

    def test_free_quarter_period(self):
        med = NonRelMedium(m=1.0, k=1.0)
        want = np.array([[0.0, 2.0], [-0.5, 0.0]], dtype=complex)
        assert np.allclose(propagator(math.pi / 2.0, med), want, atol=1e-12)

    def test_matches_matrix_exponential(self):
        rng = np.random.default_rng(31)
        for _ in range(200):
            med = NonRelMedium(
                m=rng.uniform(0.3, 3.0), k=rng.uniform(0.3, 3.0), A=rng.uniform(-3.0, 3.0)
            )
            x = rng.uniform(-2.0, 2.0)
            assert np.allclose(propagator(x, med), expm(_generator(med) * x), atol=1e-12)

    def test_determinant_is_pure_phase(self):
        rng = np.random.default_rng(37)
        for _ in range(200):
            med = NonRelMedium(
                m=rng.uniform(0.3, 3.0), k=rng.uniform(0.3, 3.0), A=rng.uniform(-3.0, 3.0)
            )
            x = rng.uniform(-2.0, 2.0)
            got = np.linalg.det(propagator(x, med))
            assert got == pytest.approx(cmath.exp(2j * med.A * x), abs=1e-12)

    def test_composition_law(self):
        rng = np.random.default_rng(41)
        for _ in range(200):
            med = NonRelMedium(
                m=rng.uniform(0.3, 3.0), k=rng.uniform(0.3, 3.0), A=rng.uniform(-3.0, 3.0)
            )
            x, y = rng.uniform(-2.0, 2.0, size=2)
            lhs = propagator(x + y, med)
            rhs = propagator(x, med) @ propagator(y, med)
            assert np.max(np.abs(lhs - rhs)) < 1e-12

    def test_free_propagator_conserves_current(self):
        rng = np.random.default_rng(43)
        for _ in range(200):
            med = NonRelMedium(m=rng.uniform(0.05, 5.0), k=rng.uniform(0.05, 5.0))
            assert conserves_current(propagator(rng.uniform(-3.0, 3.0), med), 1e-12)

    # A^2 overflows to inf in Python arithmetic, silently; 2m overflows and
    # the phase multiply meets inf * 0.  Neither may return a non-finite matrix.
    @pytest.mark.parametrize("med", [NonRelMedium(1.0, 1.0, 1e200), NonRelMedium(1e308, 1.0)])
    def test_overflowing_entries_raise(self, med):
        with pytest.raises(ValueError, match=r"displacement x=0\.5 is out of range: the propagator overflows"):
            propagator(0.5, med)

    # A numpy scalar x computes as a float: k x overflows silently, as Python's floats do.
    @pytest.mark.filterwarnings("error")
    def test_numpy_scalar_displacement_raises_without_a_warning(self):
        with pytest.raises(ValueError, match=r"displacement x=1e\+300 is out of range"):
            propagator(np.float64(1e300), NonRelMedium(1.0, 1e10))
        med = NonRelMedium(1.3, 0.7, 2.1)
        assert propagator(np.float64(0.3), med).tobytes() == propagator(0.3, med).tobytes()


class TestModeVectors:
    def test_values_at_k_twice_mass(self):
        modes = mode_vectors(NonRelMedium(m=1.0, k=2.0))
        assert np.allclose(np.asarray(modes.u_plus), np.array([1.0, 1j]) / math.sqrt(2.0), atol=1e-15)
        assert np.allclose(np.asarray(modes.v_plus), np.array([1.0, 1j]) / math.sqrt(2.0), atol=1e-15)

    def test_biorthogonality_is_exact_enough(self):
        modes = mode_vectors(NonRelMedium(m=0.37, k=4.9))
        v_plus, v_minus, u_plus = map(np.asarray, (modes.v_plus, modes.v_minus, modes.u_plus))
        assert complex(np.vdot(v_plus, u_plus)) == pytest.approx(1.0, abs=1e-14)
        assert complex(np.vdot(v_minus, u_plus)) == pytest.approx(0.0, abs=1e-14)

    def test_modes_are_propagator_eigenvectors(self):
        rng = np.random.default_rng(47)
        med = NonRelMedium(m=0.8, k=1.7)
        modes = mode_vectors(med)
        u_plus, u_minus, v_plus = map(np.asarray, (modes.u_plus, modes.u_minus, modes.v_plus))
        for _ in range(20):
            x = rng.uniform(-3.0, 3.0)
            G = propagator(x, med)
            assert np.allclose(G @ u_plus, cmath.exp(1j * med.k * x) * u_plus, atol=1e-12)
            assert np.allclose(G @ u_minus, cmath.exp(-1j * med.k * x) * u_minus, atol=1e-12)
            assert np.allclose(G.conj().T @ v_plus, cmath.exp(-1j * med.k * x) * v_plus,
                               atol=1e-12)

    def test_requires_free_space(self):
        with pytest.raises(ModesRequireFreeSpace):
            mode_vectors(NonRelMedium(m=1.0, k=1.0, A=0.5))

    def test_rejects_rho_whose_reciprocal_overflows(self):
        with pytest.raises(ValueError, match="rho"):
            mode_vectors(NonRelMedium(m=1.0, k=1e-310))


class TestThreeDeltaTransfer:
    def test_zero_strengths_give_free_propagation(self):
        cfg = DeltaTriple(0.0, 0.0, 0.0, 0.35)
        med = NonRelMedium(m=1.1, k=0.9)
        assert np.allclose(three_delta_transfer(cfg, med), propagator(0.7, med), atol=1e-14)

    def test_rejects_mismatched_vector_potential(self):
        cfg = DeltaTriple(1.0, 1.0, 1.0, 0.1, A=0.5)
        with pytest.raises(ValueError, match="vector potential"):
            three_delta_transfer(cfg, NonRelMedium(m=1.0, k=1.0, A=0.0))

    def test_overflowing_products_raise_as_in_the_sweeps(self):
        # The strengths at a = 1e-157 make the products overflow to inf - inf.
        cfg = renormalized_strengths(ConnectionParams(2, 1, 1, 1, 0.3), 1e-157, 1000.0)
        with pytest.raises(
            ValueError, match=r"half-spacing a=1e-157 is out of range: the three-delta products overflow"
        ):
            three_delta_transfer(cfg, NonRelMedium(1000.0, 1.0, cfg.A))

    def test_matches_closed_form_absolute(self):
        # O(1)-scale regime: the two independent routes agree to 1e-12
        # componentwise in absolute terms.
        rng = np.random.default_rng(53)
        worst = 0.0
        for _ in range(500):
            cfg = DeltaTriple(
                *rng.uniform(-5.0, 5.0, size=3), rng.uniform(0.01, 0.5),
                rng.uniform(-5.0, 5.0),
            )
            med = NonRelMedium(m=rng.uniform(0.5, 1.5), k=rng.uniform(0.5, 1.5), A=cfg.A)
            diff = np.max(np.abs(three_delta_transfer(cfg, med) - closed_form_transfer(cfg, med)))
            worst = max(worst, float(diff))
        assert worst < 1e-12

    def test_phase_factors_out(self):
        # Stripping e^{2iAa} must leave a real matrix: the magnetic field
        # only shows up in the overall phase.
        rng = np.random.default_rng(59)
        for _ in range(300):
            cfg = DeltaTriple(
                *rng.uniform(-5.0, 5.0, size=3), rng.uniform(0.01, 0.5),
                rng.uniform(-5.0, 5.0),
            )
            med = NonRelMedium(m=rng.uniform(0.5, 2.0), k=rng.uniform(0.5, 2.0), A=cfg.A)
            stripped = three_delta_transfer(cfg, med) * cmath.exp(-2j * cfg.A * cfg.a)
            assert np.max(np.abs(stripped.imag)) < 1e-12

    def test_closed_form_real_part_is_unimodular(self):
        rng = np.random.default_rng(61)
        for _ in range(300):
            cfg = DeltaTriple(
                *rng.uniform(-5.0, 5.0, size=3), rng.uniform(0.01, 0.5),
                rng.uniform(-5.0, 5.0),
            )
            med = NonRelMedium(m=rng.uniform(0.5, 2.0), k=rng.uniform(0.5, 2.0), A=cfg.A)
            u = (closed_form_transfer(cfg, med) * cmath.exp(-2j * cfg.A * cfg.a)).real
            det = u[0, 0] * u[1, 1] - u[0, 1] * u[1, 0]
            assert det == pytest.approx(1.0, abs=1e-11)

    def test_closed_form_zero_strengths(self):
        cfg = DeltaTriple(0.0, 0.0, 0.0, 0.4)
        med = NonRelMedium(m=1.0, k=2.0)
        ka2 = 2.0 * med.k * cfg.a
        want = np.array(
            [
                [math.cos(ka2), math.sin(ka2)],
                [-math.sin(ka2), math.cos(ka2)],
            ],
            dtype=complex,
        )
        assert np.allclose(closed_form_transfer(cfg, med), want, atol=1e-14)


class TestRenormalizedStrengths:
    def test_plain_delta_needs_no_renormalization(self):
        cfg = renormalized_strengths(ConnectionParams(1, 0, 2.5, 1, 0), 0.37, 1.0)
        assert (cfg.v_plus, cfg.v_zero, cfg.v_minus, cfg.A) == (0.0, 2.5, 0.0, 0.0)

    def test_epsilon_example(self):
        cfg = renormalized_strengths(ConnectionParams(1, 1, 0, 1, 0), 0.01, 1.0)
        assert cfg.v_plus == pytest.approx(-48.0, rel=1e-12)
        assert cfg.v_minus == pytest.approx(-48.0, rel=1e-12)
        assert cfg.v_zero == pytest.approx(2500.0, rel=1e-12)

    def test_beta_zero_general_scheme(self):
        # det = 2*0.5 - 0 = 1 with alpha != delta.
        cfg = renormalized_strengths(ConnectionParams(2, 0, 1, 0.5, 0), 0.1, 1.0)
        assert cfg.v_plus == pytest.approx((0.5 - 1.0) / 0.4, rel=1e-12)
        assert cfg.v_minus == pytest.approx((2.0 - 1.0) / 0.4, rel=1e-12)
        assert cfg.v_zero == pytest.approx(4.0 / 4.5, rel=1e-12)

    def test_vector_potential_from_phase(self):
        cfg = renormalized_strengths(ConnectionParams(1, 0, 2.5, 1, 0.2), 0.1, 1.0)
        assert cfg.A == pytest.approx(1.0, rel=1e-15)

    def test_singular_point_raises(self):
        with pytest.raises(SingularRenormalization, match="alpha \\+ delta"):
            renormalized_strengths(ConnectionParams(-1, 0, 3, -1, 0), 0.01, 1.0)

    def test_rejects_bad_spacing(self):
        with pytest.raises(ValueError):
            renormalized_strengths(ConnectionParams(1, 0, 0, 1, 0), -0.1, 1.0)

    @pytest.mark.parametrize("a, message", [
        (math.nan, "half-spacing a must be positive"), (math.inf, "a must be finite"),
    ])
    def test_rejects_nonfinite_spacing(self, a, message):
        with pytest.raises(ValueError, match=message):
            renormalized_strengths(ConnectionParams(2, 1, 1, 1, 0), a, 1.0)

    def test_rejects_nan_mass(self):
        with pytest.raises(ValueError, match="mass"):
            renormalized_strengths(ConnectionParams(2, 1, 1, 1, 0), 0.1, math.nan)

    def test_underflowing_spacing_is_named(self):
        # 4 m^2 a^2 underflows to 0, which Python float division would not survive.
        with pytest.raises(ValueError, match="a=1e-200 is too small"):
            renormalized_strengths(ConnectionParams(2, 1, 1, 1), 1e-200, 1.0)


class TestTransmission:
    def test_free_connection_is_transparent(self):
        p = ConnectionParams(1, 0, 0, 1, 0)
        for k in (1e-6, 0.1, 1.0, 1e6):
            assert transmission(p, NonRelMedium(m=1.0, k=k)) == 1.0

    def test_delta_strength_one_at_k_two(self):
        p = ConnectionParams(1, 0, 1, 1, 0)
        assert transmission(p, NonRelMedium(m=1.0, k=2.0)) == pytest.approx(0.8, abs=1e-14)

    def test_beta_nonzero_reflects_at_high_energy(self):
        p = ConnectionParams(2, 1, 1, 1, 0)
        assert transmission(p, NonRelMedium(m=1.0, k=1e6)) < 1e-6

    def test_gamma_nonzero_reflects_at_low_energy(self):
        p = ConnectionParams(1, 0, 1, 1, 0)
        assert transmission(p, NonRelMedium(m=1.0, k=1e-6)) < 1e-6

    def test_epsilon_transmits_at_low_energy(self):
        p = ConnectionParams(1, 1, 0, 1, 0)
        assert transmission(p, NonRelMedium(m=1.0, k=1e-6)) > 1.0 - 1e-6

    @pytest.mark.parametrize("k", [1e-170, 1e160, 1e200])
    def test_limits_where_rho_squared_leaves_the_float_range(self, k):
        # rho^2 = k^2/4 underflows to 0 at k = 1e-170 and overflows at
        # k >= 1e160; each connection keeps the finite limit of its family.
        beta_zero = ConnectionParams(2.0, 0.0, 1.0, 0.5)
        gamma_zero = ConnectionParams(2.0, 1.0, 0.0, 0.5)
        med = NonRelMedium(m=1.0, k=k)
        survivor, reflected = (gamma_zero, beta_zero) if k < 1.0 else (beta_zero, gamma_zero)
        assert transmission(survivor, med) == 0.64
        assert 0.0 <= transmission(reflected, med) < 1e-300

    def test_rho_whose_square_is_not_a_normal_float(self):
        # rho = 1/2e308 = 5e-309, and rho^2 underflows to 0: T is about 1e-16,
        # from gamma^2/rho^2 = 4e16, not the rho^2 = 0 limit 0.  At k = 2e155,
        # rho^2 = 1e310 overflows: T = 1 - 2.5e-11, from beta^2 rho^2, not 0.
        # rho itself overflows at k = 10, m = DBL_MIN, and underflows to 0 at
        # k = 1e-20, m = 1e308: T read 0 for 7.9e-17 and 1e-16.
        # Each term takes a few roundings, so T is within 4 ulps of exact.
        cases = [(ConnectionParams(1, 0, 1e-300, 1), 1e308, 1.0),
                 (ConnectionParams(1, 1e-160, 0, 1), 1.0, 2e155),
                 (ConnectionParams(1, 1e-300, 0, 1), sys.float_info.min, 10.0),
                 (ConnectionParams(1, 0, 1e-320, 1), 1e308, 1e-20)]
        for p, m, k in cases:
            exact = exact_transmission(p, (Fraction(k) / (2 * Fraction(m))) ** 2)
            assert ulps_from(transmission(p, NonRelMedium(m=m, k=k)), exact) <= 4

    def test_matches_scatter_probabilities(self):
        rng = np.random.default_rng(67)
        for _ in range(300):
            p = random_connection(rng)
            med = NonRelMedium(m=rng.uniform(0.2, 5.0), k=rng.uniform(0.2, 5.0))
            res = scatter(as_matrix(p), mode_vectors(med))
            assert abs(res.t_prob - transmission(p, med)) < 1e-10


class TestConvergence:
    def test_first_order_halving_ratios(self):
        # The model error should halve when a does, within 25%.
        p = ConnectionParams(2, 1, 1, 1, 0.3)
        med = lambda A: NonRelMedium(m=1.0, k=1.0, A=A)  # noqa: E731
        target = as_matrix(p)
        errs = []
        a = 1e-3
        for _ in range(6):
            cfg = renormalized_strengths(p, a, 1.0)
            err = np.max(np.abs(three_delta_transfer(cfg, med(cfg.A)) - target))
            errs.append(float(err))
            a /= 2.0
        for big, small in zip(errs, errs[1:]):
            assert 1.5 < big / small < 2.5
