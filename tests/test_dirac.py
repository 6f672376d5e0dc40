"""Relativistic machinery: propagators, barrier limit, classification."""

import cmath
import math
import re
import sys
from fractions import Fraction

import numpy as np
import pytest
from scipy.linalg import expm

from conftest import EPS, exact_transmission, random_connection, ulps_from
from pointscatter import analysis, connection, dirac, schrodinger
from pointscatter.connection import (
    as_matrix,
    conserves_current,
    decompose,
    delta_connection,
    epsilon_connection,
    scatter,
)
from pointscatter.dirac import (
    BarrierParams,
    DegenerateModes,
    DiracMedium,
    barrier_limit,
    classify,
    finite_barrier_transfer,
    free_mode_vectors,
    propagator,
    transmission,
)
from pointscatter.schrodinger import NonRelMedium


def _generator(med):
    return np.array([[1j * med.A, med.k_plus], [-med.k_minus, 1j * med.A]])


def _random_medium(rng):
    m = rng.uniform(0.3, 2.0)
    return DiracMedium(
        m=m,
        E=m + rng.uniform(0.01, 3.0),
        S=rng.uniform(-2.0, 2.0),
        V=rng.uniform(-2.0, 2.0),
        A=rng.uniform(-3.0, 3.0),
    )


class TestDiracMedium:
    def test_rejects_energy_inside_gap(self):
        with pytest.raises(ValueError, match="exceed m"):
            DiracMedium(m=1.0, E=0.5)

    def test_finite_barrier_rejects_nan_half_width(self):
        with pytest.raises(ValueError, match="half-width"):
            finite_barrier_transfer(BarrierParams(1.0, 0.5), math.nan, 2.0, 1.0)

    @pytest.mark.parametrize("a", [math.inf, 0.0, -1.0])
    def test_finite_barrier_rejects_bad_half_width(self, a):
        with pytest.raises(ValueError, match="half-width"):
            finite_barrier_transfer(BarrierParams(1.0, 0.5), a, 2.0, 1.0)

    @pytest.mark.parametrize("E", [math.inf, -math.inf, math.nan])
    def test_rejects_nonfinite_energy(self, E):
        # E = inf passes |E| > m but leaves no finite mode or propagator.
        with pytest.raises(ValueError, match="finite and exceed m"):
            DiracMedium(m=1.0, E=E)
        with pytest.raises(ValueError, match="finite and exceed m"):
            finite_barrier_transfer(BarrierParams(1.0, 0.5), 1e-3, E, 1.0)
        with pytest.raises(ValueError, match="finite and exceed m"):
            analysis.dirac_convergence(BarrierParams(1.0, 0.5), E, 1.0, [1e-3])

    @pytest.mark.parametrize("E", [2e200, -2e200])
    def test_exterior_check_does_not_overflow(self, E):
        # E*E > m*m would overflow to inf > inf and reject |E| > m.
        med = DiracMedium(m=1e200, E=E)
        assert (med.m, med.E) == (1e200, E)

    @pytest.mark.parametrize("m, E", [(1e200, 1e200), (1e200, -1e200), (math.inf, math.inf)])
    def test_exterior_check_rejects_huge_gap_energies(self, m, E):
        with pytest.raises(ValueError):
            DiracMedium(m=m, E=E)

    def test_derived_coefficients(self):
        med = DiracMedium(m=3.0, E=5.0)
        assert (med.k_plus, med.k_minus, med.k) == (8.0, 2.0, 4.0)

    def test_barrier_params_derived(self):
        b = BarrierParams(1.5, 0.5)
        assert (b.p_plus, b.p_minus) == (1.0, -2.0)
        assert b.p == pytest.approx(math.sqrt(2.0))

    def test_barrier_params_reject_nonfinite(self):
        with pytest.raises(ValueError):
            BarrierParams(math.inf, 0.0)


class TestPropagator:
    def test_zero_displacement_is_identity(self):
        med = DiracMedium(m=1.0, E=2.0, S=0.3, V=-0.4, A=1.1)
        assert np.allclose(propagator(0.0, med), np.eye(2), atol=1e-15)

    # Every branch gives c = 1, s = x at x = ±0, though w*x would be inf*0 there.
    @pytest.mark.parametrize("x", [0.0, -0.0])
    @pytest.mark.parametrize("S, V", [(1e200, 0.0), (-1e200, 0.0), (0.0, 1e200), (1e200, 1e150)])
    def test_zero_displacement_is_identity_where_the_product_overflows(self, x, S, V):
        med = DiracMedium(1.0, 2.0, S=S, V=V)
        assert math.isinf(med.k_plus * med.k_minus)
        want = np.array([[1.0, med.k_plus * x], [-med.k_minus * x, 1.0]], dtype=complex)
        assert propagator(x, med).tobytes() == want.tobytes()

    def test_free_quarter_period(self):
        # m = 3, E = 5: k+ = 8, k- = 2, k = 4; at kx = pi/2 the diagonal dies.
        med = DiracMedium(m=3.0, E=5.0)
        want = np.array([[0.0, 2.0], [-0.5, 0.0]], dtype=complex)
        assert np.allclose(propagator(math.pi / 8.0, med), want, atol=1e-12)

    def test_matches_matrix_exponential_both_branches(self):
        rng = np.random.default_rng(71)
        seen = {"trig": 0, "hyp": 0}
        while min(seen.values()) < 100:
            med = _random_medium(rng)
            product = med.k_plus * med.k_minus
            if product == 0.0:
                continue
            seen["trig" if product > 0 else "hyp"] += 1
            x = rng.uniform(-0.5, 0.5)
            assert np.allclose(propagator(x, med), expm(_generator(med) * x), atol=1e-12)

    def test_degenerate_coefficient_branch(self):
        # S - V tuned so k_minus = 0: the series truncates.
        med = DiracMedium(m=1.0, E=2.0, S=1.0, V=0.0, A=0.5)
        assert med.k_minus == 0.0
        x = 0.7
        want = cmath.exp(1j * med.A * x) * np.array([[1.0, med.k_plus * x], [0.0, 1.0]])
        assert np.allclose(propagator(x, med), want, atol=1e-14)
        assert np.allclose(propagator(x, med), expm(_generator(med) * x), atol=1e-12)

    def test_determinant_is_pure_phase(self):
        rng = np.random.default_rng(73)
        for _ in range(200):
            med = _random_medium(rng)
            x = rng.uniform(-0.5, 0.5)
            got = np.linalg.det(propagator(x, med))
            assert got == pytest.approx(cmath.exp(2j * med.A * x), abs=1e-12)

    def test_composition_law(self):
        rng = np.random.default_rng(79)
        for _ in range(200):
            med = _random_medium(rng)
            x, y = rng.uniform(-0.5, 0.5, size=2)
            lhs = propagator(x + y, med)
            rhs = propagator(x, med) @ propagator(y, med)
            assert np.max(np.abs(lhs - rhs)) < 1e-12

    def test_conserves_current_any_spatial_potential(self):
        rng = np.random.default_rng(83)
        for _ in range(200):
            med = _random_medium(rng)
            assert conserves_current(propagator(rng.uniform(-0.5, 0.5), med), 1e-10)


class TestFreeModeVectors:
    def test_values_at_mass_three_energy_five(self):
        modes = free_mode_vectors(5.0, 3.0)
        assert np.allclose(np.asarray(modes.u_plus), np.array([1.0, 0.5j]) / math.sqrt(2.0), atol=1e-15)
        assert np.allclose(np.asarray(modes.v_plus), np.array([1.0, 2.0j]) / math.sqrt(2.0), atol=1e-15)

    def test_biorthogonality(self):
        modes = free_mode_vectors(1.8, 0.6)
        v_plus, u_plus, u_minus = map(np.asarray, (modes.v_plus, modes.u_plus, modes.u_minus))
        assert complex(np.vdot(v_plus, u_plus)) == pytest.approx(1.0, abs=1e-14)
        assert complex(np.vdot(v_plus, u_minus)) == pytest.approx(0.0, abs=1e-14)

    def test_rejects_energy_at_mass(self):
        with pytest.raises(DegenerateModes):
            free_mode_vectors(1.0, 1.0)

    @pytest.mark.parametrize("E, m", [(math.nan, 1.0), (2.0, math.nan)])
    def test_rejects_nan(self, E, m):
        with pytest.raises(ValueError):
            free_mode_vectors(E, m)

    def test_low_energy_matches_nonrelativistic_modes(self):
        # E - m << m: spinor modes collapse onto the wave/derivative pair.
        m, eps = 1.0, 1e-8
        E = m + eps
        rel = free_mode_vectors(E, m)
        nonrel = schrodinger.mode_vectors(NonRelMedium(m=m, k=math.sqrt(E * E - m * m)))
        for name in ("u_plus", "u_minus", "v_plus", "v_minus"):
            a, b = np.asarray(getattr(rel, name)), np.asarray(getattr(nonrel, name))
            assert np.max(np.abs(a - b) / np.abs(b)) < 1e-7


class TestRho2:
    # E + m overflows in each: the ratio is formed from E/2 and m/2, where it used to be 0.
    @pytest.mark.parametrize("E, m", [(1.7e308, 1e308), (1.5e308, 1e308), (sys.float_info.max, 1e308),
                                      (sys.float_info.max, math.nextafter(sys.float_info.max, 0.0))])
    def test_ratio_where_e_plus_m_overflows(self, E, m):
        exact = (Fraction(E) - Fraction(m)) / (Fraction(E) + Fraction(m))
        assert ulps_from(dirac.rho2(E, m), exact) <= 4

    def test_column_where_e_plus_m_overflows_is_the_float_calls(self):
        E, m = np.array([1.5e308, 1.7e308, 3.0]), np.array([1e308, 1e308, 1.0])
        want = [dirac.rho2(e, mass) for e, mass in zip(E.tolist(), m.tolist())]
        assert dirac.rho2(E, m).tolist() == want
        assert dirac.rho2(E[:2], 1e308).tolist() == want[:2]

    def test_transmission_where_e_plus_m_overflows(self):
        p = connection.ConnectionParams(1, 0, 1, 1)
        exact = exact_transmission(p, Fraction(7, 27))  # (1.7 - 1)/(1.7 + 1), as the floats hold it
        assert ulps_from(transmission(p, 1.7e308, 1e308), exact) <= 4
        assert abs(exact - Fraction(28, 55)) < Fraction(1, 10**15)

    def test_free_modes_where_e_plus_m_overflows(self):
        modes = free_mode_vectors(1.7e308, 1e308)
        assert modes == connection.modes(math.sqrt(dirac.rho2(1.7e308, 1e308)))
        assert modes.u_plus[1].imag * math.sqrt(2.0) == pytest.approx(math.sqrt(7 / 27), rel=4 * EPS)


class TestBarrierLimit:
    def test_equal_strengths_give_delta_connection(self):
        assert np.array_equal(barrier_limit(BarrierParams(1.0, 1.0, 0.0)), delta_connection(2.0))

    def test_opposite_strengths_give_epsilon_connection(self):
        assert np.array_equal(
            barrier_limit(BarrierParams(1.0, -1.0, 0.0)), epsilon_connection(2.0)
        )

    def test_pure_vector_quarter_turn(self):
        got = barrier_limit(BarrierParams(0.0, math.pi / 2.0, 0.0))
        want = np.array([[0.0, -1.0], [1.0, 0.0]], dtype=complex)
        assert np.allclose(got, want, atol=1e-12)

    def test_conserves_current(self):
        rng = np.random.default_rng(89)
        for _ in range(300):
            b = BarrierParams(
                rng.uniform(-2.5, 2.5), rng.uniform(-2.5, 2.5), rng.uniform(-3.0, 3.0)
            )
            assert conserves_current(barrier_limit(b), 1e-10)

    def test_branches_meet_continuously(self):
        # Crossing s^2 = v^2 moves between the trig and hyperbolic forms;
        # both collapse to the same linear matrix on the boundary.
        base = barrier_limit(BarrierParams(1.0, 1.0, 0.0))
        for dv in (1e-7, -1e-7, 1e-9, -1e-9):
            near = barrier_limit(BarrierParams(1.0, 1.0 + dv, 0.0))
            assert np.max(np.abs(near - base)) < 10.0 * abs(dv) + 1e-12


class TestFiniteBarrier:
    def test_zero_strengths_give_free_propagation(self):
        b = BarrierParams(0.0, 0.0, 0.0)
        a = 0.3
        med = DiracMedium(m=1.0, E=2.0)
        assert np.allclose(finite_barrier_transfer(b, a, 2.0, 1.0), propagator(2.0 * a, med),
                           atol=1e-14)

    @pytest.mark.parametrize("svt", [(1.0, 1.0, 0.0), (0.0, 1.0, 0.2), (2.0, 0.0, 0.0)])
    def test_approaches_zero_width_limit(self, svt):
        b = BarrierParams(*svt)
        target = barrier_limit(b)
        errs = [
            float(np.max(np.abs(finite_barrier_transfer(b, a, 2.0, 1.0) - target)))
            for a in (1e-2, 1e-3, 1e-4)
        ]
        assert errs[0] > errs[1] > errs[2]

    @pytest.mark.parametrize("svt", [(1.0, 1.0, 0.0), (0.0, 1.0, 0.2), (2.0, 0.0, 0.0)])
    def test_matches_matrix_exponential_at_small_width(self, svt):
        # Independent route for the c5 expectation: e^{i theta} expm of the
        # width-2a generator x [[0, k+], [-k-, 0]], k+- carrying s/x and v/x.
        # The kernel and expm each round O(1) entries a few times, so the
        # bound is 16 eps per unit of entry scale (measured worst: 2.2).
        s, v, theta = svt
        b = BarrierParams(*svt)
        E, m = 2.0, 1.0
        for a in (1e-2, 1e-3, 1e-4, 1e-5):
            x = 2.0 * a
            k_plus = m + E + (s - v) / x
            k_minus = E - m - (s + v) / x
            want = cmath.exp(1j * theta) * expm(x * np.array([[0.0, k_plus], [-k_minus, 0.0]]))
            got = finite_barrier_transfer(b, a, E, m)
            assert np.all(np.abs(got - want) <= 16.0 * EPS * (1.0 + np.abs(want)))

    def test_rejects_bad_width(self):
        with pytest.raises(ValueError):
            finite_barrier_transfer(BarrierParams(1.0, 0.0, 0.0), 0.0, 2.0, 1.0)

    @pytest.mark.parametrize("a", [np.array([1e-3, 0.0]), np.array([[1e-3], [-1e-3]])],
                             ids=["zero", "negative"])
    def test_rejects_bad_width_anywhere_in_a_column(self, a):
        with pytest.raises(ValueError, match="half-width"):
            finite_barrier_transfer(BarrierParams(1.0, 0.0, 0.0), a, 2.0, 1.0)

    # A column of valid half-widths too: analysis.dirac_convergence sweeps them.
    @pytest.mark.parametrize("a", [np.array([1e-3]), np.array([1e-3, 1e-2]), np.array([[1e-3]])],
                             ids=["one", "two", "2-d"])
    def test_rejects_an_array_of_half_widths(self, a):
        with pytest.raises(ValueError, match="half-width a must be a positive, finite scalar"):
            finite_barrier_transfer(BarrierParams(1.0, 0.0, 0.0), a, 2.0, 1.0)

    # Numpy scalar arguments compute as floats: 2a, s/2a and v/2a overflow silently.
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("a", [1e308, 5e-324], ids=["huge", "subnormal"])
    def test_numpy_scalar_arguments_raise_without_a_warning(self, a):
        args = map(np.float64, (a, 2.0, 1.0))
        with pytest.raises(ValueError, match="is out of range: the finite barrier overflows"):
            finite_barrier_transfer(BarrierParams(1.0, 2.0), *args)

    # A finite limit, but the finite barrier's cosh overflows at this half-width.
    @pytest.mark.parametrize("a", [21917.61871521], ids=["scalar"])
    def test_overflowing_half_width_is_named(self, a):
        b = BarrierParams(-0.03249090995812371, 183.62771374892313)
        E, m = 1.1503661775380474, 1.1499948238031545
        with pytest.raises(ValueError, match=re.escape(f"a={a!r} is out of range")):
            finite_barrier_transfer(b, a, E, m)
        for fine in (1.0, 1e-3):
            assert np.isfinite(finite_barrier_transfer(b, fine, E, m)).all()


class TestTransmission:
    def test_identity_connection_transmits(self):
        p = connection.ConnectionParams(1, 0, 0, 1, 0)
        for E in (1.0 + 1e-9, 2.0, 1e7):
            assert transmission(p, E, 1.0) == 1.0

    def test_pure_vector_transmits_at_high_energy(self):
        v = 1.0
        p = connection.ConnectionParams(math.cos(v), -math.sin(v), math.sin(v), math.cos(v), 0)
        assert transmission(p, 1e6, 1.0) > 1.0 - 1e-6

    def test_generic_high_energy_limit(self):
        p = connection.ConnectionParams(2, 1, 1, 1, 0.3)
        want = 4.0 / (4.0 + 1.0 + 2.0 + 1.0 + 1.0)
        assert transmission(p, 1e8, 1.0) == pytest.approx(want, abs=1e-7)

    def test_rejects_energy_below_mass(self):
        p = connection.ConnectionParams(1, 0, 0, 1, 0)
        with pytest.raises(ValueError):
            transmission(p, 0.5, 1.0)

    @pytest.mark.parametrize("E, m", [(math.nan, 1.0), (2.0, math.nan), (math.inf, 1.0)])
    def test_rejects_nan_and_infinite_energy(self, E, m):
        # The E -> inf limit for (2, 1, 1, 1) is 4/9, not the 1.0 a NaN ratio gave.
        with pytest.raises(ValueError):
            transmission(connection.ConnectionParams(2, 1, 1, 1, 0), E, m)

    def test_low_energy_rho_tends_to_nonrelativistic_rho(self):
        # At kinetic energy eps, rho_D^2 = eps/(2m + eps) and rho_S^2 = eps/2m:
        # their ratio is 2m/(2m + eps) -> 1 as eps/m -> 0.
        m = 1.5
        for eps in (1e-2, 1e-5, 1e-8):
            rho_s = schrodinger.rho(m, math.sqrt(2.0 * m * eps))
            ratio = dirac.rho2(m + eps, m) / (rho_s * rho_s)
            assert ratio == pytest.approx(2.0 * m / (2.0 * m + eps), rel=1e-7)

    def test_matches_scatter_after_decompose(self):
        # Route one: barrier -> matrix -> mode projection.  Route two:
        # barrier -> matrix -> parameters -> closed form.
        rng = np.random.default_rng(97)
        for _ in range(300):
            b = BarrierParams(
                rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0), rng.uniform(-3.0, 3.0)
            )
            M = barrier_limit(b)
            m = rng.uniform(0.3, 2.0)
            E = m + rng.uniform(0.01, 5.0)
            res = scatter(M, free_mode_vectors(E, m))
            assert abs(res.t_prob - transmission(decompose(M), E, m)) < 1e-10

    def test_low_energy_tracks_nonrelativistic_value(self):
        rng = np.random.default_rng(101)
        for _ in range(50):
            p = random_connection(rng)
            m = rng.uniform(0.5, 2.0)
            eps = 1e-6 * m
            t_rel = transmission(p, m + eps, m)
            t_nonrel = schrodinger.transmission(
                p, NonRelMedium(m=m, k=math.sqrt(2.0 * m * eps))
            )
            assert abs(t_rel - t_nonrel) / t_nonrel < 1e-4


class TestClassify:
    def test_delta_tag(self):
        assert classify(BarrierParams(1.5, 1.5, 0.0)) == ("delta", 3.0)

    def test_epsilon_tag(self):
        assert classify(BarrierParams(1.5, -1.5, 0.0)) == ("epsilon", 3.0)

    def test_trig_tag(self):
        assert classify(BarrierParams(0.0, 1.0, 0.0)) == ("trig", None)

    def test_trig_tag_ignores_theta(self):
        assert classify(BarrierParams(0.0, 1.0, 0.7)) == ("trig", None)

    def test_hyperbolic_tag(self):
        assert classify(BarrierParams(2.0, 0.5, 0.0)) == ("hyperbolic", None)

    # s*s and v*v overflow at 1e200 and underflow at 1.4e-161 (leaving
    # s*s == v*v); the branch must still follow the exact s^2 < v^2.
    @pytest.mark.parametrize("s, v", [
        (1e200 * (1.0 - 1e-15), 1e200),
        (1.4e-161, math.nextafter(1.4e-161, math.inf)),
    ], ids=["1e200", "1.4e-161"])
    @pytest.mark.parametrize("swap", [False, True], ids=["s<v", "s>v"])
    def test_branch_is_exact_at_extreme_magnitudes(self, s, v, swap):
        if swap:
            s, v = v, s
        assert Fraction(s) ** 2 != Fraction(v) ** 2
        want = "trig" if Fraction(s) ** 2 < Fraction(v) ** 2 else "hyperbolic"
        assert classify(BarrierParams(s, v)) == (want, None)
        assert classify(BarrierParams(-s, v)) == (want, None)

    def test_delta_epsilon_need_zero_theta(self):
        with pytest.raises(ValueError, match="theta"):
            classify(BarrierParams(1.0, 1.0, 0.3))

    def test_tags_match_barrier_limit_matrices(self):
        assert np.array_equal(
            barrier_limit(BarrierParams(1.5, 1.5, 0.0)),
            delta_connection(classify(BarrierParams(1.5, 1.5, 0.0)).strength),
        )
        assert np.array_equal(
            barrier_limit(BarrierParams(1.5, -1.5, 0.0)),
            epsilon_connection(classify(BarrierParams(1.5, -1.5, 0.0)).strength),
        )
