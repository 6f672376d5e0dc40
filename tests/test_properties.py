"""Property tests of the transfer matrices and the scattering core over drawn inputs.

Both short-range models must conserve the current, M† sigma2 M = sigma2,
and have a unimodular determinant, |det M| = 1, for every spacing and
strength, not only over hand-picked ranges.  The residuals are bounded by
64 eps times the square of the matrix's modulus scale: the factors'
modulus product for the three-delta model, (1 + |w x|) times the largest
entry for the barrier.  Mode projection and the closed-form transmission
must agree at every rho, with a rounding bound that grows with the
largest entry of M^-1 u+ in the same way.
"""

import math

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import EPS, five_factor_scale
from pointscatter import dirac, schrodinger
from pointscatter.connection import (
    SIGMA2, ConnectionParams, as_matrix, modes, scatter, transmission,
)
from pointscatter.dirac import BarrierParams, DiracMedium
from pointscatter.schrodinger import DeltaTriple, NonRelMedium

spacing = st.floats(1e-6, 1e-1)
strength = st.floats(-1e4, 1e4)
positive = st.floats(0.1, 10.0)


def current_residual(M):
    return float(np.max(np.abs(M.conj().T @ SIGMA2 @ M - SIGMA2)))


def det_residual(M):
    return abs(abs(M[0, 0] * M[1, 1] - M[0, 1] * M[1, 0]) - 1.0)


@settings(deadline=None)
@given(a=spacing, v_plus=strength, v_zero=strength, v_minus=strength,
       A=st.floats(-1e3, 1e3), m=positive, k=positive)
def test_three_delta_conserves_current_and_det(a, v_plus, v_zero, v_minus, A, m, k):
    M = schrodinger.three_delta_transfer(
        DeltaTriple(v_plus, v_zero, v_minus, a, A), NonRelMedium(m, k, A)
    )
    bound = 64 * EPS * five_factor_scale(v_plus, v_zero, v_minus, a, A, m, k) ** 2
    assert current_residual(M) <= bound
    assert det_residual(M) <= bound


@settings(deadline=None)
@given(a=spacing, s=st.floats(-5.0, 5.0), v=st.floats(-5.0, 5.0),
       theta=st.floats(-np.pi, np.pi), m=positive, excess=st.floats(1e-3, 10.0),
       sign=st.sampled_from([1.0, -1.0]))
def test_finite_barrier_conserves_current_and_det(a, s, v, theta, m, excess, sign):
    E = sign * (m + excess)
    M = dirac.finite_barrier_transfer(BarrierParams(s, v, theta), a, E, m)
    wx = DiracMedium(m, E, s / (2 * a), v / (2 * a)).k * 2 * a
    bound = 64 * EPS * ((1.0 + wx) * float(np.max(np.abs(M)))) ** 2
    assert current_residual(M) <= bound
    assert det_residual(M) <= bound


@st.composite
def connections(draw, bound=10.0):
    """random_connection's family: alpha, beta, gamma drawn, delta pinned by det = 1."""
    alpha = draw(st.floats(-bound, bound).filter(lambda x: abs(x) >= 1e-2))
    beta = draw(st.floats(-bound, bound))
    gamma = draw(st.floats(-bound, bound))
    delta = (1.0 + beta * gamma) / alpha
    assume(abs(delta) <= bound)
    return ConnectionParams(alpha, beta, gamma, delta, draw(st.floats(-math.pi, math.pi)))


@settings(deadline=None)
@given(p=connections(), log_rho=st.floats(-150.0, 150.0))
def test_scatter_agrees_with_closed_form_transmission(p, log_rho):
    rho = 10.0**log_rho
    result = scatter(as_matrix(p), modes(rho))
    t = transmission(p, rho * rho)
    size = 1.0 + abs(p.alpha) + abs(p.delta) + abs(p.beta) * rho + abs(p.gamma) / rho
    assert abs(result.t_prob - t) <= 32 * EPS * size**2 * t + 2 * EPS
    assert abs(abs(result.t_amp) ** 2 + abs(result.r_amp) ** 2 - 1.0) <= 1e-10
    assert 0.0 <= t <= 1.0
