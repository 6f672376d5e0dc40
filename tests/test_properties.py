"""Property tests of the short-range transfer matrices over drawn inputs.

Both models must conserve the current, M† sigma2 M = sigma2, and have a
unimodular determinant, |det M| = 1, for every spacing and strength, not
only over hand-picked ranges.  The residuals are bounded by 64 eps times
the square of the matrix's modulus scale: the factors' modulus product for
the three-delta model, (1 + |w x|) times the largest entry for the barrier.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import EPS, five_factor_scale
from pointscatter import dirac, schrodinger
from pointscatter.connection import SIGMA2
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
