"""Property tests of the transfer matrices and the scattering core over drawn inputs.

Both short-range models must conserve the current, M† sigma2 M = sigma2,
and have a unimodular determinant, |det M| = 1, for every spacing and
strength, not only over hand-picked ranges.  The residuals are bounded by
64 eps times the square of the matrix's modulus scale: the factors'
modulus product for the three-delta model, (1 + |w x|) times the largest
entry for the barrier.  Mode projection and the closed-form transmission
must agree at every rho, with a rounding bound that grows in the same
way with the mode-basis scale 1 + |alpha| + |delta| + |beta| rho + |gamma|/rho.  transmission must equal the
closed form in Python floats bit for bit, and its columns, and the
correspondence table built on them, the scalar calls, at every rho^2,
endpoints and extremes included.  decompose must invert as_matrix onto
the canonical branch, to a rounding bound that grows with the products
|alpha delta| and |beta gamma| whose difference is the determinant.
modes(rho) must be bi-orthogonal within its derived bound at every
admitted rho, both ends included.
"""

import math
import sys

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conftest import EPS, five_factor_scale
from pointscatter import connection, dirac, schrodinger
from pointscatter.analysis import correspondence_table
from pointscatter.connection import (
    SIGMA2, ConnectionParams, ModePair, as_matrix, decompose, modes, scatter, transmission,
    wrap_angle,
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


# rho2 endpoints and extremes: 0, the smallest subnormal, a subnormal near
# the normal range, 1e300 and inf, mixed with ordinary draws.
RHO2_EXTREMES = [0.0, 5e-324, 1e-310, 1e300, math.inf]
rho2_values = st.one_of(
    st.sampled_from(RHO2_EXTREMES), st.floats(0.0, math.inf, allow_subnormal=True)
)
# Off-diagonal terms: zero, ordinary, and squares that underflow or overflow.
off_diagonal = st.one_of(
    st.just(0.0), st.floats(-10.0, 10.0), st.sampled_from([1e-200, -1e-170, 1e160, -1e200])
)


@st.composite
def gated_connections(draw):
    """Connections with beta = 0, gamma = 0, both, or neither (det = 1 as alpha/alpha)."""
    alpha = draw(st.floats(0.1, 10.0)) * draw(st.sampled_from([1.0, -1.0]))
    case = draw(st.sampled_from(["beta=0", "gamma=0", "identity-like", "general"]))
    if case == "general":
        return draw(connections())
    beta = draw(off_diagonal) if case == "gamma=0" else 0.0
    gamma = draw(off_diagonal) if case == "beta=0" else 0.0
    return ConnectionParams(alpha, beta, gamma, 1.0 / alpha)


# Found by these properties: squared by C pow at 0-d, (beta*rho)^2 came out
# one ulp below the array's square here.
OVERFLOWING_BETA = ConnectionParams(1, 1e160, 0, 1)
OVERFLOWING_BETA_RHO2 = float.fromhex("0x1.55be57cdeea98p-40")


@settings(deadline=None)
@given(p=gated_connections(), rho2=st.lists(rho2_values, min_size=1, max_size=12))
@example(p=OVERFLOWING_BETA, rho2=[OVERFLOWING_BETA_RHO2])
def test_array_transmission_is_the_scalar_calls_bit_for_bit(p, rho2):
    column = np.array(rho2)
    want = np.array([transmission(p, r) for r in rho2])
    assert np.array_equal(transmission(p, column), want)
    # Any shape is kept, also where beta = gamma = 0 makes T a constant.
    assert np.array_equal(transmission(p, column[:, None]), want[:, None])


def float_formula(p, rho2):
    """The closed form in Python floats, with transmission's rule for a beta^2
    or gamma^2 that overflows: a reference independent of numpy."""
    if (p.beta != 0.0 and rho2 == math.inf) or (p.gamma != 0.0 and rho2 == 0.0):
        return 0.0
    bracket = p.alpha * p.alpha + p.delta * p.delta + 2.0
    if p.beta != 0.0:
        bb, b_rho = p.beta * p.beta, p.beta * math.sqrt(rho2)
        bracket += bb * rho2 if bb < math.inf else b_rho * b_rho
    if p.gamma != 0.0:
        gg, g_rho = p.gamma * p.gamma, p.gamma / math.sqrt(rho2)
        bracket += gg / rho2 if gg < math.inf else g_rho * g_rho
    return min(1.0, 4.0 / bracket)


@settings(deadline=None)
@given(p=gated_connections(), rho2=rho2_values)
@example(p=OVERFLOWING_BETA, rho2=OVERFLOWING_BETA_RHO2)
def test_transmission_is_the_float_formula_bit_for_bit(p, rho2):
    t = transmission(p, rho2)
    assert type(t) is float
    assert t == float_formula(p, rho2)


@settings(deadline=None)
@given(p=gated_connections(), m=st.floats(1e-3, 1e3),
       eps=st.lists(st.floats(1e-9, 1e9), min_size=1, max_size=12))
@example(p=OVERFLOWING_BETA, m=411.8176022709114, eps=[1.0000000000000003e-09])
def test_correspondence_table_columns_are_the_scalar_transmissions(p, m, eps):
    assume(all(m + e != m for e in eps))
    table = correspondence_table(p, m, eps)
    ordered = sorted(eps)
    t_s = np.array([
        schrodinger.transmission(p, NonRelMedium(m, math.sqrt(2.0 * m * e))) for e in ordered
    ])
    t_d = np.array([dirac.transmission(p, m + e, m) for e in ordered])
    assert np.array_equal(table, np.column_stack((ordered, t_s, t_d, np.abs(t_s - t_d))))


def assert_decompose_inverts_as_matrix(p):
    """decompose(as_matrix(p)) is p on the canonical branch.

    That branch makes positive the first entry above decompose's real-form
    floor, 1e-8 max(1, largest entry): with magnitudes spread over decades,
    alpha may lie below it.  Entries within 4 eps (1 + |alpha delta| +
    |beta gamma|) times the largest entry: the determinant's rounding, which
    the sqrt(det) rescale passes on to every entry, grows with those
    products.  Measured: at most 0.99 of that without the factor 4, over 2e5
    log-uniform draws from 1e-6 to 1e6.  decompose rescales only a det
    within 1e-8 of 1, moving each entry by at most half that, so the bound
    stops at 1e-8 times the largest entry.  theta within 16 eps: the
    phase read off the largest entry, and the roundings of theta + pi and of
    the wrap into (-pi, pi] (measured: at most 4 eps).
    """
    q = decompose(as_matrix(p))
    got = [q.alpha, q.beta, q.gamma, q.delta]
    scale = max(map(abs, got))
    lead = next(i for i, x in enumerate(got) if abs(x) > 1e-8 * max(1.0, scale))
    assert got[lead] > 0.0 and -math.pi < q.theta <= math.pi
    want = [p.alpha, p.beta, p.gamma, p.delta]
    want_theta = p.theta
    if want[lead] < 0.0:
        want, want_theta = [-x for x in want], wrap_angle(want_theta + math.pi)
    bound = min(4 * EPS * (1.0 + abs(p.alpha * p.delta) + abs(p.beta * p.gamma)), 1e-8) * scale
    assert max(abs(x - y) for x, y in zip(got, want)) <= bound
    assert abs(wrap_angle(q.theta - want_theta)) <= 16 * EPS


# Log-uniform magnitudes from 1e-6 to 1e6 with either sign.
signed = st.tuples(st.floats(-6.0, 6.0), st.sampled_from([1.0, -1.0])).map(
    lambda t: t[1] * 10.0 ** t[0]
)


@settings(deadline=None)
@given(alpha=signed, beta=signed, gamma=signed, theta=st.floats(-math.pi, math.pi))
def test_decompose_inverts_as_matrix(alpha, beta, gamma, theta):
    assert_decompose_inverts_as_matrix(
        ConnectionParams(alpha, beta, gamma, (1.0 + beta * gamma) / alpha, theta)
    )


# Entries in the thousands: the computed det misses 1 by 4.7e-10, inside the
# rounding band of alpha*delta - beta*gamma and far outside a 1e-12 floor.
# Entries 2^27 with gamma 10 ulps low: ad = 2^54 and bc = 2^54 - 20 exactly,
# so det is 20, inside a band of about 36.  A sqrt(det) rescale would move
# every entry by a factor 4.5; decompose must keep them.
def test_decompose_inverts_as_matrix_at_large_entries():
    for entries in [
        (1473.5370541372733, 6062.63551806223, 575.2690219320189, 2366.854226715002),
        (2.0**27, 2.0**27, 2.0**27 - 10 * 2.0**-26, 2.0**27),
    ]:
        assert_decompose_inverts_as_matrix(ConnectionParams(*entries, 1.8977517891033342))


# The admitted rho range from the smallest whose 1/rho is finite, 2^-1024 + 2^-1074
# (subnormal), to DBL_MAX, where 1/rho and 1/rho/sqrt2 are subnormal.
RHO_MIN = float.fromhex("0x0.4000000000001p-1022")
RHO_MAX = sys.float_info.max
MODE_FIELDS = ("u_plus", "u_minus", "v_plus", "v_minus")


# exp(log(DBL_MAX)) falls short of DBL_MAX, so the ends are drawn as themselves.
admitted_rho = st.one_of(
    st.sampled_from([RHO_MIN, 1.0, RHO_MAX]),
    st.floats(math.log(RHO_MIN), math.log(RHO_MAX)).map(
        lambda t: min(max(math.exp(t), RHO_MIN), RHO_MAX)
    ),
)


@settings(deadline=None)
@given(rho=admitted_rho)
@example(rho=RHO_MIN)
@example(rho=RHO_MAX)
@example(rho=1.0)
def test_modes_are_biorthogonal_within_the_derived_bound(rho):
    pair = modes(rho)
    fields = [getattr(pair, name) for name in MODE_FIELDS]
    u_plus, u_minus, v_plus, v_minus = (f.tolist() for f in fields)
    for (d0, d1), (u0, u1), want in [
        (v_plus, u_plus, 1.0), (v_minus, u_minus, 1.0), (v_plus, u_minus, 0.0), (v_minus, u_plus, 0.0),
    ]:
        got = d0.conjugate() * u0 + d1.conjugate() * u1
        assert abs(got - want) <= connection._MODES_BIORTHO_ERR
    checked = ModePair(*fields)
    rt2 = math.sqrt(2.0)
    old = ModePair(
        u_plus=(1.0 / rt2, 1j * rho / rt2),
        u_minus=(1.0 / rt2, -1j * rho / rt2),
        v_plus=(1.0 / rt2, 1j / rho / rt2),
        v_minus=(1.0 / rt2, -1j / rho / rt2),
    )
    for name, field in zip(MODE_FIELDS, fields):
        assert field.tobytes() == getattr(checked, name).tobytes() == getattr(old, name).tobytes()
        assert (field.dtype, field.shape) == (np.dtype(complex), (2,))
        with pytest.raises(ValueError):
            field.setflags(write=True)
