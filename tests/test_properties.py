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
endpoints and extremes included.  Over every positive double m, k and eps,
schrodinger's T and the table's Schrodinger column must be within a derived
relative bound of the exact T wherever that is a normal double, and so must
connection.transmission at every rho^2, with beta and gamma down to 1e-300.  decompose
must invert as_matrix onto the canonical branch, to a rounding bound that
grows with the products |alpha delta| and |beta gamma| whose difference is
the determinant, and ConnectionParams must accept its output unchanged.  modes(rho) must be
bi-orthogonal within its derived bound at every admitted rho, both ends
included, whether rho is a float, an int or a numpy scalar, and scatter must
give the same bits from its pair as from a checked ModePair of its fields.
The 0-d propagator and three-delta transfer must equal their
numpy-scalar evaluation byte for byte, and the Dirac propagator, barrier
limit and finite barrier their numpy-array evaluation, or raise where it is
not finite.  Every transfer-matrix kernel raises ValueError, with no numpy
warning, on inputs that overflow it.  Where beta = 0 and alpha + delta = -2,
the renormalized strengths are those of the sign representative
(-alpha, -beta, -gamma, -delta, theta + pi) bit for bit, and the sweep
converges at first order to the target matrix.  Both convergence sweeps' error
columns must equal, bit for bit, their complex evaluation with np.where over
both Dirac branches, or raise where it is not finite.
"""

import cmath
import math
import re
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conftest import (
    EPS, exact_transmission, five_factor_scale, numpy_dirac_transfer, numpy_scalar_transfer,
)
from pointscatter import connection, dirac, schrodinger
from pointscatter.analysis import correspondence_table, dirac_convergence, loglog_slope, nonrel_convergence
from pointscatter.connection import (
    SIGMA2, ConnectionParams, ModePair, NotConnectionForm, as_matrix, decompose, modes, scatter,
    transmission, wrap_angle,
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
    or gamma^2 that is not a normal double: a reference independent of numpy.
    Python floats raise on x/0, so the endpoint limits are spelled out here."""
    if (p.beta != 0.0 and rho2 == math.inf) or (p.gamma != 0.0 and rho2 == 0.0):
        return 0.0
    bracket = p.alpha * p.alpha + p.delta * p.delta + 2.0
    if p.beta != 0.0:
        bb, b_rho = p.beta * p.beta, p.beta * math.sqrt(rho2)
        bracket += bb * rho2 if sys.float_info.min <= bb < math.inf else b_rho * b_rho
    if p.gamma != 0.0:
        gg, g_rho = p.gamma * p.gamma, p.gamma / math.sqrt(rho2)
        bracket += gg / rho2 if sys.float_info.min <= gg < math.inf else g_rho * g_rho
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


# Every positive finite double, subnormals included, with the ends of the normal range and
# of the float range, and their neighbours, drawn as themselves.
DBL_MIN, DBL_MAX = sys.float_info.min, sys.float_info.max
FLOAT_EDGES = [5e-324, 1e-323, math.nextafter(DBL_MIN, 0.0), DBL_MIN, math.nextafter(DBL_MIN, 1.0),
               DBL_MAX / 2, math.nextafter(DBL_MAX / 2, DBL_MAX), math.nextafter(DBL_MAX, 0.0), DBL_MAX]
positive_doubles = st.one_of(st.sampled_from(FLOAT_EDGES), st.floats(5e-324, DBL_MAX))


def bits(values) -> list[int]:
    return np.asarray(values, dtype=float).view(np.int64).tolist()


@settings(deadline=None)
@given(pairs=st.lists(st.tuples(positive_doubles, positive_doubles), min_size=1, max_size=12))
def test_rho_and_rho2_columns_are_the_float_calls_bit_for_bit(pairs):
    m, k = map(np.array, zip(*pairs))
    assert bits(schrodinger.rho(m, k)) == bits([schrodinger.rho(*pair) for pair in pairs])
    pairs = [(max(pair), min(pair)) for pair in pairs if pair[0] != pair[1]]
    assume(pairs)
    E, m = map(np.array, zip(*pairs))
    assert bits(dirac.rho2(E, m)) == bits([dirac.rho2(*pair) for pair in pairs])
    # A column of energies over one mass, as correspondence_table passes them.
    E = E[E > m[0]]
    assert bits(dirac.rho2(E, m[0])) == bits([dirac.rho2(e, m[0]) for e in E.tolist()])


def admits(m: float, eps: float) -> bool:
    """correspondence_table accepts eps at m: m + eps is finite and not m."""
    return m != m + eps < math.inf


U = Fraction(1, 2**53)
# assert_near_exact's bound 2 e_rho + 13u at e_rho = u, and at e_rho = 2.5u.
SCALAR_BOUND, TABLE_BOUND = 15 * U, 18 * U


def assert_near_exact(t: float, p: ConnectionParams, rho2: Fraction, bound: Fraction) -> None:
    """t is T = 4/D at the exact rho2 within the relative bound, wherever T is a normal double.

    D = A + B + G with A = alpha^2 + delta^2 + 2 >= 2, B = beta^2 rho^2 and
    G = gamma^2 / rho^2, all >= 0.  With u = 2^-53, each rounding to a
    normal double errs by at most u relative; a product or quotient adds its
    operands' relative errors, a square doubles them, a sqrt halves them, and a
    sum of terms >= 0 errs by at most its largest term's error plus u.  Let
    e_rho bound the error of the rho behind the computed rho^2: u for
    k/2m or the mantissa ratio of k and m (its power of two is exact), and
    2.5u for sqrt(fl(2 m eps))/2m; eps/2m rounded once is u for rho^2 itself.
    - A: 3u.  B as fl(beta^2) fl(rho^2): u + (2 e_rho + u) + u; as
      (beta sqrt(rho^2))^2, where beta^2 is not normal: 2 (e_rho + 1.5u + u) + u
      = 2 e_rho + 6u.  G likewise.  So each term is within 2 e_rho + 6u.
    - Underflow: a rounding to a subnormal errs by up to 2^-1075 absolutely.
      fl(beta^2) times rho^2 < 2^1024 then moves D by 2^-51 <= 2u D, and
      fl(gamma^2) over rho^2 >= 2^-1022 by 2^-53 <= u/2 D; every other
      subnormal (b, g, B, G themselves) moves D by less than 2^-1000 D: 3u.
    - The two additions of D: 2u; 4/D: u; min(1, T) only moves towards T <= 1.
    The sum is 2 e_rho + 12u to first order; the higher-order terms of the
    about 20 roundings add less than u.  The bound needs every computed partial sum
    of D finite: it is, where T >= DBL_MIN (1 + bound).  Below that, t is 0
    (D overflowed) or at most T (1 + bound).
    """
    exact = exact_transmission(p, rho2)
    if exact >= DBL_MIN * (1 + bound):
        assert abs(Fraction(t) - exact) <= bound * exact
    else:
        assert 0 <= Fraction(t) <= DBL_MIN * (1 + bound) ** 2


@settings(deadline=None)
@given(p=gated_connections(),
       pairs=st.lists(st.tuples(positive_doubles, positive_doubles), min_size=1, max_size=12))
@example(p=ConnectionParams(1, 1e-300, 0, 1), pairs=[(DBL_MIN, 10.0)])  # k/2m overflows
@example(p=ConnectionParams(1, 0, 1e-320, 1), pairs=[(1e308, 1e-20)])  # k/2m underflows to 0
@example(p=ConnectionParams(1, 0, 1e-300, 1), pairs=[(1e308, 1.0)])  # (k/2m)^2 underflows
def test_schrodinger_transmission_is_near_exact_over_every_double(p, pairs):
    m, k = map(np.array, zip(*pairs))
    column = schrodinger._transmission(p, m, k)
    assert bits(column) == bits([schrodinger.transmission(p, NonRelMedium(*pair)) for pair in pairs])
    for t, (mass, wave_number) in zip(column.tolist(), pairs):
        assert_near_exact(t, p, (Fraction(wave_number) / (2 * Fraction(mass))) ** 2, SCALAR_BOUND)


@settings(deadline=None)
@given(p=gated_connections(), m=positive_doubles, eps=st.lists(positive_doubles, min_size=1, max_size=12))
@example(p=ConnectionParams(1, 0.5, 0, 1), m=DBL_MIN, eps=[8.0])  # (k/2m)^2 overflows
@example(p=ConnectionParams(1, 1e-200, 0, 1), m=1e-300, eps=[1e9, 1e10, 2e10])
@example(p=ConnectionParams(1, 1e-200, 0, 1), m=1e-315, eps=[1e-5])  # eps/2m overflows
@example(p=ConnectionParams(1, 1, 0, 1), m=1e-315, eps=[1e-5])  # T = 8e-310 reads 0
def test_correspondence_schrodinger_column_is_near_exact_over_every_double(p, m, eps):
    eps = sorted(e for e in eps if admits(m, e))
    assume(eps)
    for e, t in zip(eps, correspondence_table(p, m, eps)[:, 1].tolist()):
        assert_near_exact(t, p, Fraction(e) / (2 * Fraction(m)), TABLE_BOUND)


@settings(deadline=None)
@given(p=gated_connections(), m=positive_doubles, eps=st.lists(positive_doubles, min_size=1, max_size=12))
@example(p=ConnectionParams(1, 0.5, 0, 1), m=DBL_MIN, eps=[8.0])
def test_correspondence_schrodinger_column_keeps_its_bits_where_two_m_eps_is_normal(p, m, eps):
    eps = sorted(e for e in eps if admits(m, e) and DBL_MIN <= 2.0 * m * e < math.inf)
    assume(eps)
    # The column's expression before 2 m eps was checked, through k = sqrt(2 m eps): its bits
    # are kept where rho^2 is a normal double, and where it is not, T is near the exact value.
    with np.errstate(over="ignore"):
        rho = np.sqrt(2.0 * m * np.array(eps)) / (2.0 * m)
        rho2 = rho * rho
    column = correspondence_table(p, m, eps)[:, 1]
    normal = (rho2 >= DBL_MIN) & (rho2 < math.inf)
    assert bits(column[normal]) == bits(transmission(p, rho2[normal]))
    for e, t in zip(np.array(eps)[~normal].tolist(), column[~normal].tolist()):
        assert_near_exact(t, p, Fraction(e) / (2 * Fraction(m)), TABLE_BOUND)


@settings(deadline=None)
@given(p=gated_connections(), m=positive_doubles, eps=positive_doubles)
@example(p=ConnectionParams(1, 1, 0, 1), m=1e-160, eps=1e-160)
@example(p=ConnectionParams(1, 1, 0, 1), m=1e-300, eps=1e-300)
@example(p=ConnectionParams(1, 1, 0, 1), m=1.0, eps=1e308)
@example(p=ConnectionParams(1, 1, 0, 1), m=1e308, eps=1e307)
@example(p=ConnectionParams(1, 1, 0, 1), m=1e-315, eps=1e-5)
@example(p=ConnectionParams(1, 1e-200, 0, 1), m=1e-315, eps=1e-5)
def test_correspondence_schrodinger_column_rounds_eps_over_two_m_once_elsewhere(p, m, eps):
    assume(admits(m, eps) and not DBL_MIN <= 2.0 * m * eps < math.inf)
    [t] = correspondence_table(p, m, [eps])[:, 1].tolist()
    exact = Fraction(eps) / (2 * Fraction(m))
    try:
        rho2 = float(exact)  # correctly rounded
    except OverflowError:  # beyond the float range: T is near its exact value
        assert_near_exact(t, p, exact, TABLE_BOUND)
    else:
        assert t == transmission(p, rho2)


# Off-diagonal entries of magnitude 1e-300 to 10: below about 1.5e-154 the square is subnormal, and
# below about 1.5e-162 it underflows to 0.
underflowing = st.builds(lambda sign, e: sign * 10.0**e, st.sampled_from([1.0, -1.0]), st.floats(-300.0, 1.0))


@st.composite
def underflowing_connections(draw):
    """beta and gamma each from off_diagonal or underflowing, delta = (1 + beta gamma)/alpha."""
    alpha = draw(st.floats(0.1, 10.0)) * draw(st.sampled_from([1.0, -1.0]))
    beta, gamma = (draw(st.one_of(off_diagonal, underflowing)) for _ in range(2))
    assume(abs(beta * gamma) <= 100.0)  # 1 + beta gamma keeps its 1
    return ConnectionParams(alpha, beta, gamma, (1.0 + beta * gamma) / alpha)


# transmission's bound at an exact rho2: see test_transmission_is_near_exact_over_every_rho2.
EXACT_RHO2_BOUND = 9 * U


@settings(deadline=None)
@given(p=underflowing_connections(), rho2=rho2_values)
@example(p=ConnectionParams(1, 0, 1e-163, 1), rho2=5e-324)  # gamma^2 = 0 dropped the term: T read 1.0
# Forming (gamma/rho)^2 where gamma^2 underflows moved T from 0.04 to 1.04 ulps off here.
@example(p=ConnectionParams(231.22366290402096, -4.5e81, -1.7e-165, 1 / 231.22366290402096), rho2=6e-319)
def test_transmission_is_near_exact_over_every_rho2(p, rho2):
    """connection.transmission is within 9u of the exact T at the float rho2, u = 2^-53.

    With the roundings counted as in assert_near_exact, at a rho2 that is exact:
    - A = alpha^2 + delta^2 + 2: 3u.
    - B as fl(beta^2) rho2, where beta^2 is a normal double: u + u.  Elsewhere as
      q*q, q = beta fl(sqrt(rho2)): the sqrt of any double > 0 is normal, u; q adds u,
      and q*q doubles the 2u and adds u: 5u.  G likewise, as fl(gamma^2)/rho2 or with
      q = gamma/fl(sqrt(rho2)): 5u.  A subnormal q, q*q or product errs by at most
      2^-1075 absolutely, less than 2^-1000 of D >= 2.
    - The two additions of D, of terms >= 0: 7u.  4/D: 8u.  The higher-order terms of
      these dozen roundings add less than u: 9u.
    min(1, t) moves t towards T where T <= 1.  Where the floats' exact det is below 1,
    T = 4/(4 + (alpha - delta)^2 + (beta rho + gamma/rho)^2 - 2(1 - det)) can exceed 1,
    by (1 - det)/2 relative, which the bound adds.  At rho2 = 0 and inf, T is the limit.
    """
    t = transmission(p, rho2)
    if (p.beta and rho2 == math.inf) or (p.gamma and rho2 == 0.0):
        assert t == 0.0
        return
    alpha, beta, gamma, delta = map(Fraction, (p.alpha, p.beta, p.gamma, p.delta))
    bound = EXACT_RHO2_BOUND + max(Fraction(0), 1 - (alpha * delta - beta * gamma)) / 2
    if rho2 == math.inf:  # beta = 0, and gamma^2/rho2 tends to 0
        exact = 4 / (alpha**2 + delta**2 + 2)
        assert abs(Fraction(t) - exact) <= bound * exact
    else:
        assert_near_exact(t, p, Fraction(rho2), bound)


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


def assert_decompose_output_is_admitted(q):
    """ConnectionParams accepts decompose's fields as they are: decompose builds
    its result past the construction check, which they pass by derivation."""
    fields = (q.alpha, q.beta, q.gamma, q.delta, q.theta)
    assert all(type(x) is float for x in fields)
    again = ConnectionParams(*fields)
    got = (again.alpha, again.beta, again.gamma, again.delta, again.theta)
    assert [x.hex() for x in got] == [x.hex() for x in fields]


# Log-uniform entries with det within 1e-8 of 1, the branch decompose rescales
# by sqrt(det); where the det's rounding band is wider, the branch that keeps them.
@settings(deadline=None)
@given(alpha=signed, beta=signed, gamma=signed, miss=st.floats(-1e-8, 1e-8),
       theta=st.floats(-math.pi, math.pi))
def test_decompose_output_is_admitted(alpha, beta, gamma, miss, theta):
    delta = (1.0 + miss + beta * gamma) / alpha
    try:
        q = decompose(cmath.exp(1j * theta) * np.array([[alpha, beta], [gamma, delta]]))
    except NotConnectionForm:  # det's rounding past the band: nothing is built
        assume(False)
    assert_decompose_output_is_admitted(q)


def test_decompose_output_is_admitted_at_large_entries():
    # The band-only 2^27 example above: det 20, kept as given.
    u = np.array([[2.0**27, 2.0**27], [2.0**27 - 10 * 2.0**-26, 2.0**27]])
    assert_decompose_output_is_admitted(decompose(cmath.exp(1.8977517891033342j) * u))
    assert_decompose_output_is_admitted(decompose(u))


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
# The admitted floats as numpy scalars that hold them exactly, and float32 and float16 values
# over their own positive ranges, subnormals included: modes computes with float(rho) for each.
numpy_rho = st.one_of(
    admitted_rho.map(np.float64),
    admitted_rho.map(np.longdouble),
    st.floats(2.0**-149, float(np.finfo(np.float32).max), width=32).map(np.float32),
    st.floats(2.0**-24, float(np.finfo(np.float16).max), width=16).map(np.float16),
)


@settings(deadline=None)
@given(rho=st.one_of(admitted_rho, numpy_rho))
@example(rho=RHO_MIN)
@example(rho=RHO_MAX)
@example(rho=1.0)
@example(rho=np.float32(0.3))
@example(rho=np.float16(0.3))
@example(rho=np.longdouble(0.3))
@example(rho=np.float64(0.3))
@example(rho=3)
@example(rho=True)
def test_modes_are_biorthogonal_within_the_derived_bound(rho):
    pair = modes(rho)
    fields = [getattr(pair, name) for name in MODE_FIELDS]
    assert {(type(f), len(f)) for f in fields} == {(tuple, 2)}
    assert {type(x) for f in fields for x in f} == {complex}
    u_plus, u_minus, v_plus, v_minus = fields
    for (d0, d1), (u0, u1), want in [
        (v_plus, u_plus, 1.0), (v_minus, u_minus, 1.0), (v_plus, u_minus, 0.0), (v_minus, u_plus, 0.0),
    ]:
        got = d0.conjugate() * u0 + d1.conjugate() * u1
        assert abs(got - want) <= connection._MODES_BIORTHO_ERR
    checked = ModePair(*fields)
    r, rt2 = float(rho), math.sqrt(2.0)
    old = ModePair(
        u_plus=(1.0 / rt2, 1j * r / rt2),
        u_minus=(1.0 / rt2, -1j * r / rt2),
        v_plus=(1.0 / rt2, 1j / r / rt2),
        v_minus=(1.0 / rt2, -1j / r / rt2),
    )
    for name, field in zip(MODE_FIELDS, fields):
        bits = [np.asarray(getattr(twin, name)).tobytes() for twin in (checked, old)]
        assert bits == [np.asarray(field).tobytes()] * 2


def scattered(M, pair):
    """scatter's amplitudes as bytes, or the type and message of what it raised."""
    try:
        result = scatter(M, pair)
    except ValueError as exc:
        return type(exc), str(exc)
    return np.array([result.t_amp, result.r_amp]).tobytes()


@settings(deadline=None)
@given(p=connections(), rho=admitted_rho)
@example(p=ConnectionParams(2.0, 1.0, 1.0, 1.0, 0.3), rho=RHO_MIN)
@example(p=ConnectionParams(2.0, 1.0, 1.0, 1.0, 0.3), rho=RHO_MAX)
@example(p=ConnectionParams(1.0, 0.0, 0.0, 1.0, -0.0), rho=1.0)
def test_scatter_gives_the_same_bits_from_modes_and_from_a_checked_pair(p, rho):
    M = as_matrix(p)
    pair = modes(rho)
    checked = ModePair(*(getattr(pair, name) for name in MODE_FIELDS))
    assert scattered(M, checked) == scattered(M, pair)


# The 0-d kernels against numpy-scalar arithmetic: signed zeros (x = 0, A = 0,
# zero strengths), negative x, and strengths or a vector potential whose
# products overflow, where the kernels must raise instead.
zeros = st.sampled_from([0.0, -0.0])
moderate = st.floats(-1e3, 1e3)
huge = st.sampled_from([1e200, -1e200, 1e155, -1e300])
scales = st.floats(-3.0, 3.0).map(lambda t: 10.0**t)


@settings(deadline=None)
@given(x=st.one_of(zeros, moderate), m=st.one_of(scales, st.just(1e308)), k=scales,
       A=st.one_of(zeros, moderate, huge))
@example(x=0.0, m=1.0, k=1.0, A=0.0)
@example(x=-0.0, m=1.0, k=1.0, A=-0.0)
def test_propagator_is_the_numpy_scalar_evaluation_bit_for_bit(x, m, k, A):
    want = numpy_scalar_transfer(x, m, k, A)
    med = NonRelMedium(m, k, A)
    if np.isfinite(want).all():
        assert schrodinger.propagator(x, med).tobytes() == want.tobytes()
    else:
        with pytest.raises(ValueError, match=re.escape(f"displacement x={x!r} is out of range")):
            schrodinger.propagator(x, med)


kernel_strength = st.one_of(zeros, st.floats(-1e4, 1e4), huge)


@settings(deadline=None)
@given(a=st.floats(1e-6, 10.0), v_plus=kernel_strength, v_zero=kernel_strength,
       v_minus=kernel_strength, A=st.one_of(zeros, moderate), m=scales, k=scales)
@example(a=0.1, v_plus=0.0, v_zero=-0.0, v_minus=0.0, A=0.0, m=1.0, k=1.0)
@example(a=0.1, v_plus=-0.0, v_zero=0.0, v_minus=-0.0, A=-0.0, m=1.0, k=1.0)
def test_three_delta_is_the_numpy_scalar_evaluation_bit_for_bit(a, v_plus, v_zero, v_minus, A, m, k):
    want = numpy_scalar_transfer(a, m, k, A, (v_plus, v_zero, v_minus))
    cfg, med = DeltaTriple(v_plus, v_zero, v_minus, a, A), NonRelMedium(m, k, A)
    if np.isfinite(want).all():
        assert schrodinger.three_delta_transfer(cfg, med).tobytes() == want.tobytes()
    else:
        with pytest.raises(ValueError, match=re.escape(f"half-spacing a={a!r} is out of range")):
            schrodinger.three_delta_transfer(cfg, med)


# The Dirac kernels against numpy's array evaluation: every branch, signed
# zeros of x, A, s and v, and cosh arguments far beyond 710.
LINEAR = ("k_plus", "k_minus")


@settings(deadline=None)
@given(x=st.one_of(zeros, moderate), m=scales, excess=scales, sign=st.sampled_from([1.0, -1.0]),
       S=st.one_of(zeros, moderate), V=st.one_of(zeros, moderate), A=st.one_of(zeros, moderate),
       branch=st.sampled_from(("any",) + LINEAR))
@example(x=0.0, m=1.0, excess=1.0, sign=1.0, S=0.0, V=0.0, A=0.0, branch="any")
@example(x=-0.0, m=1.0, excess=1.0, sign=1.0, S=-0.0, V=-0.0, A=-0.0, branch="any")
@example(x=-0.0, m=1.0, excess=1.0, sign=-1.0, S=0.0, V=0.0, A=-0.0, branch="k_plus")
@example(x=1e3, m=1.0, excess=1.0, sign=1.0, S=100.0, V=0.0, A=0.0, branch="any")
def test_dirac_propagator_is_the_numpy_array_evaluation_bit_for_bit(x, m, excess, sign, S, V, A, branch):
    E = sign * (m + excess)
    if branch in LINEAR:  # k_plus = m+E+S-V or k_minus = E-m-S-V exactly 0
        V = m + E + S if branch == "k_plus" else E - m - S
    med = DiracMedium(m, E, S, V, A)
    assert branch not in LINEAR or med.k_plus * med.k_minus == 0.0
    want = numpy_dirac_transfer(x, med.k_plus, med.k_minus, A)
    if np.isfinite(want).all():
        assert dirac.propagator(x, med).tobytes() == want.tobytes()
    else:
        with pytest.raises(ValueError, match=re.escape(f"displacement x={x!r} is out of range")):
            dirac.propagator(x, med)


@settings(deadline=None)
@given(s=st.one_of(zeros, moderate, huge), v=st.one_of(zeros, moderate, huge),
       theta=st.one_of(zeros, moderate), branch=st.sampled_from(("any", "delta", "epsilon")))
@example(s=0.0, v=-0.0, theta=-0.0, branch="any")
@example(s=-0.0, v=0.0, theta=0.0, branch="delta")
@example(s=1000.0, v=0.0, theta=0.0, branch="any")
def test_barrier_limit_is_the_numpy_array_evaluation_bit_for_bit(s, v, theta, branch):
    if branch != "any":  # s = v or s = -v: p_minus or p_plus is exactly 0
        v = s if branch == "delta" else -s
    b = BarrierParams(s, v, theta)
    want = numpy_dirac_transfer(1.0, b.p_plus, b.p_minus, theta)
    if np.isfinite(want).all():
        assert dirac.barrier_limit(b).tobytes() == want.tobytes()
    else:
        with pytest.raises(ValueError, match=re.escape(f"barrier s={s!r}, v={v!r}: its zero-width limit")):
            dirac.barrier_limit(b)


# The width-2a barrier is the Dirac propagator over x = 2a at S = s/x, V = v/x and
# A = theta/x: trigonometric where |s| < |v| at small a, hyperbolic where |s| > |v|,
# and a cosh beyond about 710 (s = 1e3, v = 0) that must raise, not warn.
@pytest.mark.filterwarnings("error")
@settings(deadline=None)
@given(a=st.one_of(st.floats(1e-6, 10.0), st.sampled_from([1e-300, 1e300])),
       s=st.one_of(zeros, moderate, huge), v=st.one_of(zeros, moderate, huge),
       theta=st.one_of(zeros, moderate), m=scales, excess=scales, sign=st.sampled_from([1.0, -1.0]))
@example(a=1e-3, s=0.1, v=1.0, theta=0.5, m=1.0, excess=1.0, sign=1.0)
@example(a=1e-3, s=1.0, v=0.1, theta=-0.0, m=1.0, excess=1.0, sign=-1.0)
@example(a=1e-3, s=1000.0, v=0.0, theta=0.0, m=1.0, excess=1.0, sign=1.0)
def test_finite_barrier_is_the_numpy_array_evaluation_bit_for_bit(a, s, v, theta, m, excess, sign):
    E, x = sign * (m + excess), 2.0 * a
    S, V = s / x, v / x
    want = numpy_dirac_transfer(x, m + E + S - V, E - m - S - V, theta / x)
    b = BarrierParams(s, v, theta)
    if np.isfinite(want).all():
        assert dirac.finite_barrier_transfer(b, a, E, m).tobytes() == want.tobytes()
    else:
        with pytest.raises(ValueError, match=re.escape(f"half-spacing a={a!r} is out of range")):
            dirac.finite_barrier_transfer(b, a, E, m)


# One contract for the five kernels: a finite matrix or ValueError, no warning.
OVERFLOWING_BARRIER = BarrierParams(-0.03249090995812371, 183.62771374892313)
KERNEL_FAILURES = {
    "propagator-kx": (lambda: schrodinger.propagator(1e300, NonRelMedium(1.0, 1e10)),
                      "displacement x=1e+300 is out of range: the propagator overflows"),
    "propagator-Ax": (lambda: schrodinger.propagator(1e300, NonRelMedium(1.0, 1.0, 1e10)),
                      "displacement x=1e+300 is out of range: the propagator overflows"),
    "three-delta-ka": (
        lambda: schrodinger.three_delta_transfer(DeltaTriple(1, 1, 1, 1e300), NonRelMedium(1.0, 1e10)),
        "half-spacing a=1e+300 is out of range: the three-delta products overflow",
    ),
    "three-delta-Aa": (
        lambda: schrodinger.three_delta_transfer(
            DeltaTriple(1, 1, 1, 1e300, 1e10), NonRelMedium(1.0, 1.0, 1e10)
        ),
        "half-spacing a=1e+300 is out of range: the three-delta products overflow",
    ),
    "dirac-propagator-cosh": (lambda: dirac.propagator(1e3, DiracMedium(1.0, 2.0, S=100.0)),
                              "displacement x=1000.0 is out of range: the propagator overflows"),
    "dirac-propagator-nan": (lambda: dirac.propagator(math.nan, DiracMedium(1.0, 2.0)),
                             "displacement x=nan is out of range: the propagator overflows"),
    # k_plus*k_minus overflows: only x = ±0 gives a finite matrix, the identity.
    "dirac-propagator-product": (lambda: dirac.propagator(1e-300, DiracMedium(1.0, 2.0, S=1e200)),
                                 "displacement x=1e-300 is out of range: the propagator overflows"),
    "propagator-array": (lambda: schrodinger.propagator(np.array([0.5, 1.0]), NonRelMedium(1.0, 1.0)),
                         "displacement x must be a scalar"),
    "propagator-list": (lambda: schrodinger.propagator([0.5], NonRelMedium(1.0, 1.0)),
                        "displacement x must be a scalar"),
    "dirac-propagator-array": (lambda: dirac.propagator(np.array([0.5]), DiracMedium(1.0, 2.0)),
                               "displacement x must be a scalar"),
    "dirac-propagator-2-d": (lambda: dirac.propagator(np.zeros((2, 2)), DiracMedium(1.0, 2.0)),
                             "displacement x must be a scalar"),
    "barrier-limit-cosh": (
        lambda: dirac.barrier_limit(BarrierParams(1000.0, 0.0)),
        "barrier s=1000.0, v=0.0: its zero-width limit is not finite in double precision "
        "(cosh sqrt|s^2 - v^2| overflows beyond about 710)",
    ),
    "finite-barrier-cosh": (
        lambda: dirac.finite_barrier_transfer(
            OVERFLOWING_BARRIER, 21917.61871521, 1.1503661775380474, 1.1499948238031545
        ),
        "half-spacing a=21917.61871521 is out of range: the finite barrier overflows",
    ),
    "finite-barrier-nan": (
        lambda: dirac.finite_barrier_transfer(BarrierParams(1e308, 1e308), 1e-3, 2.0, 1.0),
        "half-spacing a=0.001 is out of range: the finite barrier overflows",
    ),
}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("call, message", KERNEL_FAILURES.values(), ids=KERNEL_FAILURES.keys())
def test_kernels_raise_value_error_without_a_warning(call, message):
    with pytest.raises(ValueError) as info:
        call()
    assert str(info.value) == message


finite = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def singular_beta_zero_targets(draw, gamma=finite):
    """beta = 0 connections whose float alpha + delta is -2, theta any finite double.

    alpha = -1 or -1 ± e with e below 1e-6, and delta = -2 - alpha, which is
    exact (Sterbenz), so alpha + delta is exactly -2 and det = 1 - (alpha + 1)^2
    stays within the det band.
    """
    e = draw(st.one_of(st.just(0.0), st.floats(0.0, 9e-7)))
    alpha = -1.0 + draw(st.sampled_from([e, -e]))
    delta = -2.0 - alpha
    assert alpha + delta == -2.0
    return ConnectionParams(alpha, 0.0, draw(gamma), delta, draw(finite))


def sign_representative(p: ConnectionParams) -> ConnectionParams:
    return ConnectionParams(-p.alpha, -p.beta, -p.gamma, -p.delta, p.theta + math.pi)


def strengths_or_error(p: ConnectionParams, a: float, m: float):
    try:
        cfg = schrodinger.renormalized_strengths(p, a, m)
    except ValueError as exc:  # 4 gamma overflows beyond about 4.5e307
        return str(exc)
    return bits([cfg.v_plus, cfg.v_zero, cfg.v_minus, cfg.a, cfg.A])


@settings(deadline=None)
@given(p=singular_beta_zero_targets(), a=spacing, m=positive)
@example(p=ConnectionParams(-1, 0, 0.7, -1, 0.3), a=1e-2, m=1.0)
@example(p=ConnectionParams(-1, 0, 1e308, -1, 0.3), a=1e-2, m=1.0)
def test_singular_beta_zero_strengths_are_the_sign_representatives(p, a, m):
    assert strengths_or_error(p, a, m) == strengths_or_error(sign_representative(p), a, m)


@settings(deadline=None)
@given(p=singular_beta_zero_targets(gamma=st.floats(-10.0, 10.0)), m=positive, k=positive)
def test_singular_beta_zero_sweep_converges_at_first_order(p, m, k):
    assert loglog_slope(nonrel_convergence(p, m, k, [1e-3, 1e-4, 1e-5])) == pytest.approx(1.0, abs=0.02)


# The convergence sweeps against their complex, masked evaluation: 1j * A at every A, the
# complex target, and np.where over both Dirac branches.  At theta = 0 the sweeps run in float64,
# and a Dirac column on one branch runs it alone; neither may move a bit of the error.
def complex_error(phase, entries, target):
    with np.errstate(all="ignore"):
        return np.abs(phase * np.array(entries) - target.reshape(4, 1)).max(axis=0)


def complex_nonrel_error(p, m, k, a):
    """The three-delta sweep's error column, in complex arithmetic throughout."""
    v_plus, v_zero, v_minus, _ = schrodinger._strengths(p, a, m)
    # A = theta/2a at every a, formed here: at beta = 0, alpha + delta = -2 the theta is the sign
    # representative's, theta + pi wrapped, and a sweep that took p.theta = 0 for A = 0 would differ.
    singular = p.beta == 0.0 and p.alpha + p.delta + 2.0 == 0.0
    A = (wrap_angle(p.theta + math.pi) if singular else p.theta) / (2.0 * a)
    with np.errstate(all="ignore"):
        iA = 1j * A
        c, s = np.cos(k * a), np.sin(k * a) / k
        ias = iA * s
        h = (c - ias, 2.0 * m * s + 0.0, (A * A - k * k) / (2.0 * m) * s + 0.0, c + ias)
        phase, edge = np.exp(iA * a), iA / (2.0 * m)
        w = v_minus + edge
        p00, p01, p10, p11 = h[0] + h[1] * w, h[1], h[2] + h[3] * w, h[3]
        p10, p11 = p10 + v_zero * p00, p11 + v_zero * p01
        p00, p01, p10, p11 = (
            h[0] * p00 + h[1] * p10, h[0] * p01 + h[1] * p11,
            h[2] * p00 + h[3] * p10, h[2] * p01 + h[3] * p11,
        )
        w = v_plus - edge
        entries = (p00, p01, p10 + w * p00, p11 + w * p01)
    return complex_error(phase * phase, entries, as_matrix(p))


def complex_dirac_error(b, E, m, a):
    """Entries of the finite barrier over a column a, masked over both branches, and the error column."""
    x = 2.0 * a
    S, V, A = b.s / x, b.v / x, b.theta / x
    k_plus, k_minus = m + E + S - V, E - m - S - V
    with np.errstate(all="ignore"):
        product = k_plus * k_minus
        trig, hyper = product > 0.0, product < 0.0
        wx = np.sqrt(np.abs(product)) * x
        t, h = np.where(trig, wx, 0.0), np.where(hyper, wx, 0.0)
        w = np.where(trig | hyper, np.sqrt(np.abs(product)), 1.0)
        c = np.where(trig, np.cos(t), np.cosh(h))
        s = np.where(trig, np.sin(t), np.where(hyper, np.sinh(h), x)) / w
        phase, entries = np.exp(1j * A * x), (c, k_plus * s, -k_minus * s, c)
    return np.array(entries), complex_error(phase, entries, dirac.barrier_limit(b))


def assert_sweep_is_the_complex_column(sweep, a, want):
    """The sweep's values are want's bits, or it raises naming the largest a where want is not finite."""
    if np.isfinite(want).all():
        assert sweep().value.tobytes() == want.tobytes()
    else:
        worst = float(a[~np.isfinite(want)].max())
        with pytest.raises(ValueError, match=re.escape(f"half-spacing a={worst!r} is out of range")):
            sweep()


sweep_spacings = st.lists(st.floats(1e-7, 2.0), min_size=1, max_size=8).map(
    lambda a: np.sort(np.array(a))[::-1])


@settings(deadline=None)
@given(p=st.one_of(connections(), singular_beta_zero_targets(gamma=st.floats(-10.0, 10.0))),
       theta=st.one_of(zeros, st.just(5e-324), st.floats(-math.pi, math.pi)),
       a=sweep_spacings, m=positive, k=positive)
@example(p=ConnectionParams(2, 1, 1, 1), theta=0.0, a=np.geomspace(1e-1, 1e-7, 8), m=1.0, k=1.0)
@example(p=ConnectionParams(2, 1, 1, 1), theta=0.3, a=np.geomspace(1e-1, 1e-7, 8), m=1.0, k=1.0)
@example(p=ConnectionParams(2, 0, 1, 0.5), theta=-0.0, a=np.geomspace(1e-1, 1e-7, 8), m=1.0, k=1.0)
# theta = 5e-324, whose A = theta/2a underflows to 0 at every a >= 1: a theta != 0 keeps the complex target.
@example(p=ConnectionParams(2, 1, 1, 1), theta=5e-324, a=np.array([1.5, 1.2, 1.0]), m=1.0, k=1.0)
# beta = 0, alpha + delta = -2 at theta = 0: the sign representative's A is pi/2a, not 0.
@example(p=ConnectionParams(-1, 0, 0.7, -1), theta=0.0, a=np.geomspace(1e-1, 1e-7, 8), m=1.0, k=1.0)
# There at theta = pi, theta + pi wraps to 0: a float64 kernel against the complex target.
@example(p=ConnectionParams(-1, 0, 0.7, -1), theta=math.pi, a=np.geomspace(1e-1, 1e-7, 8), m=1.0, k=1.0)
def test_nonrel_sweep_is_the_complex_evaluation_bit_for_bit(p, theta, a, m, k):
    p = ConnectionParams(p.alpha, p.beta, p.gamma, p.delta, theta)
    try:
        want = complex_nonrel_error(p, m, k, a)
    except ValueError as exc:  # the strengths overflow at some a
        with pytest.raises(ValueError, match=re.escape(str(exc))):
            nonrel_convergence(p, m, k, a.tolist())
        return
    assert_sweep_is_the_complex_column(lambda: nonrel_convergence(p, m, k, a.tolist()), a, want)


@settings(deadline=None)
@given(s=st.one_of(zeros, moderate, huge), v=st.one_of(zeros, moderate, huge),
       theta=st.one_of(zeros, st.just(5e-324), st.floats(-math.pi, math.pi)),
       a=sweep_spacings, m=scales, excess=scales, sign=st.sampled_from([1.0, -1.0]))
@example(s=0.5, v=1.0, theta=0.0, a=np.geomspace(1e-3, 1e-7, 8), m=1.0, excess=1.0, sign=1.0)  # trig
@example(s=1.0, v=0.5, theta=0.4, a=np.geomspace(1e-3, 1e-7, 8), m=1.0, excess=1.0, sign=1.0)  # hyperbolic
@example(s=1.0, v=0.5, theta=0.0, a=np.geomspace(10.0, 1e-7, 8), m=1.0, excess=1.0, sign=1.0)  # mixed
# k_plus = m + E + s/2a is exactly 0 at a = 0.5, between a trig and a hyperbolic a.
@example(s=1.0, v=0.0, theta=0.0, a=np.array([1.0, 0.5, 0.25]), m=1.0, excess=1.0, sign=-1.0)
@example(s=1.0, v=0.0, theta=0.7, a=np.array([1.0, 0.5, 0.25]), m=1.0, excess=1.0, sign=-1.0)
@example(s=1.0, v=0.5, theta=5e-324, a=np.array([1.5, 1.0]), m=1.0, excess=1.0, sign=1.0)
def test_dirac_sweep_is_the_complex_evaluation_bit_for_bit(s, v, theta, a, m, excess, sign):
    b, E = BarrierParams(s, v, theta), sign * (m + excess)
    try:
        dirac.barrier_limit(b)
    except ValueError as exc:  # the limit itself overflows
        with pytest.raises(ValueError, match=re.escape(str(exc))):
            dirac_convergence(b, E, m, a.tolist())
        return
    entries, want = complex_dirac_error(b, E, m, a)
    assert_sweep_is_the_complex_column(lambda: dirac_convergence(b, E, m, a.tolist()), a, want)
    # The entries too: a diagonal entry seldom sets an error column's maximum.
    if np.isfinite(entries).all():
        with np.errstate(all="ignore"):
            assert np.array(dirac._barrier(b, a, E, m)[1]).tobytes() == entries.tobytes()
