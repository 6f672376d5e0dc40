"""Seeded inputs, timed calls and independent output checks for each workload.

A workload is a list of units generated from the seed with random.Random; a
unit is one unit of work: one cli.main call, one sweep call or one scattering
point.  For each workload:

- call(unit) is the timed region; it passes only generated numbers to the
  library and looks every library function up through its module at call
  time, so the tracer's wrappers see it;
- collect(unit, raw) turns the raw result into the output that is checked
  (for the CLI: reads the written file);
- check(unit, out) recomputes what the output must be with the benchmark's
  own numpy code and returns the problems found;
- fingerprint(out) lets a repeat of a unit be compared with its first run
  instead of being checked again.

Connections are drawn from one fixed distribution (draw_connection); beta is
never chosen to avoid the accuracy floors of the small-spacing models.
"""

from __future__ import annotations

import hashlib
import math
import os
import random
from dataclasses import dataclass
from typing import Any, NamedTuple

import numpy as np

EPS = float(np.finfo(float).eps)
SIGMA2 = np.array([[0.0, -1.0j], [1.0j, 0.0]])

# (beta == 0, theta == 0) for target i is COMBOS[i % 4]: every seed covers
# both renormalization schemes with and without a phase.
COMBOS = ((True, True), (True, False), (False, True), (False, False))


def log_uniform(rng: random.Random, lo_exp: float, hi_exp: float) -> float:
    return 10.0 ** rng.uniform(lo_exp, hi_exp)


def signed(rng: random.Random, value: float) -> float:
    return value if rng.random() < 0.5 else -value


def draw_connection(
    rng: random.Random, beta_zero: bool, theta_zero: bool
) -> tuple[float, float, float, float, float]:
    """(alpha, beta, gamma, delta, theta) from the benchmark's fixed distribution.

    beta = 0 exactly when beta_zero; then alpha = ±10**U(-0.5, 0.5),
    delta = 1/alpha and gamma ~ U(-2, 2).  Otherwise |beta| is log-uniform
    on [1e-2, 10] with a random sign, alpha, delta ~ U(-2, 2) and
    gamma = (alpha*delta - 1)/beta.  theta is 0 when theta_zero, else
    U(-pi, pi).
    """
    if beta_zero:
        alpha = signed(rng, log_uniform(rng, -0.5, 0.5))
        beta, gamma, delta = 0.0, rng.uniform(-2.0, 2.0), 1.0 / alpha
    else:
        beta = signed(rng, log_uniform(rng, -2.0, 1.0))
        alpha, delta = rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0)
        gamma = (alpha * delta - 1.0) / beta
    theta = 0.0 if theta_zero else rng.uniform(-math.pi, math.pi)
    return alpha, beta, gamma, delta, theta


def connection_matrix(conn) -> np.ndarray:
    alpha, beta, gamma, delta, theta = conn
    return np.exp(1j * theta) * np.array([[alpha, beta], [gamma, delta]], dtype=complex)


def closed_form_t(conn, rho2):
    """4/(alpha^2 + delta^2 + 2 + beta^2 rho^2 + gamma^2/rho^2), capped at 1."""
    alpha, beta, gamma, delta = conn[:4]
    bracket = alpha * alpha + delta * delta + 2.0 + beta * beta * rho2 + gamma * gamma / rho2
    return np.minimum(1.0, 4.0 / bracket)


def current_residual(M: np.ndarray) -> np.ndarray:
    """max |M† sigma2 M - sigma2| for a matrix or a stack of matrices."""
    resid = np.swapaxes(M.conj(), -1, -2) @ SIGMA2 @ M - SIGMA2
    return np.max(np.abs(resid), axis=(-2, -1))


def _stack(n: int, m00, m01, m10, m11) -> np.ndarray:
    out = np.empty((n, 2, 2), dtype=complex)
    out[:, 0, 0], out[:, 0, 1], out[:, 1, 0], out[:, 1, 1] = m00, m01, m10, m11
    return out


def three_delta_reference(conn, m: float, k: float, a: np.ndarray):
    """Renormalized three-delta transfer matrices at each half-spacing in a.

    Strengths from the renormalization formulas, then the five factors
    (delta at +a, hop over a, delta at 0, hop over a, delta at -a) built
    entry by entry and multiplied in the model's order.  Returns the stack
    and a per-matrix bound on the rounding error of any evaluation of that
    product: a multiple of eps times the product of the factors' moduli.
    """
    alpha, beta, gamma, delta, theta = conn
    a = np.asarray(a, dtype=float)
    n = a.size
    if beta != 0.0:
        v_plus = -1.0 / (2.0 * m * a) + (delta + 1.0) / beta
        v_minus = -1.0 / (2.0 * m * a) + (alpha + 1.0) / beta
        v_zero = beta / (4.0 * m * m * a * a)
    else:
        v_plus = (delta - 1.0) / (4.0 * m * a)
        v_minus = (alpha - 1.0) / (4.0 * m * a)
        v_zero = np.full(n, 4.0 * gamma / (alpha + delta + 2.0))
    A = theta / (2.0 * a)
    c = np.cos(k * a)
    s = np.sin(k * a) / k
    phase = np.exp(1j * A * a)
    hop = _stack(
        n,
        phase * (c - 1j * A * s),
        phase * 2.0 * m * s,
        phase * (A * A - k * k) / (2.0 * m) * s,
        phase * (c + 1j * A * s),
    )
    edge = 1j * A / (2.0 * m)
    factors = [
        _stack(n, 1.0, 0.0, v_plus - edge, 1.0),
        hop,
        _stack(n, 1.0, 0.0, v_zero, 1.0),
        hop,
        _stack(n, 1.0, 0.0, v_minus + edge, 1.0),
    ]
    product, moduli = factors[0], np.abs(factors[0])
    for factor in factors[1:]:
        product = product @ factor
        moduli = moduli @ np.abs(factor)
    return product, 64.0 * EPS * np.max(moduli, axis=(1, 2))


def barrier_reference(barrier, E: float, m: float, a: np.ndarray):
    """Finite step-barrier transfer matrices at each half-width in a.

    The spinor propagator over 2a at S = s/2a, V = v/2a, A = theta/2a,
    branch chosen by the sign of k_plus*k_minus.  Returns the stack and a
    per-matrix rounding bound: eps times (1 + |w x|) times the largest entry,
    since each entry is a cos/cosh/sin/sinh of the argument w x.
    """
    s, v, theta = barrier
    a = np.asarray(a, dtype=float)
    S, V, A = s / (2.0 * a), v / (2.0 * a), theta / (2.0 * a)
    k_plus = m + E + S - V
    k_minus = E - m - S - V
    x = 2.0 * a
    product = k_plus * k_minus
    w = np.sqrt(np.abs(product))
    wx = w * x
    with np.errstate(divide="ignore", invalid="ignore"):
        c = np.where(product > 0, np.cos(wx), np.where(product < 0, np.cosh(wx), 1.0))
        sn = np.where(
            product > 0, np.sin(wx) / w, np.where(product < 0, np.sinh(wx) / w, x)
        )
    M = np.exp(1j * A * x)[:, None, None] * _stack(a.size, c, k_plus * sn, -k_minus * sn, c)
    bound = 64.0 * EPS * (1.0 + wx) * np.max(np.abs(M), axis=(1, 2))
    return M, bound


def barrier_limit_reference(barrier) -> np.ndarray:
    s, v, theta = barrier
    p_plus, p_minus = s - v, -s - v
    product = p_plus * p_minus
    if product > 0:
        w = math.sqrt(product)
        c, sn = math.cos(w), math.sin(w) / w
    elif product < 0:
        w = math.sqrt(-product)
        c, sn = math.cosh(w), math.sinh(w) / w
    else:
        c, sn = 1.0, 1.0
    return np.exp(1j * theta) * np.array([[c, p_plus * sn], [-p_minus * sn, c]])


def chebyshev_errors(stack: np.ndarray, target: np.ndarray) -> np.ndarray:
    return np.max(np.abs(stack - target), axis=(1, 2))


# --------------------------------------------------------------------------
# cli_sweeps


@dataclass(frozen=True)
class CliUnit:
    kind: str  # "schrodinger", "dirac" or "compare"
    conn: tuple
    mass: float
    start: float
    stop: float
    spacing: str
    argv: tuple


CLI_HEADERS = {
    "schrodinger": "x,T2,R2",
    "dirac": "x,T2,R2",
    "compare": "kinetic,T2_schrodinger,T2_dirac,diff",
}


def _parse_csv(data: bytes, header: str, nrows: int) -> np.ndarray:
    """Parse CLI output back to doubles; every field must round-trip at 17 digits."""
    text = data.decode("ascii")
    if not text.endswith("\n"):
        raise ValueError("output does not end with a newline")
    lines = text[:-1].split("\n")
    if lines[0] != header:
        raise ValueError(f"header {lines[0]!r} != {header!r}")
    if len(lines) - 1 != nrows:
        raise ValueError(f"{len(lines) - 1} data rows, expected {nrows}")
    ncol = header.count(",") + 1
    values = np.empty((nrows, ncol))
    for i, line in enumerate(lines[1:]):
        fields = line.split(",")
        if len(fields) != ncol:
            raise ValueError(f"row {i + 1} has {len(fields)} fields, expected {ncol}")
        for j, field in enumerate(fields):
            value = float(field)
            if format(value, ".17g") != field:
                raise ValueError(f"row {i + 1} field {j + 1} {field!r} does not round-trip")
            values[i, j] = value
    return values


class CliSweeps:
    """In-process cli.main calls writing 2500-row CSV files.

    2500 rows rather than 1e4: the per-row work still dominates a call
    (four times the rows take about 3.6 times as long), and a 30 s run then
    repeats each of the 60 units about 20 times instead of 5, which its
    fastest-repeat latency needs to be steady on a host whose speed flips.
    """

    name = "cli_sweeps"
    ROWS = 2_500
    TRIPLES = 20

    def __init__(self, lib, seed: int, workdir: str):
        self.lib = lib
        self.path = os.path.join(workdir, "cli_out.csv")
        rng = random.Random(seed)
        units = []
        # Each triple holds one call of every kind in seeded order, so the
        # mix is the same 1:1:1 for every seed and run length.
        for t in range(self.TRIPLES):
            kinds = ["schrodinger", "dirac", "compare"]
            rng.shuffle(kinds)
            for j, kind in enumerate(kinds):
                units.append(self._draw(rng, kind, COMBOS[(3 * t + j) % 4]))
        self.units = units
        self.trace_units = units[:3]

    def _draw(self, rng: random.Random, kind: str, combo) -> CliUnit:
        conn = draw_connection(rng, *combo)
        mass = log_uniform(rng, -1.0, 1.0)
        if kind == "schrodinger":
            start, stop, spacing = mass * log_uniform(rng, -2, -1), mass * log_uniform(rng, 0.5, 1.5), "linear"
            head = ["transmission", "--framework", "schrodinger"]
        elif kind == "dirac":
            start, stop, spacing = mass * (1.0 + log_uniform(rng, -3, -1)), mass * log_uniform(rng, 1, 3), "log"
            head = ["transmission", "--framework", "dirac"]
        else:
            start, stop, spacing = mass * log_uniform(rng, -6, -3), mass * log_uniform(rng, 3, 6), "log"
            head = ["compare"]
        flags = dict(zip(("alpha", "beta", "gamma", "delta", "theta"), conn))
        flags.update({"mass": mass, "sweep-start": start, "sweep-stop": stop})
        argv = head + [f"--{key}={value!r}" for key, value in flags.items()]
        argv += [f"--sweep-count={self.ROWS}", f"--spacing={spacing}", f"--output={self.path}"]
        return CliUnit(kind, conn, mass, start, stop, spacing, tuple(argv))

    def rows(self, unit: CliUnit) -> int:
        return self.ROWS

    def call(self, unit: CliUnit):
        return self.lib.cli.main(list(unit.argv))

    def collect(self, unit: CliUnit, raw) -> tuple[Any, bytes]:
        try:
            with open(self.path, "rb") as handle:
                data = handle.read()
            os.remove(self.path)
        except FileNotFoundError:
            data = b""
        return raw, data

    def fingerprint(self, out) -> tuple:
        code, data = out
        return code, hashlib.sha256(data).hexdigest()

    def grid(self, unit: CliUnit) -> np.ndarray:
        if unit.spacing == "log":
            return np.geomspace(unit.start, unit.stop, self.ROWS)
        return np.linspace(unit.start, unit.stop, self.ROWS)

    def check(self, unit: CliUnit, out) -> list[str]:
        code, data = out
        if code != 0:
            return [f"exit code {code!r}"]
        try:
            table = _parse_csv(data, CLI_HEADERS[unit.kind], self.ROWS)
        except (ValueError, UnicodeDecodeError) as exc:
            return [f"CSV parse-back: {exc}"]
        problems = []
        x = table[:, 0]
        if x[0] != unit.start or x[-1] != unit.stop:
            problems.append("sweep endpoints are not exact")
        grid = self.grid(unit)
        if unit.spacing == "log":
            grid_err = np.max(np.abs(x - grid) / grid)
            grid_tol = 1e-10
        else:
            grid_err = np.max(np.abs(x - grid)) / max(abs(unit.start), abs(unit.stop))
            grid_tol = 64 * EPS
        if not grid_err <= grid_tol:
            problems.append(f"sweep values off the requested grid by {grid_err:.3g}")
        # The CLI rescales the flags onto determinant 1.
        alpha, beta, gamma, delta, _ = unit.conn
        scale = math.sqrt(alpha * delta - beta * gamma)
        conn = (alpha / scale, beta / scale, gamma / scale, delta / scale)
        m = unit.mass
        if unit.kind == "compare":
            t_s, t_d = table[:, 1], table[:, 2]
            energy = m + x
            expect = [
                ("T2_schrodinger", t_s, closed_form_t(conn, x / (2.0 * m))),
                ("T2_dirac", t_d, closed_form_t(conn, (energy - m) / (energy + m))),
            ]
            if not np.array_equal(table[:, 3], np.abs(t_s - t_d)):
                problems.append("diff != |T2_schrodinger - T2_dirac|")
        else:
            t, r = table[:, 1], table[:, 2]
            rho2 = (x / (2.0 * m)) ** 2 if unit.kind == "schrodinger" else (x - m) / (x + m)
            expect = [("T2", t, closed_form_t(conn, rho2))]
            if not np.all(np.abs(t + r - 1.0) <= 2 * EPS):
                problems.append("T + R != 1")
        for label, got, ref in expect:
            if not np.all((got >= 0.0) & (got <= 1.0)):
                problems.append(f"{label} outside [0, 1]")
            rel = np.max(np.abs(got - ref) / ref)
            if not rel <= 1e-12:
                problems.append(f"{label} off the closed form by {rel:.3g} (relative)")
        return problems


# --------------------------------------------------------------------------
# convergence_grid


@dataclass(frozen=True)
class SweepUnit:
    kind: str  # "nonrel" or "dirac"
    params: tuple  # connection (nonrel) or (s, v, theta) barrier (dirac)
    m: float
    k_or_E: float
    a_list: tuple


class ConvergenceGrid:
    """Direct analysis.nonrel_convergence / dirac_convergence sweeps over a."""

    name = "convergence_grid"
    N_A = 64
    GROUPS = 16
    BRANCHES = ("trig", "hyperbolic", "s=v", "s=-v")

    def __init__(self, lib, seed: int, workdir: str):
        self.lib = lib
        rng = random.Random(seed)
        units = []
        # Two nonrel sweeps per dirac sweep: the call-latency median then
        # falls inside the nonrel class instead of on the class boundary.
        for g in range(self.GROUPS):
            units.append(self._nonrel(rng, COMBOS[(2 * g) % 4]))
            units.append(self._nonrel(rng, COMBOS[(2 * g + 1) % 4]))
            units.append(self._dirac(rng, self.BRANCHES[g % 4], theta_zero=(g // 4) % 2 == 0))
        self.units = units
        self.trace_units = units

    def _a_list(self, rng: random.Random) -> tuple:
        hi, lo = log_uniform(rng, -2, -1), log_uniform(rng, -8, -6)
        return tuple(float(a) for a in np.geomspace(lo, hi, self.N_A))

    def _nonrel(self, rng: random.Random, combo) -> SweepUnit:
        conn = draw_connection(rng, *combo)
        m = log_uniform(rng, -0.5, 0.5)
        k = log_uniform(rng, -1, 1)
        return SweepUnit("nonrel", conn, m, k, self._a_list(rng))

    def _dirac(self, rng: random.Random, branch: str, theta_zero: bool) -> SweepUnit:
        big = signed(rng, rng.uniform(0.2, 2.0))
        if branch == "trig":
            s, v = big * rng.uniform(-0.9, 0.9), big
        elif branch == "hyperbolic":
            s, v = big, big * rng.uniform(-0.9, 0.9)
        elif branch == "s=v":
            s, v = big, big
        else:
            s, v = big, -big
        theta = 0.0 if theta_zero else rng.uniform(-math.pi, math.pi)
        m = log_uniform(rng, -0.5, 0.5)
        E = m * (1.0 + log_uniform(rng, -2, 1))
        return SweepUnit("dirac", (s, v, theta), m, E, self._a_list(rng))

    def rows(self, unit: SweepUnit) -> int:
        return self.N_A

    def call(self, unit: SweepUnit):
        lib = self.lib
        if unit.kind == "nonrel":
            p = lib.connection.ConnectionParams(*unit.params)
            return lib.analysis.nonrel_convergence(p, unit.m, unit.k_or_E, unit.a_list)
        b = lib.dirac.BarrierParams(*unit.params)
        return lib.analysis.dirac_convergence(b, unit.k_or_E, unit.m, unit.a_list)

    def collect(self, unit, raw):
        return raw

    def fingerprint(self, out) -> tuple:
        return tuple((row.x, row.value, row.label) for row in out)

    def reference(self, unit: SweepUnit) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The requested a, largest first, each row's error and its tolerance."""
        a = np.array(sorted(unit.a_list, reverse=True))
        if unit.kind == "nonrel":
            M, bound = three_delta_reference(unit.params, unit.m, unit.k_or_E, a)
            target = connection_matrix(unit.params)
        else:
            M, bound = barrier_reference(unit.params, unit.k_or_E, unit.m, a)
            target = barrier_limit_reference(unit.params)
        tol = 2.0 * bound + 64.0 * EPS * np.max(np.abs(target))
        return a, chebyshev_errors(M, target), tol

    def loose_rows(self, unit: SweepUnit) -> int:
        """Rows whose tolerance is at least the error itself (far below the
        accuracy floor): there the check passes any value near 0."""
        _, ref, tol = self.reference(unit)
        return int(np.count_nonzero(tol >= np.abs(ref)))

    def check(self, unit: SweepUnit, out) -> list[str]:
        if len(out) != self.N_A:
            return [f"{len(out)} rows, expected {self.N_A}"]
        problems = []
        a, ref, tol = self.reference(unit)
        label = "schrodinger" if unit.kind == "nonrel" else "dirac"
        if [row.x for row in out] != a.tolist() or any(row.label != label for row in out):
            problems.append("rows are not the requested a values, largest first, with their label")
        got = np.array([row.value for row in out])
        bad = np.flatnonzero(~(np.abs(got - ref) <= tol))
        if bad.size:
            i = bad[0]
            problems.append(
                f"{bad.size} errors off the reference product, first a={a[i]!r}: {got[i]!r} vs {ref[i]!r}"
            )
        return problems


# --------------------------------------------------------------------------
# scatter_points


@dataclass(frozen=True)
class Point:
    conn: tuple
    m: float
    k: float
    E: float
    a: float


class PointOut(NamedTuple):
    M: np.ndarray
    nonrel: Any
    dirac: Any
    M3: np.ndarray
    three_delta: Any
    decomposed: Any
    conserves: bool


class ScatterPoints:
    """One-off scattering computations at seeded (connection, energy) points."""

    name = "scatter_points"
    N_POINTS = 512
    # conserves_current tolerance, and the band around it in which rounding
    # may decide either way.
    CURRENT_TOL = 1e-6
    CURRENT_BAND = (0.5e-6, 2e-6)

    def __init__(self, lib, seed: int, workdir: str):
        self.lib = lib
        rng = random.Random(seed)
        points = []
        for i in range(self.N_POINTS):
            conn = draw_connection(rng, *COMBOS[i % 4])
            m = log_uniform(rng, -0.5, 0.5)
            k = log_uniform(rng, -1, 1)
            E = m * (1.0 + log_uniform(rng, -2, 1))
            # Finite spacing: the model is scattered off as it is, not as a
            # stand-in for its a -> 0 limit.
            a = log_uniform(rng, -2, -1)
            points.append(Point(conn, m, k, E, a))
        self.units = points
        self.trace_units = points

    def rows(self, unit: Point) -> int:
        return 1

    def call(self, pt: Point) -> PointOut:
        cn, sc, dc = self.lib.connection, self.lib.schrodinger, self.lib.dirac
        p = cn.ConnectionParams(*pt.conn)
        med = sc.NonRelMedium(m=pt.m, k=pt.k)
        M = cn.as_matrix(p)
        nonrel = cn.scatter(M, sc.mode_vectors(med))
        dirac = cn.scatter(M, dc.free_mode_vectors(pt.E, pt.m))
        cfg = sc.renormalized_strengths(p, pt.a, pt.m)
        M3 = sc.three_delta_transfer(cfg, sc.NonRelMedium(m=pt.m, k=pt.k, A=cfg.A))
        three_delta = cn.scatter(M3, sc.mode_vectors(med))
        decomposed = cn.decompose(M)
        conserves = cn.conserves_current(M3, self.CURRENT_TOL)
        return PointOut(M, nonrel, dirac, M3, three_delta, decomposed, conserves)

    def collect(self, unit, raw):
        return raw

    def fingerprint(self, out: PointOut) -> tuple:
        q = out.decomposed
        results = (out.nonrel, out.dirac, out.three_delta)
        return (
            out.M.tobytes(),
            out.M3.tobytes(),
            tuple((r.t_amp, r.r_amp, r.t_prob, r.r_prob) for r in results),
            (q.alpha, q.beta, q.gamma, q.delta, q.theta),
            out.conserves,
        )

    def check(self, pt: Point, out: PointOut) -> list[str]:
        problems = []
        target = connection_matrix(pt.conn)
        if not np.max(np.abs(out.M - target)) <= 4 * EPS * max(1.0, np.max(np.abs(target))):
            problems.append("as_matrix differs from e^{i theta} U")
        rho2_s = (pt.k / (2.0 * pt.m)) ** 2
        rho2_d = (pt.E - pt.m) / (pt.E + pt.m)
        M3, bound3 = three_delta_reference(pt.conn, pt.m, pt.k, np.array([pt.a]))
        M3, bound3 = M3[0], float(bound3[0])
        u3 = np.abs(M3)
        conn3 = (u3[0, 0], u3[0, 1], u3[1, 0], u3[1, 1])
        for label, res, conn, rho2, entry_err in (
            ("nonrel", out.nonrel, pt.conn, rho2_s, 0.0),
            ("dirac", out.dirac, pt.conn, rho2_d, 0.0),
            ("three_delta", out.three_delta, conn3, rho2_s, bound3),
        ):
            alpha, beta, gamma, delta = (abs(c) for c in conn[:4])
            rho = math.sqrt(rho2)
            size = alpha + delta + beta * rho + gamma / rho
            ref = float(closed_form_t(conn, rho2))
            tol = 32 * EPS * (1.0 + size) ** 2 + 4.0 * entry_err * size
            if not abs(res.t_prob - ref) <= tol * ref + 2 * EPS:
                problems.append(f"{label} t_prob {res.t_prob!r} != closed form {ref!r}")
            if not abs(abs(res.t_amp) ** 2 + abs(res.r_amp) ** 2 - 1.0) <= 1e-10:
                problems.append(f"{label} |t|^2 + |r|^2 != 1")
            if not 0.0 <= res.t_prob <= 1.0:
                problems.append(f"{label} t_prob outside [0, 1]")
        if not np.max(np.abs(out.M3 - M3)) <= 2.0 * bound3:
            problems.append("three_delta_transfer off the reference product")
        q = out.decomposed
        u = np.array([[q.alpha, q.beta], [q.gamma, q.delta]])
        back = np.exp(1j * q.theta) * u
        scale = max(1.0, float(np.max(np.abs(u))))
        if not np.max(np.abs(back - out.M)) <= 64 * EPS * scale:
            problems.append("decompose round trip does not reproduce the matrix")
        first = next(x for x in u.ravel() if abs(x) > 1e-8 * scale)
        if not (first > 0.0 and -math.pi < q.theta <= math.pi):
            problems.append("decompose did not return the canonical branch")
        resid = float(current_residual(out.M3))
        lo, hi = self.CURRENT_BAND
        if (resid <= lo and not out.conserves) or (resid >= hi and out.conserves):
            problems.append(f"conserves_current returned {out.conserves} at residual {resid:.3g}")
        return problems


WORKLOADS = {cls.name: cls for cls in (CliSweeps, ConvergenceGrid, ScatterPoints)}
