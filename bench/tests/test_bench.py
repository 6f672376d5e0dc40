"""Self-tests of the benchmark: seeded inputs, checkers that catch corrupted
outputs, and tracing that counts exactly and leaves outputs unchanged.

    python3 -m pytest bench/tests
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))

import library  # noqa: E402

LIB, _ = library.load()

import run  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

NAMES = sorted(workloads.WORKLOADS)


def make(name, seed=7, workdir=None):
    return workloads.WORKLOADS[name](LIB, seed, workdir or str(BENCH))


def outputs(wl, units):
    return [wl.collect(u, wl.call(u)) for u in units]


@pytest.mark.parametrize("name", NAMES)
def test_same_seed_gives_identical_inputs(name):
    assert make(name, 3).units == make(name, 3).units
    assert make(name, 3).units != make(name, 4).units


def test_inputs_cover_every_case_for_every_seed():
    for seed in range(4):
        cli = make("cli_sweeps", seed)
        kinds = [u.kind for u in cli.units]
        assert {k: kinds.count(k) for k in set(kinds)} == {"schrodinger": 20, "dirac": 20, "compare": 20}
        assert sorted(u.kind for u in cli.trace_units) == ["compare", "dirac", "schrodinger"]
        grid = make("convergence_grid", seed)
        nonrel = [u.params for u in grid.units if u.kind == "nonrel"]
        assert any(p[1] == 0.0 for p in nonrel) and any(p[1] != 0.0 for p in nonrel)
        assert any(p[1] == 0.0 and p[4] != 0.0 for p in nonrel)
        assert any(p[1] != 0.0 and p[4] != 0.0 for p in nonrel)
        barriers = [u.params for u in grid.units if u.kind == "dirac"]
        assert any(s * s < v * v for s, v, _ in barriers)
        assert any(s * s > v * v for s, v, _ in barriers)
        assert any(s == v for s, v, _ in barriers) and any(s == -v for s, v, _ in barriers)
        assert any(theta != 0.0 for _, _, theta in barriers)


@pytest.mark.parametrize("name", NAMES)
def test_outputs_pass_their_checks(name, tmp_path):
    wl = make(name, workdir=str(tmp_path))
    units = wl.trace_units[:6]
    for unit, out in zip(units, outputs(wl, units)):
        assert wl.check(unit, out) == []


def _cli_output(tmp_path, kind):
    wl = make("cli_sweeps", workdir=str(tmp_path))
    unit = next(u for u in wl.units if u.kind == kind)
    code, data = wl.collect(unit, wl.call(unit))
    assert code == 0
    return wl, unit, data.decode().split("\n")


def _with_field(lines, row, col, text):
    fields = lines[row].split(",")
    fields[col] = text
    return "\n".join(lines[:row] + [",".join(fields)] + lines[row + 1:]).encode()


@pytest.mark.parametrize("kind", ["schrodinger", "dirac", "compare"])
def test_cli_checker_catches_a_flipped_digit(tmp_path, kind):
    wl, unit, lines = _cli_output(tmp_path, kind)
    field = lines[5].split(",")[1]
    pos = next(i for i, ch in enumerate(field) if ch.isdigit() and ch != "0")
    flipped = field[:pos] + str((int(field[pos]) + 1) % 10) + field[pos + 1:]
    assert wl.check(unit, (0, _with_field(lines, 5, 1, flipped)))
    # Also when the altered value is itself a valid 17-digit double.
    nudged = format(float(field) * (1 + 1e-9), ".17g")
    assert wl.check(unit, (0, _with_field(lines, 5, 1, nudged)))


def test_cli_checker_catches_t_plus_r_not_one(tmp_path):
    wl, unit, lines = _cli_output(tmp_path, "schrodinger")
    r = float(lines[9].split(",")[2])
    problems = wl.check(unit, (0, _with_field(lines, 9, 2, format(r + 1e-12, ".17g"))))
    assert "T + R != 1" in problems


def test_cli_checker_catches_bad_diff_and_structure(tmp_path):
    wl, unit, lines = _cli_output(tmp_path, "compare")
    diff = float(lines[3].split(",")[3])
    assert wl.check(unit, (0, _with_field(lines, 3, 3, format(diff + 1e-17 + diff * 1e-15, ".17g"))))
    assert wl.check(unit, (0, "\n".join(lines[:-2] + [""]).encode()))  # a row missing
    assert wl.check(unit, (2, "\n".join(lines).encode()))  # exit code


def test_convergence_checker_catches_corrupted_rows(tmp_path):
    wl = make("convergence_grid", workdir=str(tmp_path))
    for unit in wl.units[:3]:
        rows = wl.call(unit)
        fake = [SimpleNamespace(x=r.x, value=r.value, label=r.label) for r in rows]
        assert wl.check(unit, fake) == []
        worst = max(range(len(fake)), key=lambda i: fake[i].value)
        bad = list(fake)
        bad[worst] = SimpleNamespace(x=fake[worst].x, value=fake[worst].value * 1.01, label=fake[worst].label)
        assert wl.check(unit, bad)
        assert wl.check(unit, fake[::-1])
        assert wl.check(unit, fake[:-1])


def test_scatter_checker_catches_corrupted_points(tmp_path):
    wl = make("scatter_points", workdir=str(tmp_path))
    unit = wl.units[1]
    out = wl.call(unit)
    assert wl.check(unit, out) == []
    r = out.nonrel
    t_amp = r.t_amp * 1.001
    off = SimpleNamespace(t_amp=t_amp, r_amp=r.r_amp, t_prob=abs(t_amp) ** 2, r_prob=r.r_prob)
    assert wl.check(unit, out._replace(nonrel=off))
    assert wl.check(unit, out._replace(dirac=out.nonrel))
    q = out.decomposed
    turned = SimpleNamespace(alpha=q.alpha, beta=q.beta, gamma=q.gamma, delta=q.delta, theta=q.theta + 0.1)
    assert wl.check(unit, out._replace(decomposed=turned))
    assert wl.check(unit, out._replace(conserves=not out.conserves))
    assert wl.check(unit, out._replace(M3=out.M3 * (1 + 1e-6)))


def test_repeat_that_differs_counts_as_failure(tmp_path):
    wl = make("convergence_grid", workdir=str(tmp_path))
    checker = run.Checker(wl)
    unit = wl.units[0]
    rows = wl.call(unit)
    checker.verify(0, unit, rows)
    checker.verify(0, unit, rows)
    assert (checker.attempted, checker.failed) == (2, 0)
    changed = rows[:-1] + [SimpleNamespace(x=rows[-1].x, value=rows[-1].value * 2, label=rows[-1].label)]
    checker.verify(0, unit, changed)
    assert (checker.attempted, checker.failed) == (3, 1)


@pytest.mark.parametrize("name", NAMES)
def test_traced_and_untraced_outputs_are_identical(name, tmp_path):
    wl = make(name, workdir=str(tmp_path))
    units = wl.trace_units[:6]
    plain = [wl.fingerprint(o) for o in outputs(wl, units)]
    tr = tracing.Tracer(LIB)
    originals = {m: dict(vars(getattr(LIB, m))) for m in library.MODULES}
    post_init = LIB.connection.ConnectionParams.__post_init__
    spans = tr.install()
    try:
        traced = [wl.fingerprint(o) for o in outputs(wl, units)]
    finally:
        tr.uninstall()
    assert traced == plain
    assert len(spans.start) > 0 and not tr.missing
    assert {m: dict(vars(getattr(LIB, m))) for m in library.MODULES} == originals
    assert LIB.connection.ConnectionParams.__post_init__ is post_init


def test_tracer_counts_every_layer_exactly(tmp_path):
    wl = make("convergence_grid", workdir=str(tmp_path))
    unit = next(u for u in wl.units if u.kind == "nonrel")
    tr = tracing.Tracer(LIB)
    spans = tr.install()
    try:
        wl.call(unit)
    finally:
        tr.uninstall()
    summary = spans.summary()
    calls = {name: s["calls"] for name, s in summary.items() if s["calls"]}
    n = wl.N_A
    assert calls == {
        "analysis.nonrel_convergence": 1,
        "analysis.SweepRow": n,
        "schrodinger.NonRelMedium": n,
        "schrodinger.DeltaTriple": n,
        "schrodinger.propagator": n,
        "schrodinger.three_delta_transfer": n,
        "schrodinger.renormalized_strengths": n,
        "connection.ConnectionParams": 1,
        "connection.as_matrix": 1,
        "connection.delta_connection": 3 * n,
    }
    for s in summary.values():
        assert 0.0 <= s["self_s"] <= s["incl_s"] + 1e-9
    assert len(tr.captured["schrodinger.three_delta_transfer"]) == n
    # Self times partition the root spans' time.
    parent = np.frombuffer(spans.parent, dtype=np.int32)
    dur = np.frombuffer(spans.end, dtype=np.int64) - np.frombuffer(spans.start, dtype=np.int64)
    roots = 1e-9 * float(dur[parent < 0].sum())
    assert math.isclose(roots, sum(s["self_s"] for s in summary.values()), rel_tol=1e-9)


def test_tracer_counts_calls_that_raise():
    tr = tracing.Tracer(LIB)
    spans = tr.install()
    try:
        with pytest.raises(ValueError):
            LIB.connection.ConnectionParams(2.0, 0.0, 0.0, 2.0)
    finally:
        tr.uninstall()
    assert spans.summary()["connection.ConnectionParams"]["raised"] == 1


def test_accuracy_figures_are_residuals():
    p = LIB.connection.ConnectionParams(2.0, 1.0, 1.0, 1.0, 0.4)
    M = LIB.connection.as_matrix(p)
    captured = {name: [] for name in tracing.CAPTURED}
    captured["schrodinger.three_delta_transfer"].append(((), M + 1e-6))
    captured["connection.decompose"].append(((M,), p))
    figures = run.accuracy_figures(captured)
    assert 1e-7 < figures["schrodinger.three_delta_transfer.max_current_resid"] < 1e-4
    assert figures["connection.decompose.max_roundtrip_err"] == 0.0
    assert figures["dirac.finite_barrier_transfer.max_current_resid"] == 0.0


def test_recorded_cli_digests_match(tmp_path):
    recorded = json.loads((BENCH / "cli_digests.json").read_text())["digests"]
    seed = len(recorded) + 1  # compared through the recorded seed 1
    wl = make("cli_sweeps", seed, str(tmp_path))
    assert run.cli_bytes_changed(LIB, wl, run.Checker(wl), seed, str(tmp_path)) == 0


def test_stale_cli_digests_are_refused(tmp_path):
    wl = make("cli_sweeps", 1, str(tmp_path))
    wl.ROWS = wl.ROWS + 1
    with pytest.raises(RuntimeError, match="re-record"):
        run.cli_bytes_changed(LIB, wl, run.Checker(wl), 1, str(tmp_path))


def test_loose_rows_are_the_rows_the_check_cannot_catch(tmp_path):
    wl = make("convergence_grid", workdir=str(tmp_path))
    unit = max(wl.units, key=wl.loose_rows)
    assert wl.loose_rows(unit) > 0
    _, ref, tol = wl.reference(unit)
    zeroed = [SimpleNamespace(x=r.x, value=0.0 if t >= abs(e) else r.value, label=r.label)
              for r, e, t in zip(wl.call(unit), ref, tol)]
    assert wl.check(unit, zeroed) == []


def test_fails_without_the_library(tmp_path):
    root = tmp_path / "bare"
    shutil.copytree(BENCH, root / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "scatter_points", "--seed", "1", "--seconds", "1"],
        cwd=root, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert done.stdout.strip() == ""


def test_closed_form_reference_matches_library():
    p = LIB.connection.ConnectionParams(2.0, 1.0, 1.0, 1.0, 0.3)
    med = LIB.schrodinger.NonRelMedium(m=1.0, k=2.0)
    conn = (p.alpha, p.beta, p.gamma, p.delta, p.theta)
    assert np.isclose(workloads.closed_form_t(conn, 1.0), LIB.schrodinger.transmission(p, med), rtol=1e-14)
    cfg = LIB.schrodinger.renormalized_strengths(p, 1e-3, 1.0)
    lib_m = LIB.schrodinger.three_delta_transfer(cfg, LIB.schrodinger.NonRelMedium(m=1.0, k=2.0, A=cfg.A))
    ref, bound = workloads.three_delta_reference(conn, 1.0, 2.0, np.array([1e-3]))
    assert np.max(np.abs(ref[0] - lib_m)) <= bound[0]
