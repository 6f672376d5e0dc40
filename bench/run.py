"""pointscatter benchmark: one seeded workload, measured for a fixed time.

    python3 bench/run.py --workload cli_sweeps --seed 1 --seconds 20 --trace 0

Closed loop: one caller in one process on one thread runs the workload's
units back to back, and each output is checked outside the timed region.
With --trace 0 it reports the end-to-end metrics, measured with no tracing.
With --trace 1 it alternates untraced and traced passes over a fixed subset
of the units and reports per-layer metrics: calls, self time and raised
calls per listed name, set-up import time, tracing overhead and accuracy
figures.  Human-readable lines come first; the last line of standard output
is one JSON object with keys correct, attempted, failed and metrics.  The
full result, with its environment block, is written under .bench_out/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import subprocess
import sys
import time

import numpy as np

import library
import workloads
from record_digests import SEEDS
from tracer import LAYER_NAMES, Tracer

BENCH = library.ROOT / "bench"
OUT = library.ROOT / ".bench_out"
PROBES = 20  # set-up probes, spread evenly over the measurement
WARMUP_S = 0.5
TAIL_BEYOND = 10


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload", required=True, choices=("cli_sweeps", "convergence_grid", "scatter_points")
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def env_block() -> dict:
    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu = next((line.split(":", 1)[1].strip() for line in handle if line.startswith("model name")), None)
    except OSError:
        pass
    sha = None
    if (library.ROOT / ".git").exists():
        try:
            sha = subprocess.run(
                ["git", "-C", str(library.ROOT), "rev-parse", "HEAD"],
                capture_output=True, text=True, timeout=30, check=True,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for path in sorted((library.SRC / "pointscatter").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "git_sha": sha,
        "src_sha256": digest.hexdigest(),
    }


class Prober:
    """Set-up and import times of PROBES fresh processes.

    The host's speed drifts over seconds, so the probes are spread evenly
    over the measurement instead of bunched at its ends: the measuring loop
    calls poll() between units, and its deadline moves on by the time the
    probe took, which is not counted as measured time.
    """

    def __init__(self, workload: str, seed: int, workdir: str):
        self.cmd = [sys.executable, str(BENCH / "setup_probe.py"),
                    "--workload", workload, "--seed", str(seed), "--workdir", workdir]
        self.setup: list[float] = []
        self.imports: list[float] = []
        self.interval = self.next_at = 0.0

    def start(self, seconds: float) -> None:
        self.interval = seconds / PROBES
        self.next_at = time.perf_counter()

    def probe(self) -> None:
        started = time.monotonic()
        done = subprocess.run(self.cmd, capture_output=True, text=True, timeout=120)
        if done.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {done.stderr.strip()}")
        report = json.loads(done.stdout.strip().splitlines()[-1])
        self.setup.append(report["ready"] - started)
        self.imports.append(report["import_s"])

    def poll(self) -> float:
        """Run a probe if one is due; return the seconds it took."""
        if len(self.setup) >= PROBES or time.perf_counter() < self.next_at:
            return 0.0
        started = time.perf_counter()
        self.probe()
        took = time.perf_counter() - started
        self.next_at += self.interval + took
        return took

    def finish(self) -> None:
        """Run the probes a slow last unit left undone."""
        while len(self.setup) < PROBES:
            self.probe()


class Checker:
    """Counts attempted and failed outputs.

    The first output of each unit is checked in full; a repeat must have the
    same fingerprint, which also makes traced and untraced outputs agree.
    """

    def __init__(self, wl):
        self.wl = wl
        self.first: dict[int, tuple] = {}
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def _fail(self, idx: int, problems: list[str]) -> None:
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.append(f"unit {idx}: " + "; ".join(problems))

    def raised(self, idx: int, exc: Exception) -> None:
        self.attempted += 1
        self._fail(idx, [f"raised {exc!r}"])

    def verify(self, idx: int, unit, out) -> None:
        self.attempted += 1
        fp = self.wl.fingerprint(out)
        if idx not in self.first:
            try:
                problems = self.wl.check(unit, out)
            except Exception as exc:  # a malformed output can break the checker
                problems = [f"check raised {exc!r}"]
            self.first[idx] = (fp, not problems)
        else:
            first_fp, first_ok = self.first[idx]
            if fp != first_fp:
                problems = ["output differs from the first run of this unit"]
            else:
                problems = [] if first_ok else ["repeats a failed output"]
        if problems:
            self._fail(idx, problems)


def run_unit(wl, checker: Checker, idx: int, unit) -> float:
    """Time one call (ns), then check its output; inf if the call raised."""
    start = time.perf_counter_ns()
    try:
        raw = wl.call(unit)
    except Exception as exc:
        checker.raised(idx, exc)
        return float("inf")
    elapsed = time.perf_counter_ns() - start
    checker.verify(idx, unit, wl.collect(unit, raw))
    return elapsed


def run_timed(wl, checker: Checker, seconds: float, prober: Prober) -> dict:
    """Closed loop over the units until `seconds` have passed.

    The host's speed flips between a fast and a ~1.6x slower state within
    fractions of a second (other tenants on the shared cores), so a raw
    percentile mostly measures which state the calls hit.  Each unit is
    therefore run many times and represented by its fastest repeat, as
    timeit does; the metrics are taken over those per-unit latencies.

    The loop keeps no per-call state, so the peak RSS does not grow with
    the number of calls a faster library fits into the run.
    """
    units = wl.units
    warm_end = time.perf_counter() + WARMUP_S
    for idx, unit in enumerate(units):
        run_unit(wl, checker, idx, unit)
        if time.perf_counter() >= warm_end:
            break
    best = [float("inf")] * len(units)
    calls = 0
    prober.start(seconds)
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        deadline += prober.poll()
        idx = calls % len(units)
        best[idx] = min(best[idx], run_unit(wl, checker, idx, units[idx]))
        calls += 1
    prober.finish()
    timed = range(min(calls, len(units)))
    per_unit = sorted(best[idx] for idx in timed)
    n = len(per_unit)
    tail_idx = max(0, n - 1 - TAIL_BEYOND)
    return {
        "samples": calls,
        "units": n,
        "rows_per_s": sum(wl.rows(units[idx]) for idx in timed) / (sum(per_unit) * 1e-9),
        "call_p50_ms": median(per_unit) * 1e-6,
        "call_tail_ms": per_unit[tail_idx] * 1e-6,
        "tail_percentile": 100.0 * (tail_idx + 1) / n,
    }


def run_pass(wl, checker: Checker, tracer=None) -> int:
    total = 0
    for idx, unit in enumerate(wl.trace_units):
        if tracer is not None:
            tracer.request = idx
        total += run_unit(wl, checker, idx, unit)
    return total


def run_traced(wl, checker: Checker, tracer, seconds: float, prober: Prober) -> dict:
    untraced, traced, summaries, first_spans = [], [], [], None
    prober.start(seconds)
    deadline = time.perf_counter() + seconds
    while True:
        deadline += prober.poll()
        untraced.append(run_pass(wl, checker))
        spans = tracer.install()
        try:
            traced.append(run_pass(wl, checker, tracer))
        finally:
            tracer.uninstall()
        tracer.capture = False
        summaries.append(spans.summary())
        first_spans = first_spans or spans
        if time.perf_counter() >= deadline:
            break
    prober.finish()
    return {
        "passes": len(traced),
        "untraced_pass_s": median(untraced) * 1e-9,
        "traced_pass_s": median(traced) * 1e-9,
        "overhead_frac": median(traced) / median(untraced) - 1.0,
        "summaries": summaries,
        "spans": first_spans,
    }


def median(values):
    ordered = sorted(values)
    mid = len(ordered) // 2
    return ordered[mid] if len(ordered) % 2 else 0.5 * (ordered[mid - 1] + ordered[mid])


def accuracy_figures(captured: dict) -> dict:
    def max_resid(name):
        mats = [result for _, result in captured[name]]
        return float(np.max(workloads.current_residual(np.array(mats)))) if mats else 0.0

    unitarity = [abs(abs(r.t_amp) ** 2 + abs(r.r_amp) ** 2 - 1.0) for _, r in captured["connection.scatter"]]
    roundtrip = [
        float(np.max(np.abs(np.exp(1j * q.theta) * np.array([[q.alpha, q.beta], [q.gamma, q.delta]]) - args[0])))
        for args, q in captured["connection.decompose"]
    ]
    return {
        "schrodinger.three_delta_transfer.max_current_resid": max_resid("schrodinger.three_delta_transfer"),
        "dirac.finite_barrier_transfer.max_current_resid": max_resid("dirac.finite_barrier_transfer"),
        "connection.scatter.max_unitarity_resid": max(unitarity, default=0.0),
        "connection.decompose.max_roundtrip_err": max(roundtrip, default=0.0),
    }


def cli_bytes_changed(lib, wl, checker: Checker, seed: int, workdir: str) -> int:
    """CLI output files whose bytes differ from the digests recorded for their seed.

    cli_digests.json holds the digests of the traced units for seeds
    0..SEEDS-1; another seed is compared through seed % SEEDS, run untraced.
    Digests recorded for another row count or unit count are refused.
    """
    record = json.loads((BENCH / "cli_digests.json").read_text())
    recorded = record["digests"]
    shape = (record["rows"], record["units_per_seed"], len(recorded))
    if shape != (wl.ROWS, len(wl.trace_units), SEEDS):
        raise RuntimeError(
            f"cli_digests.json holds {shape[2]} seeds of {shape[1]} files of {shape[0]} rows, expected "
            f"{SEEDS} of {len(wl.trace_units)} of {wl.ROWS}: re-record it with bench/record_digests.py"
        )
    ref_seed = seed % SEEDS
    if ref_seed == seed:
        got = [checker.first[idx][0][1] for idx in range(len(wl.trace_units))]
    else:
        ref = workloads.CliSweeps(lib, ref_seed, workdir)
        got = [ref.fingerprint(ref.collect(u, ref.call(u)))[1] for u in ref.trace_units]
    return sum(g != e for g, e in zip(got, recorded[ref_seed]))


def per_row_table(wl, result: dict) -> list[str]:
    """The per-call and per-row figures of one traced run (microseconds)."""
    spans = result["spans"]
    idx = np.frombuffer(spans.name_idx, dtype=np.int32)
    parent = np.frombuffer(spans.parent, dtype=np.int32)
    row_idx = LAYER_NAMES.index("analysis.SweepRow")
    row_parents = parent[(idx == row_idx) & (parent >= 0)]
    rows_under = np.bincount(idx[row_parents], minlength=len(LAYER_NAMES))
    lines = [f"{'name':40s} {'calls':>8s} {'incl_us/call':>13s} {'self_us/call':>13s} {'incl_us/row':>12s}"]
    first = result["summaries"][0]
    for i, name in enumerate(LAYER_NAMES):
        calls = first[name]["calls"]
        if not calls:
            continue
        incl = median([s[name]["incl_s"] for s in result["summaries"]])
        own = median([s[name]["self_s"] for s in result["summaries"]])
        if name == "cli.main":
            rows = calls * wl.ROWS
        elif name == "analysis.correspondence_table":
            rows = rows_under[i] // 3  # three labelled rows per energy
        else:
            rows = rows_under[i]
        per_row = f"{1e6 * incl / rows:12.3f}" if rows else f"{'':12s}"
        lines.append(f"{name:40s} {calls:8d} {1e6 * incl / calls:13.3f} {1e6 * own / calls:13.3f} {per_row}")
    return lines


def end_to_end(wl, checker: Checker, seconds: float, prober: Prober):
    """Metrics, result-file detail and printed notes of an untraced run."""
    timed = run_timed(wl, checker, seconds, prober)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {
        "rows_per_s": (timed["rows_per_s"], "1/s"),
        "call_p50_ms": (timed["call_p50_ms"], "ms"),
        "call_tail_ms": (timed["call_tail_ms"], "ms"),
        "peak_rss_mb": (rss_mb, "MB"),
    }
    notes = [
        f"{timed['samples']} timed calls over {timed['units']} units; each unit's latency is its fastest repeat",
        f"call_tail_ms is p{timed['tail_percentile']:.3f} over units: {TAIL_BEYOND} of {timed['units']} were slower",
    ]
    return metrics, timed, notes


def per_layer(lib, wl, checker: Checker, args, workdir: str, prober: Prober):
    """Metrics, result-file detail and printed notes of a traced run."""
    tracer = Tracer(lib)
    traced = run_traced(wl, checker, tracer, args.seconds, prober)
    summaries = traced["summaries"]
    metrics = {}
    for name in LAYER_NAMES:
        metrics[f"{name}.calls"] = (summaries[0][name]["calls"], "count")
        metrics[f"{name}.self_s"] = (median([s[name]["self_s"] for s in summaries]), "s")
        metrics[f"{name}.raised"] = (summaries[0][name]["raised"], "count")
    metrics["trace.overhead_frac"] = (traced["overhead_frac"], "ratio")
    for name, value in accuracy_figures(tracer.captured).items():
        metrics[name] = (value, "abs")
    changed = 0
    if args.workload == "cli_sweeps":
        changed = cli_bytes_changed(lib, wl, checker, args.seed, workdir)
    metrics["cli.main.bytes_changed"] = (changed, "count")
    unstable = [n for n in LAYER_NAMES if len({s[n]["calls"] for s in summaries}) > 1]
    spans_path = OUT / f"{args.workload}-spans.csv"
    detail = {k: traced[k] for k in ("passes", "untraced_pass_s", "traced_pass_s")}
    detail.update(
        missing_names=tracer.missing,
        calls_vary_between_passes=unstable,
        table=per_row_table(wl, traced),
        spans_written=traced["spans"].write(spans_path),
    )
    notes = detail["table"] + [
        f"{detail['passes']} traced passes; spans of the first in {spans_path.relative_to(library.ROOT)}",
    ]
    if tracer.missing or unstable:
        notes.append(f"missing names {tracer.missing}; calls varying between passes {unstable}")
    return metrics, detail, notes


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        lib, _ = library.load()
    except (library.LibraryMissing, ImportError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"tmp-{os.getpid()}"
    workdir.mkdir(exist_ok=True)
    try:
        prober = Prober(args.workload, args.seed, str(workdir))
        wl = workloads.WORKLOADS[args.workload](lib, args.seed, str(workdir))
        checker = Checker(wl)
        env = env_block()
        if args.trace == 0:
            metrics, detail, notes = end_to_end(wl, checker, args.seconds, prober)
            metrics["setup_s"] = (median(prober.setup), "s")
        else:
            metrics, detail, notes = per_layer(lib, wl, checker, args, str(workdir), prober)
            metrics["setup.import_s"] = (median(prober.imports), "s")
        if hasattr(wl, "loose_rows"):
            loose = sum(wl.loose_rows(unit) for unit in wl.units)
            rows = sum(wl.rows(unit) for unit in wl.units)
            detail["loose_rows"] = loose
            notes.append(f"{loose} of {rows} rows have a check tolerance >= |reference error|: "
                         "there the check cannot catch a wrong value, 0 included")
    finally:
        for path in workdir.iterdir():
            path.unlink()
        workdir.rmdir()

    error_rate = checker.failed / checker.attempted if checker.attempted else 1.0
    print(f"env {json.dumps(env)}")
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds} trace {args.trace}")
    for line in notes + [f"FAILED {problem}" for problem in checker.problems]:
        print(line)
    print(f"error_rate {error_rate} ratio ({checker.failed} of {checker.attempted} outputs)")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value} {unit}")
    result = {
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    record = dict(result, workload=args.workload, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, env=env, error_rate=error_rate, detail=detail,
                  setup_samples_s=prober.setup, import_samples_s=prober.imports)
    out_path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_path.write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
