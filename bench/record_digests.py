"""Record the digests of the traced cli_sweeps outputs for seeds 0..SEEDS-1.

    python3 bench/record_digests.py

Writes bench/cli_digests.json, which run.py compares against to report
cli.main.bytes_changed.  Re-record only when a change of output bytes is
intended.
"""

import hashlib
import json
import shutil
import tempfile

import library

SEEDS = 64


def main() -> None:
    lib, _ = library.load()
    from workloads import CliSweeps

    library.ROOT.joinpath(".bench_out").mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(dir=library.ROOT / ".bench_out")
    try:
        digests = []
        for seed in range(SEEDS):
            wl = CliSweeps(lib, seed, workdir)
            row = []
            for unit in wl.trace_units:
                code, data = wl.collect(unit, wl.call(unit))
                if code != 0:
                    raise SystemExit(f"seed {seed}: {unit.argv[0]} exited {code}")
                row.append(hashlib.sha256(data).hexdigest())
            digests.append(row)
    finally:
        shutil.rmtree(workdir)
    record = {"rows": CliSweeps.ROWS, "units_per_seed": len(digests[0]), "digests": digests}
    (library.ROOT / "bench" / "cli_digests.json").write_text(json.dumps(record, indent=1) + "\n")


if __name__ == "__main__":
    main()
