"""One set-up measured in a fresh process: start, import pointscatter, build inputs.

Prints one JSON line: "ready" is time.monotonic() once the workload's inputs
exist (the moment the first timed call could start) and "import_s" the time
`import pointscatter` took.  run.py starts several of these and takes the
median of ready minus the time it started each one.
"""

import argparse
import json
import time

import library


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workdir", required=True)
    args = parser.parse_args()
    lib, import_s = library.load()
    import workloads

    workloads.WORKLOADS[args.workload](lib, args.seed, args.workdir)
    print(json.dumps({"ready": time.monotonic(), "import_s": import_s}))


if __name__ == "__main__":
    main()
