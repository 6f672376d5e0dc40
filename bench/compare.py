"""Print each metric's ratio against a previous result file.

    python3 bench/compare.py OLD.json NEW.json

Each file is a result written by run.py under .bench_out/, or a file holding
the JSON object run.py prints last.  Ratios are NEW/OLD, with the base
printed beside them.  This reports and never gates: the exit code is 0
whenever both files could be read.
"""

import json
import sys


def load(path: str) -> dict:
    with open(path, encoding="utf-8") as handle:
        text = handle.read()
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        return json.loads(text.strip().splitlines()[-1])


def show(value) -> str:
    return f"{value:14.6g}" if value is not None else f"{'missing':>14s}"


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    old, new = (load(path) for path in argv)
    for key in ("workload", "seed", "trace"):
        if old.get(key) != new.get(key):
            print(f"note: {key} differs: {old.get(key)!r} -> {new.get(key)!r}")
    old_env, new_env = old.get("env", {}), new.get("env", {})
    for key in sorted(set(old_env) | set(new_env)):
        marker = "" if old_env.get(key) == new_env.get(key) else "  (differs)"
        print(f"env {key}: {old_env.get(key)} -> {new_env.get(key)}{marker}")
    old_m, new_m = old["metrics"], new["metrics"]
    print(f"{'metric':56s} {'old':>14s} {'new':>14s} {'new/old':>9s}  unit")
    for name in list(old_m) + [n for n in new_m if n not in old_m]:
        a = old_m.get(name, {}).get("value")
        b = new_m.get(name, {}).get("value")
        unit = (new_m.get(name) or old_m.get(name))["unit"]
        ratio = f"{b / a:9.4f}" if a and b is not None else f"{'n/a':>9s}"
        print(f"{name:56s} {show(a)} {show(b)} {ratio}  {unit}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
