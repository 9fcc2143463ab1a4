"""Print every end-to-end metric of both workloads, with units, and the
correctness verdict.

    python3 perfbench/report.py [--seed N]

Runs ``run.py --trace 0`` once per workload, for BENCHMARK.json's
``run_seconds``, from the current directory (the root of a checkout) and
exits non-zero unless both runs were correct.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from run import DEFAULT_SEED  # noqa: E402


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    args = ap.parse_args()
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())

    results = {}
    for wl in (w["name"] for w in bench["workloads"]):
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", wl, "--seed", str(args.seed),
             "--seconds", str(bench["run_seconds"]), "--trace", "0"],
            capture_output=True, text=True,
        )
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{wl}: benchmark exited {proc.returncode}\n{proc.stderr}", file=sys.stderr)
            return 1
        results[wl] = json.loads(lines[-1])

    names = list(results)
    print(f"{'metric':<20} {'unit':<6} " + " ".join(f"{n:>16}" for n in names))
    for m in bench["end_to_end"]:
        cells = " ".join(f"{results[n]['metrics'][m['name']]['value']:>16.4f}" for n in names)
        print(f"{m['name']:<20} {m['unit']:<6} {cells}")
    ok = True
    for n in names:
        r = results[n]
        ok = ok and r["correct"]
        print(f"{n}: correct={r['correct']} attempted={r['attempted']} failed={r['failed']} "
              f"error_rate={r['failed'] / r['attempted']:.4f}")
    print("verdict:", "CORRECT" if ok else "INCORRECT")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
