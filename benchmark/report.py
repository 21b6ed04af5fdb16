"""Run every workload, each in its own process, and print the end-to-end
metrics side by side, with units, plus any failed jobs.

    python3 benchmark/report.py --seed 1 --seconds 30 [--trace 0|1]
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

from workloads import WORKLOADS  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    saved = {}
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True)
        if proc.returncode != 0:
            print(f"{workload}: exit code {proc.returncode}\n{proc.stderr}", file=sys.stderr)
            return proc.returncode
        path = HERE / "out" / f"{workload}-seed{args.seed}-trace{args.trace}.json"
        saved[workload] = json.loads(path.read_text())
        if args.trace:
            print(proc.stdout.rsplit("\n", 2)[0])

    names = list(saved[WORKLOADS[0]]["metrics"])
    if not args.trace:
        names.insert(names.index("ok_ratio"), "fail_ratio")
    print(f"{'metric':40} {'unit':6} " + " ".join(f"{w:>15}" for w in WORKLOADS))
    for name in names:
        cells, unit = [], ""
        for workload in WORKLOADS:
            if name == "fail_ratio":
                value, unit = saved[workload]["fail_ratio"], "ratio"
            else:
                metric = saved[workload]["metrics"][name]
                value, unit = metric["value"], metric["unit"]
            cells.append(f"{value:15.4f}")
        print(f"{name:40} {unit:6} " + " ".join(cells))
    if not args.trace:
        print(f"{'tail percentile / jobs':47} " + " ".join(
            f"{'p%.1f/%d' % (saved[w]['tail_percentile'], saved[w]['tail_samples']):>15}"
            for w in WORKLOADS))
    for workload in WORKLOADS:
        print(f"{workload}: report digest {saved[workload]['digest'] or '(no CLI jobs)'}")
        for failure in saved[workload]["failures"]:
            print(f"  failed {failure['job']} {failure['key']}: {failure['detail']}")
        for problem in saved[workload]["problems"]:
            print(f"  run problem: {problem}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
