"""Run the benchmark over several seeds and summarise each metric.

  python3 perfbench/collect.py --seeds 1-10 [--workloads solve3d ...]
      [--seconds 20] [--trace 0|1] [--out FILE]

For every workload and metric it reports the median, the quartiles
(`statistics.quantiles(values, n=4)`) and the spread, the distance
between the quartiles as a share of the median.  With --trace 0 each
spread is compared against a third of the metric's bound in
BENCHMARK.json.  Runs are sequential; run from the repository root.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seed_list(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def summarise(values):
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0,
            "values": values}


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+",
                        default=[w["name"] for w in bench["workloads"]])
    parser.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=None)
    args = parser.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    report = {"seconds": args.seconds, "seeds": args.seeds,
              "trace": args.trace, "workloads": {}}
    steady = True
    for workload in args.workloads:
        values, provenance, failed, attempted = {}, None, 0, 0
        for seed in args.seeds:
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(args.seconds),
                 "--trace", str(args.trace)],
                cwd=ROOT, capture_output=True, text=True)
            lines = proc.stdout.splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n"
                      f"{proc.stderr}", file=sys.stderr)
                return 1
            result = json.loads(lines[-1])
            details = json.loads(lines[-2].split(" ", 1)[1])
            provenance = details["provenance"]
            failed += result["failed"]
            attempted += result["attempted"]
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()
                if not args.trace or not k.endswith(("_calls", ".calls"))),
                flush=True)
        summary = {name: summarise(vals) for name, vals in values.items()}
        for name, stats in summary.items():
            if name in bounds and name != "setup_s":
                stats["within_third_of_bound"] = (
                    stats["spread"] < bounds[name] / 3.0)
                steady &= stats["within_third_of_bound"]
            if not args.trace:
                print(f"  {workload:<10} {name:<14} median {stats['median']:12.6g}"
                      f"  spread {stats['spread']:.4f}"
                      f"  bound {bounds.get(name, float('nan'))}")
        report["workloads"][workload] = {"metrics": summary,
                                         "attempted": attempted,
                                         "failed": failed,
                                         "provenance": provenance}
    report["steady"] = steady
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1,
                                             sort_keys=True) + "\n")
    print("steady" if steady else "NOT steady: a spread exceeds a third "
          "of its bound")
    return 0


if __name__ == "__main__":
    sys.exit(main())
