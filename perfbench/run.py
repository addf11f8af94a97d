"""The lpnse benchmark: one workload, end-to-end or traced.

  python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
./src.  Workloads: solve3d, pipeline2d, diag3d, report3d (see README.md
in this directory).  With --trace 0 the last stdout line carries the
end-to-end metrics, with --trace 1 the per-layer metrics; lines before
it print every metric by name and unit, and the provenance.

This file uses the standard library only.  It starts the workers in
worker.py one at a time and waits for each:

* --trace 0: three workers set up the workload; setup_s is the median of
  their spawn-to-ready times.  The third then runs the timed closed loop.
* --trace 1: one worker sets up, runs units untraced for half the time,
  then the same units with layer spans installed.

The machine this benchmark was built on is shared, and its speed swings
by up to 1.6x within minutes, so raw wall times of one seed spread by up
to 30% (interquartile range over median) across consecutive runs.  Every
worker therefore times a fixed host probe (worker.HostProbe) right after
set-up and between units.  The end-to-end times are reported at the
reference host speed, where the probe takes PROBE_REF_S: each set-up and
each unit latency is multiplied by PROBE_REF_S over the probe time next
to it.  The raw wall times are printed beside them and kept in details.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("solve3d", "pipeline2d", "diag3d", "report3d")
SETUPS = 3
PROBE_REF_S = 0.020
DEADLINE_S = 170.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


class BenchError(Exception):
    pass


def tail(latencies):
    """(value, percentile, units beyond): the highest percentile of unit
    latency with at least ten units beyond it, or the maximum when there
    are ten units or fewer.  With fewer than 21 units that percentile
    lies below the median; the percentile is recorded with the value."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0, 0
    return ordered[n - 11], 100.0 * (n - 10) / n, 10


def start_worker(args, mode, env, deadline):
    """Run one worker; returns (spawn-to-ready seconds, the host probe
    time after set-up, the worker's JSON or None)."""
    cmd = [sys.executable, str(HERE / "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--mode", mode]
    spawn = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                            env=dict(env, PERFBENCH_SPAWN=repr(spawn)))
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise BenchError(f"{mode} worker ran past the deadline")
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    if proc.returncode != 0:
        raise BenchError(f"{mode} worker exited {proc.returncode}")
    lines = out.splitlines()
    marks = {line.split()[0]: float(line.split()[1]) for line in lines
             if line.startswith(("READY ", "PROBE "))}
    if len(marks) != 2:
        raise BenchError(f"{mode} worker never became ready")
    result = json.loads(lines[-1]) if mode != "setup" else None
    return marks["READY"] - spawn, marks["PROBE"], result


def at_reference_speed(latencies, probes):
    """Each latency times PROBE_REF_S over the mean of the host probes
    taken just before and just after it."""
    return [lat * 2.0 * PROBE_REF_S / (before + after)
            for lat, before, after in zip(latencies, probes, probes[1:])]


def timing_metrics(setups, latencies):
    value, _, _ = tail(latencies)
    return {
        "setup_s": (statistics.median(setups), "s"),
        "units_per_s": (len(latencies) / sum(latencies), "1/s"),
        "unit_p50_ms": (1e3 * statistics.median(latencies), "ms"),
        "unit_ptail_ms": (1e3 * value, "ms"),
    }


def end_to_end(args, env, deadline):
    setups, setup_probes = [], []
    for k in range(SETUPS):
        mode = "run" if k == SETUPS - 1 else "setup"
        setup_s, probe_s, result = start_worker(args, mode, env, deadline)
        setups.append(setup_s)
        setup_probes.append(probe_s)
    raw = result["latencies_s"]
    attempted = len(raw)
    if attempted == 0:
        raise BenchError("no unit completed")
    latencies = at_reference_speed(raw, result["probes_s"])
    metrics = timing_metrics(
        [s * PROBE_REF_S / p for s, p in zip(setups, setup_probes)],
        latencies)
    metrics["peak_rss_mb"] = (result["peak_rss_kib"] / 1024.0, "MiB")
    wall = timing_metrics(setups, raw)
    _, pct, beyond = tail(latencies)
    fail_frac = result["failed"] / attempted
    print(f"workload {args.workload}  seed {args.seed}  {attempted} units "
          f"in {result['phase_s']:.2f} s  (closed loop, one client)")
    print(f"  {'metric':<14} {'at ref. speed':>14}  {'raw wall':>12}")
    for name, (v, unit) in metrics.items():
        raw_v = f"{wall[name][0]:12.6g}" if name in wall else f"{'':12}"
        print(f"  {name:<14} {v:14.6g}  {raw_v} {unit}")
    print(f"  {'fail_frac':<14} {fail_frac:14.6g}  {'':12} ratio  "
          f"({result['failed']} of {attempted} units)")
    details = {
        "workload": args.workload, "seed": args.seed,
        "probe_ref_s": PROBE_REF_S,
        "raw_wall": {k: v for k, (v, _) in wall.items()},
        "setup_samples_s": setups, "setup_probes_s": setup_probes,
        "tail": {"percentile": pct, "units": attempted,
                 "units_beyond": beyond},
        "latencies_ms": [round(1e3 * x, 3) for x in raw],
        "probes_ms": [round(1e3 * x, 3) for x in result["probes_s"]],
        "fail_frac": fail_frac, "failures": result["messages"],
        "io": "snapshot reads come from the page cache; disk behaviour "
              "is not measured",
        "provenance": result["provenance"],
    }
    return attempted, result["failed"], metrics, details


def traced(args, env, deadline):
    _, _, result = start_worker(args, "trace", env, deadline)
    metrics = {k: (v["value"], v["unit"])
               for k, v in result["layer_metrics"].items()}
    print(f"workload {args.workload}  seed {args.seed}  traced "
          f"{result['units']} units (each also run untraced)")
    for name, (v, unit) in metrics.items():
        print(f"  {name:<38} {v:14.6g} {unit}")
    details = {"workload": args.workload, "seed": args.seed,
               "spans_file": result["spans_file"],
               "failures": result["messages"],
               "provenance": result["provenance"]}
    return result["attempted"], result["failed"], metrics, details


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    src = ROOT / "src"
    if not (src / "lpnse" / "__init__.py").is_file():
        print(f"error: no lpnse sources under {src}", file=sys.stderr)
        return 2
    env = dict(os.environ, PYTHONPATH=str(src))
    env.update({var: "1" for var in THREAD_VARS})
    try:
        run = traced if args.trace else end_to_end
        attempted, failed, metrics, details = run(args, env, deadline)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print("details " + json.dumps(details, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
