"""One benchmark process: set up a workload, then run its units in a
closed loop with one client (the next unit starts when the previous one
ends, as for a user of a batch CLI who waits for each result).

Started by run.py, never by hand:

  python3 perfbench/worker.py --workload W --seed N --seconds S \
      --mode setup|run|trace

Protocol on stdout: "READY <perf_counter>" once set-up and warm-up are
done, then (modes run and trace) one JSON line with the measurements.
Checks run between units and are excluded from unit latency.
"""

import argparse
import contextlib
import hashlib
import io
import itertools
import json
import math
import os
import resource
import shutil
import subprocess
import sys
import time
from pathlib import Path

import spans

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
HERE = Path(__file__).resolve().parent

# criterion 4's acceptance triples (r, p, q), 2/q + 3/p = 1 + r
SPLIT_TRIPLES = ((0.25, 4.0, 4.0), (0.5, 6.0, 2.0), (1.0, 6.0, 4.0 / 3.0))

# (triple, s, lambda) for report3d: the README example, then criterion
# 4's triples with other losing parameters
REPORT_PARAMS = (("0.5,4,2.6666666666666665", 0.5, 1.0),
                 ("0.25,4,4", 0.25, 2.0),
                 ("0.5,6,2", 0.5, 1.0),
                 ("1,6,1.3333333333333333", 0.75, 0.5))

REPORT_CSVS = ("besov_u.csv", "blocks_w.csv", "w_sup.csv", "epsilon.csv",
               "losing_weight.csv", "envelope.csv")


def unit_seed(seed: int, i: int) -> int:
    return (seed * 100_003 + i) % 2**31


def strict_json(path):
    """Parse JSON as the standard defines it: NaN and Infinity are errors."""
    def reject(token):
        raise ValueError(f"{path}: non-standard JSON constant {token}")

    with open(path) as fh:
        return json.load(fh, parse_constant=reject)


def nonfinite(value, where=""):
    """Paths of non-finite numbers in a parsed JSON value."""
    if isinstance(value, bool) or value is None or isinstance(value, str):
        return []
    if isinstance(value, (int, float)):
        return [] if math.isfinite(value) else [where]
    if isinstance(value, dict):
        return [p for k, v in value.items() for p in nonfinite(v, f"{where}.{k}")]
    return [p for k, v in enumerate(value) for p in nonfinite(v, f"{where}[{k}]")]


def sha256(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def check_manifest(outdir):
    failures = []
    manifest = strict_json(Path(outdir) / "manifest.json")
    for entry in manifest["outputs"]:
        if sha256(entry["path"]) != entry["sha256"]:
            failures.append(f"sha256 mismatch for {entry['path']}")
    return failures


def check_summary(path):
    summary = strict_json(path)
    failures = [f"non-finite summary value {p}" for p in nonfinite(summary)]
    if summary.get("degenerate") is not False:
        failures.append("degenerate twin pair")
    for key in ("c_sup", "final_W"):
        if not isinstance(summary.get(key), (int, float)):
            failures.append(f"summary lacks a number for {key}")
    return failures


# --- workloads --------------------------------------------------------------

class Workload:
    """A unit is `unit(i)`; `check(i, out)` returns failure messages."""

    in_process = True

    def __init__(self, seed: int, work: Path):
        self.seed = seed
        self.work = work
        self.tracer = None
        self.startup_s = 0.0

    def import_program(self, spawn):
        import lpnse.cli  # noqa: F401

        self.startup_s = time.perf_counter() - spawn
        if not Path(lpnse.cli.__file__).resolve().is_relative_to(SRC):
            raise RuntimeError(f"lpnse imported from {lpnse.cli.__file__}, "
                               f"not from {SRC}")

    def setup(self):
        pass

    def warm_up(self):
        """One unit outside the timed phase, which must pass."""
        _, failures = run_unit(self, -1)
        if failures:
            raise RuntimeError("warm-up unit failed: " + "; ".join(failures))

    def cleanup(self, i):
        pass


class Solve3D(Workload):
    """One solver.run of 2 IF-RK4 steps, 3D n=32, seeded random IC."""

    def unit(self, i):
        from lpnse.solver import SolverConfig, run

        config = SolverConfig(dim=3, n=32, nu=(0.01, 0.05)[i % 2], dt=5e-3,
                              t_end=1e-2, ic="random-divfree",
                              seed=unit_seed(self.seed, i), snap_every=1)
        return run(config)

    def check(self, i, traj):
        import numpy as np
        from lpnse.solver import energy_balance_residual

        failures = []
        if len(traj) != 3:
            failures.append(f"{len(traj)} snapshots, expected 3")
        if not all(np.isfinite(s.data).all() for s in traj.snapshots):
            failures.append("non-finite snapshot")
        residual = energy_balance_residual(traj)
        if not residual <= 1e-4:
            failures.append(f"energy balance residual {residual:.3e} > 1e-4")
        return failures


class Diag3D(Workload):
    """bkm_ratio, split_constants and block_norms(p = 2, 4, inf) of one
    3D n=64 divergence-free field from a seeded pool."""

    def setup(self):
        import numpy as np
        from lpnse import ensembles
        from lpnse.besov import BesovSpec, CriterionTriple, besov_norm
        from lpnse.field import scale
        from lpnse.grid import Grid

        rng = np.random.default_rng(self.seed)
        grid = Grid(3, 64)
        self.triples = [CriterionTriple(*t) for t in SPLIT_TRIPLES]
        self.pool = []
        # field k is scaled to unit B^r_{p,inf} norm for triple k, as in
        # criterion 4, so the split level stays inside the grid
        for triple in self.triples:
            u = ensembles.divfree_noise(grid, rng, slope=2.0)
            norm = besov_norm(u, BesovSpec(triple.r, triple.p, math.inf))
            self.pool.append(scale(u, 1.0 / norm))

    def unit(self, i):
        from lpnse.besov import bkm_ratio, split_constants
        from lpnse.blocks import block_norms

        k = i % len(self.pool)
        u = self.pool[k]
        return (bkm_ratio(u), split_constants(u, self.triples[k]),
                [block_norms(u, p) for p in (2.0, 4.0, math.inf)])

    def check(self, i, out):
        import numpy as np

        ratio, consts, norms = out
        triple = self.triples[i % len(self.pool)]
        failures = []
        if not (math.isfinite(ratio) and ratio > 0):
            failures.append(f"bkm ratio {ratio!r}")
        expected = math.floor(triple.q / 2.0
                              * math.log2(math.e + consts["norm"])) + 1
        if consts["N"] != expected:
            failures.append(f"split level {consts['N']} != {expected}")
        for p, values in zip((2, 4, "inf"), norms):
            if not (np.isfinite(values).all() and (values >= 0).all()):
                failures.append(f"block norms p={p} not finite and >= 0")
        return failures


class Report3D(Workload):
    """In-process `lpnse report` on a stored 3D n=32 twin pair."""

    SNAPSHOTS = 9
    NU = 0.05
    DT = 5e-3
    DELTA = 1e-4

    def setup(self):
        self.pair = self.work / "pair"
        write_decay_pair(self.pair, self.seed, self.SNAPSHOTS, self.NU,
                         self.DT, self.DELTA)
        self.u, self.v = self.pair / "u", self.pair / "v"
        self.first = {}

    def warm_up(self):
        super().warm_up()
        self.first.clear()

    def unit(self, i):
        import lpnse.cli

        triple, s, lam = REPORT_PARAMS[i % len(REPORT_PARAMS)]
        out = self.work / f"report-{i}"
        argv = ["report", "--u", str(self.u), "--v", str(self.v),
                "--triple", triple, "--s", repr(s), "--lambda", repr(lam),
                "--out", str(out)]
        with contextlib.redirect_stdout(io.StringIO()):
            code = lpnse.cli.main(argv)
        return out, code

    def check(self, i, result):
        out, code = result
        if code != 0:
            return [f"report exit code {code}"]
        failures = check_summary(out / "summary.json")
        for name in REPORT_CSVS:
            with open(out / name) as fh:
                rows = sum(1 for _ in fh) - 1
            if rows != self.SNAPSHOTS:
                failures.append(f"{name}: {rows} rows, expected "
                                f"{self.SNAPSHOTS}")
        digests = {name: sha256(out / name)
                   for name in REPORT_CSVS + ("summary.json",)}
        first = self.first.setdefault(i % len(REPORT_PARAMS), digests)
        failures += [f"{name} differs from the first report with the same "
                     f"parameters" for name in digests
                     if digests[name] != first[name]]
        return failures

    def cleanup(self, i):
        shutil.rmtree(self.work / f"report-{i}", ignore_errors=True)


def write_decay_pair(outdir, seed, snapshots, nu, dt, delta):
    """A twin pair following the exact viscous decay
    u(k, t) = u0(k) exp(-nu |k|^2 t) of seeded solenoidal data, with
    v0 = u0 + delta * ||u0|| / ||p|| * p for a seeded solenoidal p.
    Report cost depends only on dim, n and the snapshot count, so the
    pair is built without the solver."""
    import numpy as np
    from lpnse import ensembles
    from lpnse.field import Field, SPECTRAL, l2_norm_spectral
    from lpnse.grid import Grid
    from lpnse.snapshots import save_trajectory
    from lpnse.solver import SolverConfig, Trajectory

    grid = Grid(3, 32)
    u0 = ensembles.solenoidal_field(grid, 8.0, seed, slope=2.0)
    u0 = u0.data / l2_norm_spectral(u0)
    pert = ensembles.solenoidal_field(grid, 8.0, seed + 1, slope=1.0)
    v0 = u0 + delta * pert.data / l2_norm_spectral(pert)
    steps = snapshots - 1
    times = np.arange(snapshots) * dt
    config = SolverConfig(dim=3, n=32, nu=nu, dt=dt, t_end=steps * dt,
                          ic="random-divfree", seed=seed, snap_every=1)
    for name, spec0 in (("u", u0), ("v", v0)):
        specs = [spec0 * np.exp(-nu * grid.k_sq * t) for t in times]
        power = [np.sum(np.abs(s) ** 2, axis=0) for s in specs]
        series = {
            "t": times,
            "energy": np.array([grid.volume * np.sum(p) for p in power]),
            "grad_sq": np.array([grid.volume * np.sum(grid.k_sq * p)
                                 for p in power]),
        }
        traj = Trajectory(config, grid, times,
                          [Field(grid, s, SPECTRAL) for s in specs], series)
        save_trajectory(Path(outdir) / name, traj)


class Pipeline2D(Workload):
    """`lpnse simulate`, `lpnse twin --delta 1e-4`, `lpnse report`, each
    its own process, on a 2D n=64 seeded random IC."""

    in_process = False
    TRIPLE = "0.5,4,2.6666666666666665"

    def import_program(self, spawn):
        pass  # the program runs in child processes

    def warm_up(self):
        # one start-up warms the bytecode and page caches; a full unit
        # would triple the set-up time for no other effect
        code, err = self.cli(["--help"], None)
        if code:
            raise RuntimeError(f"lpnse --help exited {code}: {err}")

    def cli(self, argv, unit):
        env = dict(os.environ)
        if self.tracer is None:
            cmd = [sys.executable, "-m", "lpnse.cli"] + argv
        else:
            path = self.work / f"spans-{len(self.tracer.spans)}.json"
            env.update(PERFBENCH_SPANS=str(path), PERFBENCH_UNIT=str(unit),
                       PERFBENCH_SPAWN=repr(time.perf_counter()))
            cmd = [sys.executable, str(HERE / "cli_shim.py")] + argv
        proc = subprocess.run(cmd, env=env, cwd=ROOT,
                              stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True)
        if self.tracer is not None:
            with open(path) as fh:
                self.tracer.extend(json.load(fh))
            path.unlink()
        return proc.returncode, proc.stderr.strip()[-300:]

    def unit(self, i):
        base = self.work / f"unit-{i}"
        seed = str(unit_seed(self.seed, i))
        sets = []
        for pair in ("dim=2", "n=64", "ic=random-divfree", f"seed={seed}",
                     "nu=0.05", "dt=0.0025", "t_end=0.025", "snap_every=2"):
            sets += ["--set", pair]
        commands = (
            ["simulate"] + sets + ["--out", str(base / "run")],
            ["twin"] + sets + ["--delta", "1e-4", "--seed", seed,
                               "--out", str(base / "twins")],
            ["report", "--u", str(base / "twins" / "u"),
             "--v", str(base / "twins" / "v"), "--triple", self.TRIPLE,
             "--s", "0.5", "--lambda", "1.0", "--out", str(base / "report")],
        )
        return base, [self.cli(argv, i) for argv in commands]

    def check(self, i, result):
        base, codes = result
        failures = [f"{name} exited {code}: {err}" for name, (code, err)
                    in zip(("simulate", "twin", "report"), codes) if code]
        if failures:
            return failures
        for sub in ("run", "twins", "report"):
            failures += check_manifest(base / sub)
        return failures + check_summary(base / "report" / "summary.json")

    def cleanup(self, i):
        shutil.rmtree(self.work / f"unit-{i}", ignore_errors=True)


WORKLOADS = {"solve3d": Solve3D, "pipeline2d": Pipeline2D,
             "diag3d": Diag3D, "report3d": Report3D}


# --- host speed -------------------------------------------------------------

class HostProbe:
    """A fixed piece of work that does not touch lpnse: a batched 3D
    complex FFT, an elementwise product and a Python-level sort.  Its time,
    taken between units, measures how fast this shared host is running at
    that moment.  run.py divides unit latencies by it."""

    def __init__(self):
        import numpy as np
        import scipy.fft

        rng = np.random.default_rng(20_081_808)
        shape = (3, 48, 48, 48)
        self.spec = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        self.values = rng.standard_normal(20_000).tolist()
        self.ifftn = scipy.fft.ifftn

    def __call__(self) -> float:
        start = time.perf_counter()
        phys = self.ifftn(self.spec, axes=(1, 2, 3), workers=1)
        phys *= 1.0001
        sorted(self.values)
        return time.perf_counter() - start

    def median(self, repeats=3) -> float:
        return sorted(self() for _ in range(repeats))[repeats // 2]


# --- the closed loop --------------------------------------------------------

def run_unit(wl, i):
    """(latency in seconds, failure messages) of unit i."""
    start = time.perf_counter()
    try:
        out = wl.unit(i)
    except Exception as exc:  # a unit that raises counts as failed
        return time.perf_counter() - start, [f"raised {exc!r}"]
    latency = time.perf_counter() - start
    try:
        failures = wl.check(i, out)
    except Exception as exc:  # so does an output the check cannot read
        failures = [f"check raised {exc!r}"]
    finally:
        wl.cleanup(i)
    return latency, failures


def closed_loop(wl, probe, seconds=None, indices=None):
    """Run units back to back, for `seconds` or over `indices`, with a host
    probe before the first unit and after every unit."""
    latencies, probes, failed, messages = [], [probe()], 0, []
    start = time.perf_counter()
    for index in itertools.count() if indices is None else indices:
        if seconds is not None and time.perf_counter() - start >= seconds:
            break
        if wl.tracer is not None:
            wl.tracer.unit = index
        latency, failures = run_unit(wl, index)
        latencies.append(latency)
        probes.append(probe())
        if failures:
            failed += 1
            messages.append(f"unit {index}: " + "; ".join(failures))
    return latencies, probes, failed, messages


def host_seconds(latencies, probes):
    """Sum of unit latencies, each divided by the mean of the host probes
    taken just before and just after it."""
    return sum(2.0 * lat / (before + after) for lat, before, after
               in zip(latencies, probes, probes[1:]))


def peak_rss_kib():
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children)


def git_commit():
    """HEAD of the checkout, read from its .git directory so that nothing
    outside the checkout is read; None when it is not a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def provenance():
    import numpy
    import scipy

    import lpnse.field

    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "fft_workers": lpnse.field._fft_workers,
        "threads_env": {k: os.environ.get(k) for k in
                        ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                         "MKL_NUM_THREADS")},
        "git_commit": git_commit(),
        "src_sha256": digest.hexdigest(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", choices=("setup", "run", "trace"),
                        required=True)
    args = parser.parse_args(argv)
    spawn = float(os.environ.get("PERFBENCH_SPAWN", time.perf_counter()))

    sys.path.insert(0, str(SRC))
    work = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        wl = WORKLOADS[args.workload](args.seed, work)
        wl.import_program(spawn)
        wl.setup()
        wl.warm_up()
        print(f"READY {time.perf_counter()!r}", flush=True)
        probe = HostProbe()
        print(f"PROBE {probe.median()!r}", flush=True)
        if args.mode == "setup":
            return 0

        if args.mode == "run":
            started = time.perf_counter()
            latencies, probes, failed, messages = closed_loop(
                wl, probe, args.seconds)
            result = {"latencies_s": latencies, "probes_s": probes,
                      "phase_s": time.perf_counter() - started,
                      "failed": failed, "messages": messages[:5],
                      "peak_rss_kib": peak_rss_kib()}
        else:
            name = f"spans-{args.workload}-seed{args.seed}.json"
            result = traced(wl, probe, args.seconds, work.parent / name)
        result["provenance"] = provenance()
        print(json.dumps(result), flush=True)
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):  # other workers may still use it
            work.parent.rmdir()


def traced(wl, probe, seconds, spans_file):
    """Run units untraced for half the time, then the same units again
    with spans installed; per-layer metrics come from the second pass and
    the ratio of the two passes is the tracing overhead.  The spans are
    written to `spans_file` at the end."""
    plain, probes_a, failed_a, messages = closed_loop(wl, probe,
                                                      seconds / 2.0)
    indices = list(range(len(plain)))
    tracer = spans.Tracer()
    if wl.in_process:
        spans.install(tracer)
    wl.tracer = tracer
    try:
        with_spans, probes_b, failed_b, more = closed_loop(
            wl, probe, indices=indices)
    finally:
        wl.tracer = None
        tracer.uninstall()
    units = len(indices)
    if wl.in_process:
        startup = wl.startup_s
    else:
        startup = sum(rec[spans.END] - rec[spans.START]
                      for rec in tracer.spans
                      if rec[spans.NAME] == "cli.startup") / units
    metrics = spans.layer_metrics(tracer.spans, units, sum(with_spans),
                                  startup)
    # the two passes run at different moments, so each is measured in
    # units of the host probe before they are compared
    metrics["trace.overhead_frac"] = (
        host_seconds(with_spans, probes_b) / host_seconds(plain, probes_a)
        - 1.0, "ratio")
    with open(spans_file, "w") as fh:
        json.dump({"fields": ["name", "start", "end", "parent", "unit", "info"],
                   "spans": tracer.spans}, fh)
    return {"units": units, "spans_file": str(spans_file.relative_to(ROOT)), "attempted": 2 * units,
            "failed": failed_a + failed_b,
            "messages": (messages + more)[:5],
            "layer_metrics": {k: {"value": v, "unit": u}
                              for k, (v, u) in metrics.items()}}


if __name__ == "__main__":
    sys.exit(main())
