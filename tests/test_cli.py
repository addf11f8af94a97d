"""Command-line behavior: exit codes, artifacts, manifests, determinism."""

import contextlib
import functools
import json
import math
import shutil
import struct
import warnings

import numpy as np
import pytest

import lpnse.cli
import lpnse.ensembles
import lpnse.field
import lpnse.verify
from lpnse.cli import main
from lpnse.field import _available_cpus, scale, zero_field
from lpnse.grid import Grid
from lpnse.manifest import file_hash
from lpnse.snapshots import MAGIC, load_trajectory, read_field, write_field

SIM_ARGS = ["--set", "dim=2", "--set", "n=32", "--set", "dt=2.5e-3",
            "--set", "t_end=0.01", "--set", "snap_every=2"]


def test_verify_lp_exit_zero(capsys):
    assert main(["--threads", "1", "verify", "--suite", "lp", "--n", "32"]) == 0
    out = capsys.readouterr().out
    assert "suite: lp" in out and "=> PASS" in out


@pytest.mark.parametrize("count", ["0", "-5"])
def test_threads_below_one_usage_error(count, capsys):
    before = lpnse.field._fft_workers
    assert main(["--threads", count, "verify", "--suite", "lp"]) == 2
    assert f"--threads must be >= 1, got {count}" in capsys.readouterr().err
    assert lpnse.field._fft_workers == before


def test_threads_capped_at_available_cpus(capsys):
    # the count is checked as computed: no test starts more threads than
    # the host has CPUs
    assert main(["--threads", "1000000", "report", "--u", "missing",
                 "--v", "missing", "--triple", "0.5,4,2.6666666666666665",
                 "--s", "0.5", "--lambda", "1"]) == 2
    assert lpnse.field._fft_workers == _available_cpus()


def test_verify_unknown_suite_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--suite", "nope"])
    assert exc.value.code == 2


def test_verify_negative_control_fails(capsys):
    assert main(["verify", "--suite", "bony", "--no-dealias"]) == 1
    assert "first failure: bony/" in capsys.readouterr().out


@pytest.mark.parametrize("suite", ["bony", "bernstein"])
def test_verify_shell_suites_name_the_smallest_grid(suite, capsys):
    # both suites read shell jmax - 1 >= 1: n = 8 (jmax = 1) is too small
    assert main(["verify", "--suite", suite, "--n", "8"]) == 2
    err = capsys.readouterr().err
    assert f"suite {suite} needs" in err
    assert "n >= 16" in err and "got n=8" in err


def test_verify_lp_smallest_grid_passes(capsys):
    assert main(["verify", "--suite", "lp", "--n", "8"]) == 0
    assert "=> PASS" in capsys.readouterr().out


def test_verify_rejects_empty_ensemble(capsys):
    assert main(["verify", "--suite", "bernstein", "--ensemble", "0"]) == 2
    assert "ensemble must be >= 1" in capsys.readouterr().err


def test_verify_csv_determinism(tmp_path, capsys):
    dirs = [tmp_path / "r1", tmp_path / "r2"]
    for outdir in dirs:
        assert main(["verify", "--suite", "bernstein", "--n", "32",
                     "--ensemble", "20", "--out", str(outdir)]) == 0
    capsys.readouterr()
    for name in ("bernstein_forward.csv", "bernstein_reverse.csv"):
        assert (dirs[0] / name).read_bytes() == (dirs[1] / name).read_bytes()
    with open(dirs[0] / "manifest.json") as fh:
        manifest = json.load(fh)
    assert manifest["command"] == "verify"
    assert len(manifest["outputs"]) == 2


def test_verify_manifest_records_options_as_run(tmp_path, capsys):
    # an option left to the suite's default is recorded with its value
    out = tmp_path / "verify"
    assert main(["verify", "--suite", "bernstein", "--n", "16",
                 "--ensemble", "2", "--out", str(out)]) == 0
    capsys.readouterr()
    with open(out / "manifest.json") as fh:
        parameters = json.load(fh)["parameters"]
    assert parameters["options"] == {
        "bernstein": {"n": 16, "seed": 7, "ensemble": 2}}


def test_verify_failed_check_still_writes_constants(tmp_path, monkeypatch,
                                                   capsys):
    # a failed check exits 1, and the measured constants are still kept
    real = lpnse.cli.run_suites

    def failing(*args, **kwargs):
        results = real(*args, **kwargs)
        check, measured, bound, _ = results[0].rows[0]
        results[0].rows[0] = (check, measured, bound, False)
        return results

    monkeypatch.setattr(lpnse.cli, "run_suites", failing)
    out = tmp_path / "verify"
    assert main(["verify", "--suite", "bernstein", "--n", "16",
                 "--ensemble", "2", "--out", str(out)]) == 1
    assert "first failure: bernstein/" in capsys.readouterr().out
    assert sorted(p.name for p in out.iterdir()) == [
        "bernstein_forward.csv", "bernstein_reverse.csv", "manifest.json"]


def test_verify_without_constants_makes_no_out_directory(tmp_path, capsys):
    # the lp suite writes no CSV, so there is nothing to publish
    out = tmp_path / "verify"
    assert main(["verify", "--suite", "lp", "--n", "16",
                 "--out", str(out)]) == 0
    assert "=> PASS" in capsys.readouterr().out
    assert not out.exists()


def _stub_suites(monkeypatch, run):
    """Replace every verify suite by run(name, options), keeping each
    suite's signature, the options run_suites reads."""
    for name, suite in list(lpnse.verify.SUITES.items()):
        monkeypatch.setitem(lpnse.verify.SUITES, name, functools.wraps(suite)(
            functools.partial(run, name)))


@pytest.mark.parametrize("flags, message", [
    (["--suite", "bkm", "--n", "16"], "--n is not an option of suite bkm"),
    (["--suite", "solver", "--n", "16"],
     "--n is not an option of suite solver"),
    (["--suite", "lp", "--ensemble", "5"],
     "--ensemble is not an option of suite lp"),
    (["--suite", "lp", "--no-dealias"],
     "--no-dealias is not an option of suite lp"),
    (["--suite", "lp", "--seed", "-1"], "--seed must be >= 0, got -1"),
], ids=["bkm-n", "solver-n", "lp-ensemble", "lp-no-dealias", "seed"])
def test_verify_refuses_a_flag_no_named_suite_takes(tmp_path, monkeypatch,
                                                    capsys, flags, message):
    # refused before any suite runs, naming the flag, not ignored
    def ran(name, **options):
        raise AssertionError(f"suite {name} ran")

    _stub_suites(monkeypatch, ran)
    out = tmp_path / "verify"
    assert main(["verify", *flags, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err
    assert not out.exists()


def test_verify_all_passes_each_suite_the_flags_it_takes(monkeypatch,
                                                         capsys):
    seen = {}

    def ran(name, **options):
        seen[name] = options
        return lpnse.verify.SuiteResult(name)

    _stub_suites(monkeypatch, ran)
    assert main(["verify", "--suite", "all", "--n", "16",
                 "--ensemble", "2"]) == 0
    assert seen["lp"] == {"n": 16, "seed": 0}
    assert seen["bony"]["n"] == 16 and seen["bony"]["dealias"] is True
    assert seen["bernstein"] == {"n": 16, "seed": 7, "ensemble": 2}
    assert seen["bkm"] == {"ns": (32, 64), "seed": 11, "ensemble": 2}
    assert seen["solver"] == {"seed": 3}


@pytest.mark.parametrize("command, target", [
    (["simulate", "--set", "dim=3", "--set", "n=4096"], "run"),
    (["verify", "--suite", "lp", "--n", "4096"], "run_suites"),
], ids=["simulate", "verify"])
def test_allocation_failure_is_a_usage_error(tmp_path, monkeypatch, capsys,
                                             command, target):
    # a grid too large for memory exits 2 with numpy's message, which
    # names the size and the shape; the allocation itself is never tried,
    # since a host that overcommits memory could grant it
    message = ("Unable to allocate 512. GiB for an array with shape "
               "(3, 4096, 4096, 4096) and data type float64")

    def too_large(*args, **kwargs):
        raise MemoryError(message)

    monkeypatch.setattr(lpnse.cli, target, too_large)
    out = tmp_path / "out"
    assert main([*command, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err
    assert not out.exists()


def test_simulate_writes_trajectory_and_manifest(tmp_path, capsys):
    outdir = tmp_path / "sim"
    assert main(["simulate", *SIM_ARGS, "--out", str(outdir)]) == 0
    traj = load_trajectory(outdir)
    assert len(traj) == 3
    with open(outdir / "manifest.json") as fh:
        manifest = json.load(fh)
    assert manifest["command"] == "simulate"
    for entry in manifest["outputs"]:
        assert file_hash(entry["path"]) == entry["sha256"]
    assert "final_energy" in capsys.readouterr().out


def test_simulate_unknown_key_usage_error(capsys):
    assert main(["simulate", "--set", "resolution=32"]) == 2
    assert "unknown config key" in capsys.readouterr().err


@pytest.mark.parametrize("key", ["dt", "t_end"])
def test_simulate_non_positive_step_names_its_key(tmp_path, capsys, key):
    # dt = -1 used to be blamed on t_end ("not a whole number of steps")
    out = tmp_path / "sim"
    assert main(["simulate", *SIM_ARGS, "--set", f"{key}=-1",
                 "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"config key '{key}' must be positive, got -1.0" in err
    assert "whole number of steps" not in err
    assert not out.exists()


def test_simulate_cfl_abort_numeric_exit(tmp_path, capsys):
    assert main(["simulate", "--set", "dim=2", "--set", "n=32",
                 "--set", "dt=0.2", "--set", "t_end=1.0",
                 "--out", str(tmp_path)]) == 3
    assert "numerical abort [cfl]" in capsys.readouterr().err


def test_twin_report_pipeline(tmp_path, capsys):
    twin_dir = tmp_path / "twin"
    assert main(["twin", *SIM_ARGS, "--delta", "1e-4", "--seed", "5",
                 "--out", str(twin_dir)]) == 0
    assert (twin_dir / "manifest.json").exists()
    capsys.readouterr()
    report_dir = tmp_path / "report"
    assert main(["report", "--u", str(twin_dir / "u"),
                 "--v", str(twin_dir / "v"),
                 "--triple", f"0.5,4,{8.0 / 3.0!r}", "--s", "0.5",
                 "--lambda", "1.0", "--out", str(report_dir)]) == 0
    summary_stdout = json.loads(capsys.readouterr().out)
    with open(report_dir / "summary.json") as fh:
        assert summary_stdout == json.load(fh)
    assert (report_dir / "w_sup.csv").exists()
    assert (report_dir / "manifest.json").exists()


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


def test_degenerate_pair_summary_is_strict_json(tmp_path, capsys):
    # delta = 0: the twins are equal, the envelope constant is undefined,
    # and both the file and the printed copy must still be strict JSON
    twin_dir = tmp_path / "twin"
    assert main(["twin", *SIM_ARGS, "--delta", "0", "--seed", "5",
                 "--out", str(twin_dir)]) == 0
    capsys.readouterr()
    report_dir = tmp_path / "report"
    assert main(["report", "--u", str(twin_dir / "u"),
                 "--v", str(twin_dir / "v"),
                 "--triple", f"0.5,4,{8.0 / 3.0!r}", "--s", "0.5",
                 "--lambda", "1.0", "--out", str(report_dir)]) == 0
    printed = json.loads(capsys.readouterr().out,
                         parse_constant=_reject_constant)
    with open(report_dir / "summary.json") as fh:
        summary = json.load(fh, parse_constant=_reject_constant)
    assert summary == printed
    assert summary["degenerate"] is True
    assert summary["c_sup"] is None
    assert summary["c_sup_reason"] == (
        "degenerate pair: ||w0||^2 = 0, so C(t) is undefined")


def test_report_rejects_mismatched_configs(tmp_path, capsys):
    # twins must share every config key but the initial data's
    for nu in ("1.0", "0.1"):
        assert main(["simulate", *SIM_ARGS, "--set", f"nu={nu}",
                     "--out", str(tmp_path / nu)]) == 0
    capsys.readouterr()
    report_dir = tmp_path / "report"
    assert main(["report", "--u", str(tmp_path / "1.0"),
                 "--v", str(tmp_path / "0.1"),
                 "--triple", f"0.5,4,{8.0 / 3.0!r}", "--s", "0.5",
                 "--lambda", "1.0", "--out", str(report_dir)]) == 2
    err = capsys.readouterr().err
    assert "different configs" in err and "nu = 1.0 vs 0.1" in err
    assert not (report_dir / "summary.json").exists()


def _nan_payload(snap):
    blob = bytearray(snap.read_bytes())
    blob[-16:-8] = struct.pack("<d", math.nan)
    snap.write_bytes(bytes(blob))


def _cut_payload(snap):
    snap.write_bytes(snap.read_bytes()[:-8])


def _other_grid(snap):
    write_field(snap, zero_field(Grid(2, 8), ncomp=2), time=0.0025)


@pytest.mark.parametrize("damage, code, message", [
    (_nan_payload, 3, "payload holds 1 non-finite value"),
    (_cut_payload, 2, "payload is"),
    (_other_grid, 2, "grid mismatch"),
], ids=["nan", "truncated", "other-grid"])
def test_report_rejects_non_finite_snapshot(tmp_path, capsys, damage, code,
                                            message):
    # a damaged stored snapshot of odd index, which the pool thread reads
    # when there are two threads: the report exits with its code, naming
    # the file, and makes no --out directory
    twin_dir = tmp_path / "twin"
    assert main(["twin", *SIM_ARGS, "--delta", "1e-4", "--seed", "5",
                 "--out", str(twin_dir)]) == 0
    capsys.readouterr()
    snap = twin_dir / "v" / "snap_000001.fld"
    damage(snap)
    report_dir = tmp_path / "report"
    with _no_warnings():
        assert main(["report", "--u", str(twin_dir / "u"),
                     "--v", str(twin_dir / "v"),
                     "--triple", f"0.5,4,{8.0 / 3.0!r}", "--s", "0.5",
                     "--lambda", "1.0", "--out", str(report_dir)]) == code
    err = capsys.readouterr().err
    assert f"{snap}: {message}" in err
    assert "Traceback" not in err and "RuntimeWarning" not in err
    assert not report_dir.exists()


def test_report_malformed_triple_usage_error(capsys):
    assert main(["report", "--u", "nope", "--v", "nope",
                 "--triple", "0.5,4", "--s", "0.5", "--lambda", "1.0"]) == 2
    assert "expects r,p,q" in capsys.readouterr().err


def test_report_invalid_triple_checked_before_io(capsys):
    # scalar parameters are rejected before any trajectory is read
    assert main(["report", "--u", "missing-dir", "--v", "missing-dir",
                 "--triple", "0.5,0.5,8", "--s", "0.5", "--lambda", "1.0"]) == 2
    assert "p >= 1 and q >= 1" in capsys.readouterr().err


def test_besov_and_split_round_trip(tmp_path, capsys):
    sim = tmp_path / "sim"
    assert main(["simulate", *SIM_ARGS, "--out", str(sim)]) == 0
    capsys.readouterr()
    snap = sim / "snap_000000.fld"

    assert main(["besov", "--snapshot", str(snap),
                 "--s", "0.5", "--p", "4"]) == 0
    value = float(capsys.readouterr().out.strip())
    assert value > 0.0 and math.isfinite(value)

    split_dir = tmp_path / "split"
    assert main(["split", "--snapshot", str(snap), "--r", "1.0",
                 "--p", "6", "--q", f"{4.0 / 3.0!r}",
                 "--out", str(split_dir)]) == 0
    meta = json.loads(capsys.readouterr().out)
    assert meta["N"] >= 1 and meta["p_tilde"] > 6.0
    low, _ = read_field(split_dir / "u_low.fld")
    high, _ = read_field(split_dir / "u_high.fld")
    orig, _ = read_field(snap)
    assert np.allclose(low.data + high.data, orig.data,
                       rtol=1e-12, atol=1e-15)


@pytest.mark.parametrize("command", [
    ["besov", "--s", "0", "--p", "4"],
    ["besov", "--s", "0", "--p", "2"],
    ["split", "--r", "1.0", "--p", "6", "--q", f"{4.0 / 3.0!r}"],
])
def test_besov_and_split_reject_non_real_snapshot(tmp_path, capsys, command):
    # e^{-iz} alone has no conjugate partner: not a real field, so no
    # Field holds it; the snapshot is written as raw full-layout bytes
    spec = np.zeros((1, 16, 16, 16), dtype="<c16")
    spec[0, 0, 0, -1] = 1.0
    header = json.dumps({"components": 1, "dim": 3, "n": 16,
                         "representation": "spectral", "time": 0.0,
                         "viscosity": 1.0}, sort_keys=True).encode()
    snap = tmp_path / "complex.fld"
    snap.write_bytes(MAGIC + struct.pack("<I", len(header)) + header
                     + spec.tobytes())
    argv = command[:1] + ["--snapshot", str(snap)] + command[1:]
    if command[0] == "split":
        argv += ["--out", str(tmp_path / "split")]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert str(snap) in captured.err and "Hermitian" in captured.err
    assert captured.out == ""


def test_outdir_env_variable(tmp_path, monkeypatch):
    outdir = tmp_path / "envout"
    monkeypatch.setenv("LPNSE_OUTDIR", str(outdir))
    assert main(["simulate", *SIM_ARGS]) == 0
    assert (outdir / "trajectory.json").exists()


# --- non-finite inputs and results -------------------------------------------

@pytest.fixture(scope="module")
def stored_pair(tmp_path_factory):
    """A stored 2D twin pair; the tests below read it and never change it."""
    twin_dir = tmp_path_factory.mktemp("pair")
    assert main(["twin", *SIM_ARGS, "--delta", "1e-4", "--seed", "5",
                 "--out", str(twin_dir)]) == 0
    return twin_dir


def _report(pair, out, triple=f"0.5,4,{8.0 / 3.0!r}", lam="1.0", *flags):
    return main(["report", "--u", str(pair / "u"), "--v", str(pair / "v"),
                 f"--triple={triple}", "--s", "0.5", "--lambda", lam, *flags,
                 "--out", str(out)])


@pytest.mark.parametrize("flags, message", [
    (["--s", "1", "--p", "nan"], "p is NaN"),
    (["--s", "nan", "--p", "4"], "s is NaN"),
])
def test_besov_rejects_nan_flags(stored_pair, capsys, flags, message):
    snap = stored_pair / "u" / "snap_000000.fld"
    assert main(["besov", "--snapshot", str(snap), *flags]) == 2
    captured = capsys.readouterr()
    assert message in captured.err and captured.out == ""


def _snapshot_bytes(**changes):
    """A .fld preamble and header (no payload), with header keys changed
    or, for a value of None, removed."""
    header = {"dim": 2, "n": 8, "components": 1, "representation": "spectral"}
    header.update(changes)
    blob = json.dumps({k: v for k, v in header.items() if v is not None})
    return MAGIC + struct.pack("<I", len(blob)) + blob.encode()


@pytest.mark.parametrize("blob, message", [
    (MAGIC + b"\x10\x00", "ends inside the 12-byte preamble"),
    (MAGIC + struct.pack("<I", 5) + b"{dim}", "bad snapshot header"),
    (_snapshot_bytes(dim=None), "header has no key 'dim'"),
    (_snapshot_bytes(n=12), "n must be a power of two"),
    (_snapshot_bytes(components=0), "components must be a positive integer"),
], ids=["short-preamble", "bad-json", "missing-key", "bad-n", "bad-components"])
def test_besov_rejects_malformed_snapshot(tmp_path, capsys, blob, message):
    # each fault of the preamble or header is a usage error naming the file
    snap = tmp_path / "bad.fld"
    snap.write_bytes(blob)
    assert main(["besov", "--snapshot", str(snap), "--s", "0.5",
                 "--p", "4"]) == 2
    captured = capsys.readouterr()
    assert str(snap) in captured.err and message in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("changes, message", [
    ({"dim": 2.0}, "dim must be an integer, got 2.0"),
    ({"dim": 3.0}, "dim must be an integer, got 3.0"),
    ({"n": 8.0}, "n must be an integer, got 8.0"),
], ids=["dim-2.0", "dim-3.0", "n-8.0"])
def test_besov_rejects_a_non_integer_grid_header(tmp_path, capsys, changes,
                                                 message):
    # 2.0 in (2, 3) holds, so a float dim once reached the grid's shape
    # and died there with a TypeError that named no file
    snap = tmp_path / "bad.fld"
    snap.write_bytes(_snapshot_bytes(**changes))
    assert main(["besov", "--snapshot", str(snap), "--s", "0.5",
                 "--p", "4"]) == 2
    err = capsys.readouterr().err
    assert str(snap) in err and message in err


def _rewrite_header(path, **changes):
    """Rewrite the header of the .fld file at path with keys changed,
    keeping its payload."""
    blob = path.read_bytes()
    (hlen,) = struct.unpack("<I", blob[len(MAGIC):len(MAGIC) + 4])
    start = len(MAGIC) + 4
    header = json.loads(blob[start:start + hlen])
    header.update(changes)
    new = json.dumps(header).encode()
    path.write_bytes(MAGIC + struct.pack("<I", len(new)) + new
                     + blob[start + hlen:])
    return len(blob) - start - hlen


@pytest.mark.parametrize("changes", [
    {"components": 10**8}, {"components": 10**30}, {"dim": 2.0},
], ids=["components-1e8", "components-1e30", "dim-2.0"])
def test_report_rejects_a_bad_snapshot_header_naming_it(stored_pair, tmp_path,
                                                        capsys, changes):
    # the payload length is checked against the header before anything
    # is allocated: 10**8 components once asked for 811 GiB and died with
    # a MemoryError, and 10**30 with a numpy message naming no file
    pair = tmp_path / "pair"
    shutil.copytree(stored_pair, pair)
    snap = pair / "v" / "snap_000001.fld"
    size = _rewrite_header(snap, **changes)
    out = tmp_path / "report"
    assert _report(pair, out) == 2
    err = capsys.readouterr().err
    assert str(snap) in err and "Traceback" not in err
    if "components" in changes:
        expected = 16 * changes["components"] * 32 * 17
        assert f"payload is {size} bytes" in err and f"needs {expected}" in err
    else:
        assert "dim must be an integer, got 2.0" in err
    assert not out.exists()


def test_report_rejects_one_column_times(stored_pair, tmp_path, capsys):
    # [[t0], [t1], ...] lists one time per snapshot, but has no order
    # along its last axis to check; the report once failed on it with a
    # numpy message naming no file
    pair = tmp_path / "pair"
    shutil.copytree(stored_pair, pair)
    meta_path = pair / "v" / "trajectory.json"
    meta = json.loads(meta_path.read_text())
    meta["times"] = [[t] for t in meta["times"]]
    meta_path.write_text(json.dumps(meta))
    out = tmp_path / "report"
    assert _report(pair, out) == 2
    err = capsys.readouterr().err
    assert str(meta_path) in err and "times must be a flat list" in err
    assert not out.exists()


@pytest.mark.parametrize("changes, message", [
    ({"config": None}, "no key 'config'"),
    ({"times": [0.0]}, "one snapshot per time"),
    ({"times": [0.0, math.nan, 0.01]}, "times must be finite"),
    ({"times": [], "snapshots": []}, "lists no snapshots"),
], ids=["no-config", "short-times", "nan-time", "no-snapshots"])
def test_report_rejects_malformed_trajectory(stored_pair, tmp_path, capsys,
                                             changes, message):
    # keys removed (value None) or changed: a usage error naming the file
    pair = tmp_path / "pair"
    shutil.copytree(stored_pair, pair)
    meta_path = pair / "v" / "trajectory.json"
    meta = json.loads(meta_path.read_text())
    for key, value in changes.items():
        if value is None:
            del meta[key]
        else:
            meta[key] = value
    meta_path.write_text(json.dumps(meta))
    out = tmp_path / "report"
    assert _report(pair, out) == 2
    err = capsys.readouterr().err
    assert str(meta_path) in err and message in err
    assert not out.exists()


@pytest.mark.parametrize("key, value, message", [
    ("n", 32.5, "config key 'n': expected int, got 32.5"),
    ("seed", 1.7, "config key 'seed': expected int, got 1.7"),
    ("nu", True, "config key 'nu': expected float, got True"),
    ("dealias", 0.5, "config key 'dealias': expected bool, got 0.5"),
], ids=["n", "seed", "nu", "dealias"])
def test_report_rejects_config_numbers_it_would_truncate(
        stored_pair, tmp_path, capsys, key, value, message):
    # both runs say the same, so only the value itself can be at fault
    pair = tmp_path / "pair"
    shutil.copytree(stored_pair, pair)
    for side in "uv":
        meta_path = pair / side / "trajectory.json"
        meta = json.loads(meta_path.read_text())
        meta["config"][key] = value
        meta_path.write_text(json.dumps(meta))
    out = tmp_path / "report"
    assert _report(pair, out) == 2
    err = capsys.readouterr().err
    assert str(pair / "u" / "trajectory.json") in err and message in err
    assert not out.exists()


@pytest.mark.parametrize("triple, lam, message", [
    ("0.5,4,nan", "1.0", "q is NaN"),
    (f"0.5,4,{8.0 / 3.0!r}", "nan", "lambda must be positive and finite"),
    (f"0.5,4,{8.0 / 3.0!r}", "inf", "lambda must be positive and finite"),
])
def test_report_rejects_non_finite_flags(stored_pair, tmp_path, capsys,
                                         triple, lam, message):
    out = tmp_path / "report"
    assert _report(stored_pair, out, triple=triple, lam=lam) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


@contextlib.contextmanager
def _no_warnings():
    """Any warning becomes an error: the numeric commands reject a
    non-finite result with their own message, not with numpy's warning."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        yield


def test_report_non_finite_summary_numeric_exit(stored_pair, tmp_path,
                                                capsys):
    # every snapshot of both runs scaled by 1e120: the squared norms
    # overflow, so the summary cannot be strict JSON
    pair = tmp_path / "pair"
    shutil.copytree(stored_pair, pair)
    for snap in sorted(pair.glob("[uv]/snap_*.fld")):
        f, header = read_field(snap)
        write_field(snap, scale(f, 1e120), time=header["time"],
                    viscosity=header["viscosity"])
    out = tmp_path / "report"
    with _no_warnings():
        assert _report(pair, out) == 3
    err = capsys.readouterr().err
    assert "report summary value" in err and "RuntimeWarning" not in err
    assert not out.exists()


@pytest.fixture(scope="module")
def snapshot_3d(tmp_path_factory):
    """The last snapshot of a short 3D n=16 `lpnse simulate` run."""
    sim = tmp_path_factory.mktemp("sim3d")
    assert main(["simulate", "--set", "dim=3", "--set", "n=16",
                 "--set", "dt=2.5e-3", "--set", "t_end=0.005",
                 "--set", "snap_every=2", "--out", str(sim)]) == 0
    return sorted(sim.glob("snap_*.fld"))[-1]


def _rescaled(snap, factor, path):
    f, header = read_field(snap)
    write_field(path, scale(f, factor), time=header["time"],
                viscosity=header["viscosity"])
    return path


@pytest.mark.parametrize("factor, p, value", [(1e100, "4", "inf"),
                                              (1e160, "2", "nan")],
                         ids=["inf", "nan"])
def test_besov_overflowing_norm_numeric_exit(snapshot_3d, tmp_path, capsys,
                                             factor, p, value):
    # the block norms overflow to inf; at p = 2 an overflowed power times
    # a zero multiplier gives 0 * inf = nan, an invalid value
    snap = _rescaled(snapshot_3d, factor, tmp_path / "big.fld")
    with _no_warnings():
        assert main(["besov", "--snapshot", str(snap), "--s", "0.5",
                     "--p", p]) == 3
    captured = capsys.readouterr()
    assert str(snap) in captured.err and f"norm is {value}" in captured.err
    assert "RuntimeWarning" not in captured.err
    assert captured.out == ""


def test_split_overflowing_norm_numeric_exit(snapshot_3d, tmp_path, capsys):
    # the split level of an infinite norm is undefined: exit 3 before any
    # file or the --out directory is written
    snap = _rescaled(snapshot_3d, 1e100, tmp_path / "big.fld")
    out = tmp_path / "split"
    with _no_warnings():
        assert main(["split", "--snapshot", str(snap), "--r", "0.5",
                     "--p", "4", "--q", f"{8.0 / 3.0!r}",
                     "--out", str(out)]) == 3
    captured = capsys.readouterr()
    assert str(snap) in captured.err and "norm is inf" in captured.err
    assert "RuntimeWarning" not in captured.err
    assert captured.out == ""
    assert not out.exists()


def _with_header_value(snap, key, text, path):
    """A copy of snapshot file snap whose header's key holds the raw JSON
    text `text`, NaN and Infinity included."""
    blob = snap.read_bytes()
    start = len(MAGIC) + 4
    (hlen,) = struct.unpack("<I", blob[len(MAGIC):start])
    header = json.loads(blob[start:start + hlen])
    header[key] = "@"
    raw = json.dumps(header, sort_keys=True).replace('"@"', text).encode()
    path.write_bytes(MAGIC + struct.pack("<I", len(raw)) + raw
                     + blob[start + hlen:])
    return path


@pytest.mark.parametrize("key, text", [("time", "NaN"),
                                       ("viscosity", "Infinity"),
                                       ("time", '"abc"')])
def test_split_rejects_non_finite_header_value(tmp_path, capsys, key, text):
    # the header values were copied into u_low.fld and u_high.fld, NaN
    # and Infinity as they are, which no strict JSON reader takes
    grid = Grid(2, 64)
    f = lpnse.ensembles.divfree_noise(grid, np.random.default_rng(4))
    good = tmp_path / "good.fld"
    write_field(good, f, time=0.5, viscosity=0.01)
    snap = _with_header_value(good, key, text, tmp_path / "bad.fld")
    out = tmp_path / "split"
    assert main(["split", "--snapshot", str(snap), "--r", "1.0",
                 "--p", "6", "--q", f"{4.0 / 3.0!r}",
                 "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert str(snap) in captured.err and repr(key) in captured.err
    assert captured.out == ""
    assert not out.exists()


def test_split_infinite_p_spells_p_tilde_inf(snapshot_3d, tmp_path, capsys):
    # (r, p, q) = (0.5, inf, 4/3) is admissible and gives p_tilde = inf,
    # which the printed JSON spells "inf"
    out = tmp_path / "split"
    assert main(["split", "--snapshot", str(snapshot_3d), "--r", "0.5",
                 "--p", "inf", "--q", f"{4.0 / 3.0!r}",
                 "--out", str(out)]) == 0
    meta = json.loads(capsys.readouterr().out)
    assert meta["p_tilde"] == "inf" and meta["q_tilde"] == 2.0
    for name in ("u_low.fld", "u_high.fld", "manifest.json"):
        assert (out / name).is_file()


def test_report_mismatched_configs_leave_no_out_directory(stored_pair,
                                                          tmp_path, capsys):
    # the pair is rejected after both runs are read: no --out directory
    pair = tmp_path / "pair"
    shutil.copytree(stored_pair, pair)
    meta_path = pair / "v" / "trajectory.json"
    meta = json.loads(meta_path.read_text())
    meta["config"]["nu"] = 0.5
    meta_path.write_text(json.dumps(meta))
    out = tmp_path / "report"
    assert _report(pair, out) == 2
    assert "different configs" in capsys.readouterr().err
    assert not out.exists()


def test_report_infinite_p_triple(stored_pair, tmp_path, capsys):
    # p = inf with q = 2/(1+r) is a valid triple; the summary writes the
    # exponent as the string "inf" and stays strict JSON
    out = tmp_path / "report"
    assert _report(stored_pair, out, triple="0.5,inf,1.3333333333333333") == 0

    def reject(token):
        raise ValueError(f"non-standard JSON constant {token}")

    with open(out / "summary.json") as fh:
        summary = json.load(fh, parse_constant=reject)
    assert summary["triple"] == {"r": 0.5, "p": "inf",
                                 "q": 1.3333333333333333}
    printed = json.loads(capsys.readouterr().out, parse_constant=reject)
    assert printed == summary
    besov = np.loadtxt(out / "besov_u.csv", delimiter=",", skiprows=1)
    assert besov.shape == (3, 4) and np.isfinite(besov).all()


def test_report_negative_r_mode(stored_pair, tmp_path):
    # r = -1/2 with 2/8 + 3/12 = 1 + r is valid only in the extended mode;
    # the report must build, and repeat byte for byte
    outs = [tmp_path / "r1", tmp_path / "r2"]
    for out in outs:
        assert _report(stored_pair, out, "-0.5,12,8", "1.0",
                       "--mode", "negative-r") == 0
    names = sorted(p.name for p in outs[0].iterdir()
                   if p.name != "manifest.json")
    assert len(names) == 7
    for name in names:
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()


@pytest.mark.parametrize("command, flags, message", [
    ("simulate", ["--set", "nu=nan"], "'nu' must be finite"),
    ("simulate", ["--set", "dt=nan"], "'dt' must be finite"),
    ("simulate", ["--set", "t_end=inf"], "'t_end' must be finite"),
    ("simulate", ["--set", "slope=nan"], "'slope' must be finite"),
    ("simulate", ["--set", "ic_kmax=inf"], "'ic_kmax' must be finite"),
    ("simulate", ["--set", "cfl_safety=nan"], "'cfl_safety' must be finite"),
    ("twin", ["--delta", "nan", "--seed", "5"], "delta must be finite"),
    ("twin", ["--delta", "1e-4", "--seed", "5", "--kmax", "nan"],
     "kmax must be finite"),
])
def test_non_finite_solver_flags_usage_error(tmp_path, capsys, command,
                                             flags, message):
    out = tmp_path / "run"
    assert main([command, *SIM_ARGS, *flags, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert message in captured.err
    assert not out.exists()


@pytest.mark.parametrize("command, flags, exit_code, message", [
    ("simulate", ["--set", "dim=4"], 2, "dim must be 2 or 3, got 4"),
    ("simulate", ["--set", "n=12"], 2, "n must be a power of two >= 8, got 12"),
    ("simulate", ["--set", "t_end=0.0015"], 2,
     "config key 't_end' must be a whole number of steps"),
    ("simulate", ["--set", "ic=random-divfree", "--set", "seed=-1"], 2,
     "config key 'seed' must be non-negative, got -1"),
    ("simulate", ["--set", "dt=0.5", "--set", "t_end=1"], 3,
     "numerical abort [cfl]: advective CFL violated at t=0: dt=0.5"),
    ("twin", ["--delta", "1e-4", "--seed", "-1"], 2,
     "perturbation seed must be non-negative, got -1"),
    ("twin", ["--delta", "1e300", "--seed", "5"], 2,
     "perturbation delta=1e+300 gives a non-finite initial energy"),
    ("twin", ["--kmax", "0", "--delta", "1e-4", "--seed", "5"], 2,
     "perturbation kmax=0.0 holds no lattice mode"),
], ids=["dim", "n", "t_end-steps", "seed", "cfl", "twin-seed", "twin-delta",
        "twin-kmax"])
def test_failed_run_leaves_no_out_directory(tmp_path, capsys, command, flags,
                                            exit_code, message):
    # each fault is reported by the command's own message, with no raw
    # numpy warning, before the --out directory is made
    out = tmp_path / "run"
    with _no_warnings():
        assert main([command, *SIM_ARGS, *flags, "--out", str(out)]) == \
            exit_code
    captured = capsys.readouterr()
    assert message in captured.err
    assert "Warning" not in captured.err
    assert captured.out == ""
    assert not out.exists()
