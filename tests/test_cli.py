"""Command-line behavior: exit codes, artifacts, manifests, determinism."""

import json
import math
import shutil
import struct

import numpy as np
import pytest

from lpnse.cli import main
from lpnse.field import scale
from lpnse.manifest import file_hash
from lpnse.snapshots import MAGIC, load_trajectory, read_field, write_field

SIM_ARGS = ["--set", "dim=2", "--set", "n=32", "--set", "dt=2.5e-3",
            "--set", "t_end=0.01", "--set", "snap_every=2"]


def test_verify_lp_exit_zero(capsys):
    assert main(["--threads", "1", "verify", "--suite", "lp", "--n", "32"]) == 0
    out = capsys.readouterr().out
    assert "suite: lp" in out and "=> PASS" in out


def test_verify_unknown_suite_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--suite", "nope"])
    assert exc.value.code == 2


def test_verify_negative_control_fails(capsys):
    assert main(["verify", "--suite", "bony", "--no-dealias"]) == 1
    assert "first failure: bony/" in capsys.readouterr().out


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


def test_report_rejects_non_finite_snapshot(tmp_path, capsys):
    # one NaN coefficient in a stored snapshot: numeric exit, no report
    twin_dir = tmp_path / "twin"
    assert main(["twin", *SIM_ARGS, "--delta", "1e-4", "--seed", "5",
                 "--out", str(twin_dir)]) == 0
    capsys.readouterr()
    snap = twin_dir / "v" / "snap_000001.fld"
    blob = bytearray(snap.read_bytes())
    blob[-16:-8] = struct.pack("<d", math.nan)
    snap.write_bytes(bytes(blob))
    report_dir = tmp_path / "report"
    assert main(["report", "--u", str(twin_dir / "u"),
                 "--v", str(twin_dir / "v"),
                 "--triple", f"0.5,4,{8.0 / 3.0!r}", "--s", "0.5",
                 "--lambda", "1.0", "--out", str(report_dir)]) == 3
    err = capsys.readouterr().err
    assert str(snap) in err and "non-finite" in err
    assert not (report_dir / "summary.json").exists()


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
    # e^{-iz} alone has no conjugate partner: not a real field
    from lpnse import Grid
    from lpnse.field import Field
    grid = Grid(3, 16)
    spec = np.zeros((1,) + grid.shape, dtype=np.complex128)
    spec[0, 0, 0, -1] = 1.0
    snap = tmp_path / "complex.fld"
    write_field(snap, Field(grid, spec, "spectral"), time=0.0, viscosity=1.0)
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


@pytest.mark.parametrize("key, value, message", [
    ("config", None, "no key 'config'"),
    ("times", [0.0], "one snapshot per time"),
], ids=["no-config", "short-times"])
def test_report_rejects_malformed_trajectory(stored_pair, tmp_path, capsys,
                                             key, value, message):
    # a key removed (value None) or changed: a usage error naming the file
    pair = tmp_path / "pair"
    shutil.copytree(stored_pair, pair)
    meta_path = pair / "v" / "trajectory.json"
    meta = json.loads(meta_path.read_text())
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
    with pytest.warns(RuntimeWarning, match="overflow"):
        assert _report(pair, out) == 3
    assert "report summary value" in capsys.readouterr().err
    assert not out.exists()


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
    assert not (out / "manifest.json").exists()
