"""Flat key=value run configuration files."""

import argparse

import pytest

from lpnse.cli import _load_solver_config
from lpnse.config import parse_kv_file
from lpnse.solver import SolverConfig


def _write(tmp_path, text):
    path = tmp_path / "run.cfg"
    path.write_text(text)
    return path


def _load(path, *pairs):
    """The solver config of `--config path --set pair ...`."""
    return _load_solver_config(argparse.Namespace(config=path,
                                                  set=list(pairs)))


def test_parse_comments_blanks_and_later_wins(tmp_path):
    path = _write(tmp_path, "# base resolution\n"
                            "n = 32          # inline comment\n"
                            "dim = 2\n"
                            "\n"
                            "nu = 0.5\n"
                            "n = 64\n")
    assert parse_kv_file(path) == {"n": "64", "dim": "2", "nu": "0.5"}


def test_parse_rejects_malformed_line(tmp_path):
    path = _write(tmp_path, "n = 32\njust words\n")
    with pytest.raises(ValueError, match=r"run\.cfg:2: expected key=value"):
        parse_kv_file(path)


def test_config_file_typed(tmp_path):
    path = _write(tmp_path, "dim = 3\nn = 32\nnu = 0.25\ndealias = false\n")
    assert _load(path) == SolverConfig(dim=3, n=32, nu=0.25, dealias=False)


def test_config_file_set_overrides_win(tmp_path):
    path = _write(tmp_path, "n = 32\nnu = 0.25\n")
    config = _load(path, "nu=1.5")
    assert config.nu == 1.5
    assert config.n == 32
    assert config.dt == SolverConfig().dt


def test_config_file_unknown_key(tmp_path):
    path = _write(tmp_path, "resolution = 32\n")
    with pytest.raises(ValueError, match="unknown config key"):
        _load(path)


def test_config_file_bad_bool(tmp_path):
    path = _write(tmp_path, "dealias = sometimes\n")
    with pytest.raises(ValueError, match="boolean key"):
        _load(path)


def test_bad_set_pair_wins_over_a_bad_config_file(tmp_path):
    # --set is parsed before the file is read, as it always was
    path = _write(tmp_path, "just words\n")
    with pytest.raises(ValueError, match="--set expects key=value"):
        _load(path, "nu")
