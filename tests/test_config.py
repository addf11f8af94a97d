"""Flat key=value run configuration files."""

import pytest

from lpnse.config import load_config, parse_kv_file
from lpnse.solver import SolverConfig


def _write(tmp_path, text):
    path = tmp_path / "run.cfg"
    path.write_text(text)
    return path


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


def test_load_config_typed(tmp_path):
    path = _write(tmp_path, "dim = 3\nn = 32\nnu = 0.25\ndealias = false\n")
    assert load_config(path) == SolverConfig(dim=3, n=32, nu=0.25,
                                             dealias=False)


def test_load_config_overrides_win(tmp_path):
    path = _write(tmp_path, "n = 32\nnu = 0.25\n")
    config = load_config(path, {"nu": "1.5"})
    assert config.nu == 1.5
    assert config.n == 32
    assert config.dt == SolverConfig().dt


def test_load_config_unknown_key(tmp_path):
    path = _write(tmp_path, "resolution = 32\n")
    with pytest.raises(ValueError, match="unknown config key"):
        load_config(path)


def test_load_config_bad_bool(tmp_path):
    path = _write(tmp_path, "dealias = sometimes\n")
    with pytest.raises(ValueError, match="boolean key"):
        load_config(path)
