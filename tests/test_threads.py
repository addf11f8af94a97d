"""The per-snapshot thread map and the thread count that sizes it.

No test here starts more threads than the host has CPUs: counts are
checked as computed, and only the tests that need a pool thread make
one."""

import math
import sys
import threading

import numpy as np
import pytest

import lpnse.field
from lpnse.besov import CriterionTriple
from lpnse.blocks import _MULTIPLIER_CACHE
from lpnse.field import _available_cpus, _thread_map, set_fft_workers
from lpnse.monitor import _linf_block_matrix, build_report
from lpnse.solver import SolverConfig, twin_run

two_cpus = pytest.mark.skipif(_available_cpus() < 2,
                              reason="a pool thread needs a second CPU")


def _thread_name(_):
    return threading.current_thread().name


def test_thread_count_defaults_to_two_cpus_at_most():
    assert lpnse.field._fft_workers == min(2, _available_cpus())


@pytest.mark.parametrize("count", [0, -5])
def test_thread_count_below_one_rejected(count):
    before = lpnse.field._fft_workers
    with pytest.raises(ValueError, match="thread count must be >= 1"):
        set_fft_workers(count)
    assert lpnse.field._fft_workers == before


def test_thread_count_capped_at_available_cpus():
    set_fft_workers(10**6)  # starts no thread: the pool is made on use
    assert lpnse.field._fft_workers == _available_cpus()
    set_fft_workers(1)
    assert lpnse.field._fft_workers == 1


@two_cpus
def test_thread_map_keeps_item_order_and_uses_the_pool():
    set_fft_workers(2)
    items = list(range(7))
    assert _thread_map(lambda x: x * x, items) == [x * x for x in items]
    names = _thread_map(_thread_name, items)
    caller = threading.current_thread().name
    assert [name == caller for name in names] == [i % 2 == 0 for i in items]


def test_thread_map_serial_with_one_thread():
    set_fft_workers(1)
    caller = threading.current_thread().name
    assert _thread_map(_thread_name, range(5)) == [caller] * 5


@two_cpus
def test_thread_map_nested_call_runs_serially():
    # an inner map on the one pool thread must not wait on its own pool
    set_fft_workers(2)
    outer = _thread_map(lambda _: _thread_map(_thread_name, range(3)),
                        range(2))
    assert [len(set(names)) for names in outer] == [1, 1]
    assert outer[0] != outer[1]


def _overflow(x):
    return np.float64(x) * np.float64(1e308)


@two_cpus
def test_thread_map_pool_items_see_the_callers_errstate():
    # item 1 runs on the pool thread, which numpy's errstate (a context
    # variable) reaches only through the copied context
    set_fft_workers(2)
    assert _thread_map(_thread_name, [1.0, 10.0])[1] != \
        threading.current_thread().name
    with np.errstate(over="raise"):
        with pytest.raises(FloatingPointError):
            _thread_map(_overflow, [1.0, 10.0])
    with np.errstate(over="ignore"):
        assert _thread_map(_overflow, [1.0, 10.0])[1] == math.inf


@two_cpus
def test_thread_map_raises_after_every_item_finished():
    # item 1 fails on the pool thread; the map raises only once item 3,
    # queued behind it, has run too
    set_fft_workers(2)
    done = []

    def work(x):
        if x == 1:
            raise KeyError("item 1")
        done.append(x)
        return x

    with pytest.raises(KeyError, match="item 1"):
        _thread_map(work, range(4))
    assert sorted(done) == [0, 2, 3]


def test_report_files_identical_across_thread_counts(tmp_path):
    # 3D n=16 twin pair: the report written with one thread and with two
    # is the same byte for byte
    config = SolverConfig(dim=3, n=16, nu=0.05, dt=5e-3, t_end=0.04,
                          ic="random-divfree", snap_every=1)
    u, v = twin_run(config, delta=1e-3, seed=2)
    triple = CriterionTriple(0.5, 4.0, 8.0 / 3.0)
    files = {}
    for threads in (1, 2):
        set_fft_workers(threads)
        paths = build_report(u, v, triple, s=0.5, lam=1.0).write(
            tmp_path / f"t{threads}")
        files[threads] = {p.rsplit("/", 1)[-1]: open(p, "rb").read()
                          for p in paths}
    assert len(files[1]) == 7
    assert files[1] == files[2]


@two_cpus
def test_block_tables_under_fast_thread_switching(twin_pair):
    # both threads fill the emptied multiplier cache at once, switching
    # every microsecond; every table still equals the one-thread table
    u = twin_pair[0]
    set_fft_workers(1)
    serial = _linf_block_matrix(u, 4.0)
    set_fft_workers(2)
    interval = sys.getswitchinterval()
    _MULTIPLIER_CACHE.clear()
    sys.setswitchinterval(1e-6)
    try:
        threaded = _linf_block_matrix(u, 4.0)
    finally:
        sys.setswitchinterval(interval)
    for a, b in zip(serial, threaded):
        assert a.tobytes() == b.tobytes()
