"""The thread map (a report's snapshot pairs, the lanes of a block
table, of grad_norm_inf and of lp_norm) and the thread count that sizes
it.

No test here starts more threads than the host has CPUs: counts are
checked as computed, and only the tests that need a pool thread make
one."""

import hashlib
import math
import sys
import threading

import numpy as np
import pytest

import lpnse.field
from lpnse import Grid
from lpnse.besov import (BesovSpec, CriterionTriple, besov_norm, bkm_ratio,
                         split_constants)
from lpnse.blocks import (_block_radius, _half_multiplier, block_indices,
                          block_norm_table, s_j)
from lpnse.ensembles import divfree_noise
from lpnse.field import (_available_cpus, _thread_map, grad_norm_inf, lp_norm,
                         scale, set_fft_workers)
from lpnse.monitor import (_linf_block_matrix, build_report, gronwall_check,
                           integral_identity_check)
from lpnse.solver import SolverConfig, twin_run

two_cpus = pytest.mark.skipif(_available_cpus() < 2,
                              reason="a pool thread needs a second CPU")
DEFAULT_THREADS = min(2, _available_cpus())


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
    u, v = twin_pair
    set_fft_workers(1)
    serial = _linf_block_matrix(u, 4.0, v)
    set_fft_workers(2)
    interval = sys.getswitchinterval()
    _half_multiplier.cache_clear()
    sys.setswitchinterval(1e-6)
    try:
        threaded = _linf_block_matrix(u, 4.0, v)
    finally:
        sys.setswitchinterval(interval)
    for a, b in zip(serial, threaded):
        assert a.tobytes() == b.tobytes()


TABLE_PS = [(2.0,), (4.0,), (math.inf,), (math.inf, 4.0), (math.inf, 6.0),
            (2.0, math.inf, 3.0)]


@pytest.mark.parametrize("dim,n", [(2, 32), (3, 16)])
def test_block_tables_identical_across_thread_counts(dim, n):
    # one lane of all components, or one lane per thread of one
    # component each: the same table bit for bit for every exponent mix
    u = divfree_noise(Grid(dim, n), np.random.default_rng(11), slope=2.0)
    digests = {}
    for threads in (1, DEFAULT_THREADS):
        set_fft_workers(threads)
        digests[threads] = [
            hashlib.sha256(block_norm_table(u, ps).tobytes()).hexdigest()
            for ps in TABLE_PS]
    assert digests[1] == digests[DEFAULT_THREADS]


def test_pair_checks_identical_across_thread_counts(twin_pair):
    # gronwall_check and integral_identity_check walk the pairs on the
    # thread map; every value is the same at every thread count
    u, v = twin_pair
    triple = CriterionTriple(0.5, 4.0, 8.0 / 3.0)
    values = {}
    for threads in (1, DEFAULT_THREADS):
        set_fft_workers(threads)
        fit = gronwall_check(u, v, triple)
        values[threads] = repr(
            ({key: np.asarray(value).tolist()
              for key, value in vars(fit).items()},
             integral_identity_check(u, v)))
    assert values[1] == values[DEFAULT_THREADS]


def test_bkm_ratio_and_split_constants_identical_across_thread_counts():
    # criterion 4's three triples, each on a seeded 3D n=64 field at unit
    # norm for it, as in the diag3d benchmark's pool
    rng = np.random.default_rng(3)
    for triple in (CriterionTriple(0.25, 4.0, 4.0),
                   CriterionTriple(0.5, 6.0, 2.0),
                   CriterionTriple(1.0, 6.0, 4.0 / 3.0)):
        u = divfree_noise(Grid(3, 64), rng, slope=2.0)
        u = scale(u, 1.0 / besov_norm(u, BesovSpec(triple.r, triple.p,
                                                    math.inf)))
        values = {}
        for threads in (1, DEFAULT_THREADS):
            set_fft_workers(threads)
            values[threads] = repr((bkm_ratio(u), split_constants(u, triple)))
        assert values[1] == values[DEFAULT_THREADS], triple


def test_grad_and_lp_norms_identical_across_thread_counts():
    # grad_norm_inf runs its axes and lp_norm its components in lanes of
    # one-component transforms; every value is the same at every thread
    # count, for a full field and for a low-pass one
    u = divfree_noise(Grid(3, 64), np.random.default_rng(5), slope=2.0)
    values = {}
    for threads in (1, DEFAULT_THREADS):
        set_fft_workers(threads)
        values[threads] = repr(
            [grad_norm_inf(u), grad_norm_inf(s_j(u, 2))]
            + [lp_norm(u, p) for p in (2.5, 5.0, 9.0, math.inf)])
    assert values[1] == values[DEFAULT_THREADS]


@two_cpus
def test_block_table_lanes(monkeypatch):
    # called on its own, a table runs block j's column col on lane
    # col % 2, lane 0 on the caller, one component per transform; from
    # inside a map item it runs one lane, all components per transform
    set_fft_workers(2)
    grid = Grid(3, 16)
    u = divfree_noise(grid, np.random.default_rng(4))
    js = block_indices(grid)
    col_of = {_block_radius(grid, j): col for col, j in enumerate(js)}
    assert len(col_of) == len(js)
    transforms = []
    irfftn_half = lpnse.field._irfftn_half

    def record(a, shape, radius):
        transforms.append((threading.current_thread().name, len(a), radius))
        return irfftn_half(a, shape, radius)

    # the lanes transform through field._box_squares
    monkeypatch.setattr(lpnse.field, "_irfftn_half", record)
    caller = threading.current_thread().name
    block_norm_table(u, (math.inf,))
    assert len(transforms) == u.ncomp * len(js)
    assert {comps for _, comps, _ in transforms} == {1}
    for name, _, radius in transforms:
        assert (name == caller) == (col_of[radius] % 2 == 0)

    transforms.clear()
    _thread_map(lambda _: block_norm_table(u, (math.inf,)), range(2))
    assert len(transforms) == 2 * len(js)
    assert {comps for _, comps, _ in transforms} == {u.ncomp}
    names = [name for name, _, _ in transforms]
    assert len(set(names)) == 2
    assert [names.count(name) for name in set(names)] == [len(js)] * 2


@two_cpus
def test_grad_and_lp_norm_lanes(monkeypatch):
    # every transform is of one component: on their own, grad_norm_inf's
    # lanes take axes 0-1 on the caller and axis 2 on the pool, and
    # lp_norm's components 0 and 2 on the caller and 1 on the pool; from
    # inside a map item each call runs on the item's thread only
    set_fft_workers(2)
    u = divfree_noise(Grid(3, 16), np.random.default_rng(4))
    transforms = []
    irfftn_half = lpnse.field._irfftn_half

    def record(a, shape, radius=None):
        transforms.append((threading.current_thread().name, len(a)))
        return irfftn_half(a, shape, radius)

    monkeypatch.setattr(lpnse.field, "_irfftn_half", record)
    caller = threading.current_thread().name
    grad_norm_inf(u)
    lp_norm(u, 3.0)
    assert {comps for _, comps in transforms} == {1}
    names = [name for name, _ in transforms]
    assert (names.count(caller), len(names)) == (6 + 2, 9 + 3)

    transforms.clear()
    _thread_map(lambda _: (grad_norm_inf(u), lp_norm(u, 3.0)), range(2))
    names = [name for name, _ in transforms]
    assert len(set(names)) == 2
    assert [names.count(name) for name in set(names)] == [9 + 3] * 2
