import ctypes
import os
import threading
import time

import pytest

from trifield import cores


class _FakeLibc:
    """A libc whose mallopt records its calls; without mallopt when `has_mallopt` is false."""

    def __init__(self, has_mallopt=True):
        self.calls = []
        if has_mallopt:
            self.mallopt = lambda param, value: self.calls.append((param, value))


def test_tune_allocator_raises_both_thresholds_to_1_gib(monkeypatch):
    libc = _FakeLibc()
    monkeypatch.setattr(ctypes, "CDLL", lambda name: libc)
    cores._tune_allocator()
    assert libc.calls == [(-3, 1 << 30), (-1, 1 << 30)]  # M_MMAP_THRESHOLD, M_TRIM_THRESHOLD


def test_tune_allocator_is_silent_without_a_libc(monkeypatch):
    def missing(name):
        raise OSError("no libc")

    monkeypatch.setattr(ctypes, "CDLL", missing)
    assert cores._tune_allocator() is None


def test_tune_allocator_is_silent_without_mallopt(monkeypatch):
    monkeypatch.setattr(ctypes, "CDLL", lambda name: _FakeLibc(has_mallopt=False))
    assert cores._tune_allocator() is None


class _FakeBlas:
    """A BLAS thread count that `on_cores` pins and restores."""

    def __init__(self, threads):
        self.threads = threads

    def set(self, k):
        self.threads = k

    def get(self):
        return self.threads


def _cores(monkeypatch, n, threads=3):
    """`on_cores` with a fake OpenBLAS at `threads` threads and n usable CPUs."""
    blas = _FakeBlas(threads)
    monkeypatch.setattr(cores, "_find_openblas", lambda: (blas.set, blas.get))
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))
    return blas


def _slow_square(i):
    time.sleep(0.002 * (i % 3))  # items finish out of order
    return i * i, threading.get_ident()


@pytest.mark.parametrize("cpus", [1, 2, 3])
def test_on_cores_returns_results_in_item_order(monkeypatch, cpus):
    _cores(monkeypatch, cpus)
    with cores.on_cores() as run:
        out = run(_slow_square, range(11))
        assert run(_slow_square, []) == []
    assert [sq for sq, _ in out] == [i * i for i in range(11)]
    assert out[0][1] == threading.get_ident()  # item 0 runs on the calling thread
    assert len({ident for _, ident in out}) <= cpus


@pytest.mark.parametrize("blas", ["none", "one cpu"])
def test_on_cores_with_one_worker_starts_no_thread(monkeypatch, blas):
    if blas == "none":
        monkeypatch.setattr(cores, "_find_openblas", lambda: None)
    else:
        _cores(monkeypatch, 1)
    before = set(threading.enumerate())

    def item(i):
        assert set(threading.enumerate()) == before
        return threading.get_ident()

    with cores.on_cores() as run:
        assert run(item, range(5)) == [threading.get_ident()] * 5


def test_on_cores_pins_blas_for_every_item_and_restores_it(monkeypatch):
    blas = _cores(monkeypatch, 2)
    with cores.on_cores() as run:
        assert run(lambda i: blas.get(), range(6)) == [1] * 6
        with cores.on_cores() as inner:  # the pin is reentrant, as a fit's log callback needs
            assert inner(lambda i: blas.get(), range(3)) == [1] * 3
        assert blas.threads == 1
    assert blas.threads == 3
    with pytest.raises(ZeroDivisionError), cores.on_cores() as run:
        run(lambda i: 1 / (i - 2), range(4))
    assert blas.threads == 3


# item 0 runs on the calling thread, item 1 on the first pool thread, later items on whichever thread is free
@pytest.mark.parametrize("fail", [0, 1, 5])
def test_on_cores_item_error_reaches_caller(monkeypatch, fail):
    blas = _cores(monkeypatch, 3)
    before = set(threading.enumerate())
    started = []

    def item(i):
        started.append(i)
        if i == fail:
            raise RuntimeError(f"item {i} failed")
        time.sleep(0.02)
        return i

    with pytest.raises(RuntimeError, match=f"item {fail} failed"), cores.on_cores() as run:
        run(item, range(12))
    # items 0-2 go to the three workers at once, later ones in order as a worker
    # frees up; once an item has failed no worker takes another
    assert fail in started and set(started) <= set(range(max(fail + 1, 3)))
    assert blas.threads == 3
    assert set(threading.enumerate()) == before


def test_on_cores_leaves_no_thread(monkeypatch):
    _cores(monkeypatch, 3)
    before = set(threading.enumerate())
    with cores.on_cores() as run:
        for _ in range(3):
            idents = {ident for _, ident in run(_slow_square, range(9))}
    assert len(idents) > 1  # the pool did run items
    assert set(threading.enumerate()) == before
