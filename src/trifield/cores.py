"""How the process uses its cores and its heap: the one module that sets process-wide state.

- `on_cores()` runs items on every usable core, with OpenBLAS pinned to one
  thread for the block; `render_view` and `fit_scene` run their work on it.
- `_tune_allocator()` sets two glibc malloc thresholds; the package calls it
  once, when `trifield` is imported.

Only the standard library is imported here, and `concurrent.futures` only
inside `on_cores`, so a process that never runs a pool (sampling) loads no
thread-pool or logging modules.
"""

import ctypes
import os
import threading
from contextlib import contextmanager

# (setter, getter) names of the thread count in the OpenBLAS builds numpy ships
# or links, tried in order
_OPENBLAS_THREAD_SYMBOLS = (
    ("scipy_openblas_set_num_threads64_", "scipy_openblas_get_num_threads64_"),
    ("openblas_set_num_threads", "openblas_get_num_threads"),
)
# held for an on_cores block, so that two concurrent blocks cannot restore
# each other's pinned count of 1; reentrant, so that a fit's log callback can
# render a frame
_BLAS_PIN = threading.RLock()


def _tune_allocator():
    """Keep large blocks on the glibc heap and keep the heap's freed pages.

    A forward pass allocates many short-lived multi-MB arrays: the gradient
    tape while training, and intermediates that are freed as soon as the next
    op has consumed them when no input requires grad.
    - M_MMAP_THRESHOLD at 1 GiB serves those blocks from the heap instead of
      a fresh mmap per allocation, which each pass would pay for in mmap
      calls and kernel page zeroing.
    - M_TRIM_THRESHOLD at 1 GiB stops free() from returning the top of the
      heap to the kernel. Without it, the pages a pass frees mid-pass are
      trimmed and then faulted back in by the next pass: thousands of minor
      page faults per denoiser pass, none with it.
    Best-effort: silently a no-op off glibc.
    """
    try:
        libc = ctypes.CDLL(None)
        libc.mallopt(-3, 1 << 30)  # M_MMAP_THRESHOLD
        libc.mallopt(-1, 1 << 30)  # M_TRIM_THRESHOLD
    except (OSError, AttributeError, TypeError):
        pass


def _find_openblas():
    """(set, get) thread-count functions of the OpenBLAS that numpy loaded, or None if none is found."""
    try:
        with open("/proc/self/maps") as f:
            libs = sorted({line.split()[-1] for line in f if "openblas" in line.lower()})
    except OSError:
        return None
    for lib in libs:
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for set_name, get_name in _OPENBLAS_THREAD_SYMBOLS:
            set_fn, get_fn = getattr(handle, set_name, None), getattr(handle, get_name, None)
            if set_fn is not None and get_fn is not None:
                set_fn.argtypes, set_fn.restype = [ctypes.c_int], None
                get_fn.argtypes, get_fn.restype = [], ctypes.c_int
                return set_fn, get_fn
    return None


@contextmanager
def on_cores():
    """Run items on every usable core, with OpenBLAS pinned to one thread, for the block.

    Yields `run(fn, items)`, which returns `[fn(item) for item in items]`. The
    calling thread takes item 0 and each thread of a pool of workers - 1, which
    lives for the block, the next one; then each takes the next untaken item
    whenever it is free, until none is left. The workers are the usable CPUs.
    With no OpenBLAS found BLAS cannot be pinned, and its own threads would
    compete with the workers, so there is one worker: the calling thread runs
    every item and no thread starts. An error in an item reaches the caller
    once the items already running end; no item starts after it. The caller's
    BLAS thread count is restored on every exit.
    """
    # imported here, not at the top: it pulls in logging and queue, which a
    # process that never renders or fits (sampling) need not load
    from concurrent.futures import ThreadPoolExecutor

    blas = _find_openblas()
    workers = 1 if blas is None else len(os.sched_getaffinity(0))
    set_threads, get_threads = blas or (lambda k: None, lambda: 1)

    def run(fn, items):
        out = [None] * len(items)
        untaken = iter(range(len(items)))  # next() on it is one call under the GIL
        failed = threading.Event()

        def take(i):
            try:
                while i is not None and not failed.is_set():
                    out[i] = fn(items[i])
                    i = next(untaken, None)
            except BaseException:
                failed.set()
                raise

        first = next(untaken, None)
        helpers = [pool.submit(take, next(untaken, None)) for _ in range(min(workers, len(items)) - 1)]
        try:
            take(first)
        finally:
            errors = [h.exception() for h in helpers]  # waits for every helper
        for error in errors:
            if error is not None:
                raise error
        return out

    with _BLAS_PIN:
        before = get_threads()
        set_threads(1)
        try:
            # a pool thread starts only on a submit, and `run` submits workers - 1 takers
            with ThreadPoolExecutor(max(workers - 1, 1)) as pool:
                yield run
        finally:
            set_threads(before)
