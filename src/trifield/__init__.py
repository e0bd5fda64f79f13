"""Triplane neural fields with orthogonal cross-plane attention, differentiable
volume rendering, and a toy triplane diffusion model, verified against
analytic oracles."""

import ctypes

__version__ = "0.1.0"


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


_tune_allocator()
