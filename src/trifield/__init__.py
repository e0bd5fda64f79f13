"""Triplane neural fields with orthogonal cross-plane attention, differentiable
volume rendering, and a toy triplane diffusion model, verified against
analytic oracles."""

from .cores import _tune_allocator

__version__ = "0.1.0"

_tune_allocator()
