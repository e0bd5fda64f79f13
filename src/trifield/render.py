"""Differentiable any-view synthesis: rays, point sampling, field heads, integration.

The volume integral is discretized with the exponential quadrature
    delta_j = t_{j+1} - t_j  (last delta = t_f - t_last)
    alpha_j = 1 - exp(-sigma_j * delta_j)
    T_j     = prod_{k<j} (1 - alpha_k)  computed as exp(-sum_{k<j} sigma_k delta_k)
    w_j     = T_j * alpha_j
which keeps sum(w) <= 1 for every ray. The cumulative-sum form of T is
algebraically identical to the product form and keeps gradients smooth.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor, add, concat, mlp, mul, reshape, sigmoid, softplus, sub, tsum
from .cores import on_cores
from .triplane import sample_triplane

SQRT3 = float(np.sqrt(3.0))

# rays per render_view chunk: a chunk's head activations (chunk * n rows,
# 12,288 at 96 samples) stay near the size of a core's 2 MB L2 cache, and
# each worker thread runs on its own core, so the budget is per worker core.
# A pixel does not depend on the chunk, except that BLAS may pick another
# matmul kernel for a chunk of few rows (a ~1e-16 drift).
RENDER_CHUNK = 128


@dataclass
class Camera:
    """Pinhole camera; orientation columns are (right, up, forward)."""

    position: np.ndarray
    orientation: np.ndarray
    fov: float
    height: int
    width: int

    def __post_init__(self):
        self.position = np.asarray(self.position, dtype=np.float64)
        self.orientation = np.asarray(self.orientation, dtype=np.float64)
        if self.position.shape != (3,) or self.orientation.shape != (3, 3):
            raise ValueError("camera needs a 3-vector position and 3x3 orientation")
        err = np.abs(self.orientation.T @ self.orientation - np.eye(3)).max()
        if err > 1e-9:
            raise ValueError(f"orientation not orthonormal (deviation {err:.2e})")
        if not (0.0 < self.fov < np.pi):
            raise ValueError(f"fov must be in (0, pi), got {self.fov}")

    @property
    def right(self):
        return self.orientation[:, 0]

    @property
    def up(self):
        return self.orientation[:, 1]

    @property
    def forward(self):
        return self.orientation[:, 2]


@dataclass
class RayBundle:
    """One ray per pixel, flattened row-major; shape retains (H, W)."""

    origins: np.ndarray  # (H*W, 3)
    directions: np.ndarray  # (H*W, 3)
    t_near: float
    t_far: float
    shape: tuple


def default_bounds(position):
    """Near/far bounds that keep the [-1,1]^3 cube inside the sampled range."""
    r = float(np.linalg.norm(np.asarray(position, dtype=np.float64)))
    return max(0.1, r - SQRT3), r + SQRT3


def generate_rays(cam, t_near=None, t_far=None):
    """Pinhole rays through pixel centers; fov spans the vertical extent; bounds default to default_bounds."""
    if t_near is None:
        t_near, t_far = default_bounds(cam.position)
    h, w = cam.height, cam.width
    half_v = np.tan(cam.fov / 2.0)
    half_u = half_v * (w / h)
    jj, ii = np.meshgrid(np.arange(w), np.arange(h))
    su = ((jj + 0.5) / w * 2.0 - 1.0) * half_u
    sv = (1.0 - (ii + 0.5) / h * 2.0) * half_v
    dirs = su[..., None] * cam.right + sv[..., None] * cam.up + cam.forward
    dirs = dirs / np.linalg.norm(dirs, axis=-1, keepdims=True)
    origins = np.broadcast_to(cam.position, dirs.shape).reshape(-1, 3).copy()
    return RayBundle(origins, dirs.reshape(-1, 3), float(t_near), float(t_far), (h, w))


def sample_points_batch(t_near, t_far, n_rays, n, stratified=False, rng=None):
    if n < 1:
        raise ValueError(f"need n >= 1 samples, got {n}")
    edges = np.linspace(t_near, t_far, n + 1)
    lo, hi = edges[:-1], edges[1:]
    if stratified:
        if rng is None:
            raise ValueError("stratified sampling needs an rng")
        u = rng.random((n_rays, n))
        return lo + u * (hi - lo)
    mid = 0.5 * (lo + hi)
    return np.broadcast_to(mid, (n_rays, n)).copy()


@dataclass
class FieldHeads:
    """Density and color MLPs over (position encoding | triplane feature).

    s_layers / c_layers are (weight, bias) pairs; relu between layers. Density
    passes through softplus, color through sigmoid.
    """

    s_layers: list
    c_layers: list
    n_freqs: int = 0

    def tensors(self):
        return [t for w, b in self.s_layers + self.c_layers for t in (w, b)]


def init_field_heads(rng, feat_dim, hidden=32, depth=2, n_freqs=0, density_bias=-1.0):
    in_dim = 3 * (1 + 2 * n_freqs) + feat_dim

    def head(out_dim, out_bias):
        layers, last = [], in_dim
        for _ in range(depth - 1):
            layers.append((Tensor(rng.normal(scale=np.sqrt(2.0 / last), size=(last, hidden))),
                           Tensor(np.zeros(hidden))))
            last = hidden
        layers.append((Tensor(rng.normal(scale=np.sqrt(1.0 / last), size=(last, out_dim))),
                       Tensor(np.full(out_dim, out_bias))))
        return layers

    return FieldHeads(s_layers=head(1, density_bias), c_layers=head(3, 0.0), n_freqs=n_freqs)


def encode_positions(points, n_freqs):
    """Raw 3-vector, optionally with sin/cos of scaled octave frequencies."""
    if n_freqs == 0:
        return points
    parts = [points]
    for k in range(n_freqs):
        scaled = mul(points, float(2.0 ** k * np.pi))
        parts.append(ad.sin(scaled))
        parts.append(ad.cos(scaled))
    return concat(parts, axis=1)


def field_eval_batch(tri, heads, points):
    """(sigma (N,), color (N, 3)) Tensors at a batch of world points; each head is one `mlp` node."""
    pts = ad.as_tensor(points)
    n = pts.data.shape[0]
    # no local name keeps the (N, 3C) lookup, so without grad it is freed
    # once the concat has copied it, before the heads run
    x = concat([encode_positions(pts, heads.n_freqs), sample_triplane(tri, pts)], axis=1)
    sigma = reshape(softplus(mlp(x, heads.s_layers)), (n,))
    color = sigmoid(mlp(x, heads.c_layers))
    return sigma, color


def integrate_rays(sigmas, colors, ts, t_far):
    """Quadrature over aligned per-ray samples -> (rgb (R,3), mask (R,), depth (R,))."""
    sig = ad.as_tensor(sigmas)
    col = ad.as_tensor(colors)
    ts = np.asarray(ts, dtype=np.float64)
    if ts.ndim != 2 or sig.data.shape != ts.shape or col.data.shape != ts.shape + (3,):
        raise ad.ShapeError(
            f"integrate_rays: misaligned inputs sigma {sig.data.shape}, color {col.data.shape}, ts {ts.shape}"
        )
    if np.any(np.diff(ts, axis=1) <= 0.0):
        raise ValueError("integrate_rays: t-values must be strictly ascending")
    if np.any(sig.data < 0.0):
        raise ValueError("integrate_rays: densities must be non-negative")
    r, n = ts.shape
    delta = np.empty_like(ts)
    delta[:, :-1] = ts[:, 1:] - ts[:, :-1]
    delta[:, -1] = t_far - ts[:, -1]

    sd = mul(sig, Tensor(delta))
    excl = sub(ad.cumsum(sd, axis=1), sd)  # exclusive prefix sum of optical depth
    trans = ad.exp(mul(excl, -1.0))
    alpha = sub(1.0, ad.exp(mul(sd, -1.0)))
    w = mul(trans, alpha)
    w3 = ad.broadcast_to(reshape(w, (r, n, 1)), (r, n, 3))
    rgb = tsum(mul(w3, col), axis=1)
    mask = tsum(w, axis=1)
    depth = add(tsum(mul(w, Tensor(ts)), axis=1), mul(sub(1.0, mask), float(t_far)))
    return rgb, mask, depth


def render_rays(tri, heads, origins, dirs, ts, t_far):
    """Render a flat batch of rays at sample depths ts (R, n) -> (rgb (R,3), mask (R,), depth (R,)) Tensors.

    The caller draws the depths (`sample_points_batch`), so rendering draws
    nothing and a batch can be split into parts that render the same samples.
    """
    origins = np.asarray(origins, dtype=np.float64)
    dirs = np.asarray(dirs, dtype=np.float64)
    ts = np.asarray(ts, dtype=np.float64)
    if ts.ndim != 2 or ts.shape[0] != origins.shape[0]:
        raise ad.ShapeError(f"render_rays: {origins.shape[0]} rays but sample depths of shape {ts.shape}")
    r, n = ts.shape
    pts = (origins[:, None, :] + ts[..., None] * dirs[:, None, :]).reshape(r * n, 3)
    sigma, color = field_eval_batch(tri, heads, pts)
    return integrate_rays(reshape(sigma, (r, n)), reshape(color, (r, n, 3)), ts, t_far)


@dataclass
class RenderOutput:
    """Per-view image (H, W, 3), mask (H, W), depth (H, W); background depth = t_far."""

    image: object
    mask: object
    depth: object


def render_view(tri, heads, cam, n):
    """Deterministic full-frame render, n bin-midpoint samples per ray, RENDER_CHUNK rays at a time.

    The chunks run `on_cores`. Each chunk is one render_rays call that writes
    only its own rows of the frame, so the frame does not depend on which
    thread runs it.
    """
    bundle = generate_rays(cam)
    h, w = bundle.shape
    total = h * w
    img = np.empty((total, 3))
    msk = np.empty(total)
    dep = np.empty(total)

    def chunk(lo):
        hi = min(lo + RENDER_CHUNK, total)
        ts = sample_points_batch(bundle.t_near, bundle.t_far, hi - lo, n)
        rgb, mask, depth = render_rays(tri, heads, bundle.origins[lo:hi], bundle.directions[lo:hi], ts, bundle.t_far)
        img[lo:hi] = rgb.data
        msk[lo:hi] = mask.data
        dep[lo:hi] = depth.data

    with on_cores() as run:
        run(chunk, range(0, total, RENDER_CHUNK))
    return RenderOutput(img.reshape(h, w, 3), msk.reshape(h, w), dep.reshape(h, w))
