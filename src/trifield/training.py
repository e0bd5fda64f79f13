"""Composite render loss, AdamW with decoupled weight decay, and scene fitting.

Fitting overfits triplane contents plus field heads to multi-view supervision
by rendering random ray batches, exactly the discrete pixel-wise optimization
the renderer's independence of pixels allows.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor, add, mul, sub, tmean
from .cores import on_cores
from .render import (
    FieldHeads, RenderOutput, default_bounds, field_eval_batch, generate_rays, init_field_heads, render_rays,
    sample_points_batch,
)
from .triplane import Triplane, random_triplane


@dataclass
class LossWeights:
    """Term weights of the composite loss."""

    lambda_mask: float = 0.5
    lambda_depth: float = 1.0

    def __post_init__(self):
        if min(self.lambda_mask, self.lambda_depth) < 0.0:
            raise ValueError("loss weights must be non-negative")


def mse(a, b):
    d = sub(ad.as_tensor(a), ad.as_tensor(b))
    return tmean(mul(d, d))


def render_loss(preds, gts, weights=None):
    """Sum over views of image, mask and depth MSEs."""
    weights = weights or LossWeights()
    if len(preds) != len(gts) or not preds:
        raise ValueError(f"need equal non-empty view batches, got {len(preds)} vs {len(gts)}")
    total = None
    for p, g in zip(preds, gts):
        term = add(
            mse(p.image, g.image),
            add(mul(mse(p.mask, g.mask), weights.lambda_mask), mul(mse(p.depth, g.depth), weights.lambda_depth)),
        )
        total = term if total is None else add(total, term)
    return total


class AdamW:
    """Decoupled weight decay (applied before the adaptive update), then
    bias-corrected Adam moments. Steps with non-finite gradients are rejected
    and counted, leaving parameters and state untouched."""

    def __init__(self, params, lr, beta1=0.9, beta2=0.95, weight_decay=0.03, eps=1e-8):
        self.params = list(params)
        self.lr = lr
        self.beta1, self.beta2 = beta1, beta2
        self.weight_decay = weight_decay
        self.eps = eps
        self.m = [np.zeros_like(p.data) for p in self.params]
        self.v = [np.zeros_like(p.data) for p in self.params]
        self.step_count = 0
        self.rejected = 0

    def step(self):
        grads = [p.grad if p.grad is not None else np.zeros_like(p.data) for p in self.params]
        if any(not np.all(np.isfinite(g)) for g in grads):
            self.rejected += 1
            return False
        self.step_count += 1
        t = self.step_count
        bc1 = 1.0 - self.beta1 ** t
        bc2 = 1.0 - self.beta2 ** t
        for p, g, m, v in zip(self.params, grads, self.m, self.v):
            p.data *= 1.0 - self.lr * self.weight_decay
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * g * g
            p.data -= self.lr * (m / bc1) / (np.sqrt(v / bc2) + self.eps)
        return True

    def zero_grad(self):
        for p in self.params:
            p.grad = None


@dataclass
class FitConfig:
    iterations: int = 3000
    lr_planes: float = 5e-3
    lr_heads: float = 5e-4
    ray_batch: int = 256
    samples_per_ray: int = 48
    grid_resolution: int = 32
    grid_channels: int = 16
    hidden: int = 32
    mlp_depth: int = 2
    n_freqs: int = 0
    val_every: int = 100
    val_rays: int = 512
    stratified: bool = True
    seed: int = 0

    def __post_init__(self):
        for name in ("iterations", "ray_batch", "samples_per_ray", "grid_resolution", "grid_channels", "hidden",
                     "mlp_depth", "val_every", "val_rays"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        for name in ("lr_planes", "lr_heads"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be > 0, got {getattr(self, name)}")
        if self.n_freqs < 0:
            raise ValueError(f"n_freqs must be >= 0, got {self.n_freqs}")


@dataclass
class FitResult:
    triplane: Triplane
    heads: object
    history: list = field(default_factory=list)
    best_val: float = float("inf")
    diverged: bool = False
    steps_run: int = 0
    adamw_rejected: int = 0  # steps either optimizer rejected for a non-finite gradient


def _snapshot(tensors):
    return [t.data.copy() for t in tensors]


def _restore(tensors, datas):
    for t, d in zip(tensors, datas):
        t.data = d.copy()


def _part_leaves(tri, heads):
    """Gradient leaves on the parameters' own arrays: a batch part's tape, with no data copied."""

    def leaf(t):
        return Tensor(t.data, requires_grad=True)

    def layers(pairs):
        return [(leaf(w), leaf(b)) for w, b in pairs]

    return Triplane(leaf(tri.tensor)), FieldHeads(layers(heads.s_layers), layers(heads.c_layers), heads.n_freqs)


def fit_scene(views, cfg=None, weights=None, log=None):
    """Overfit triplane + heads to (Camera, RenderOutput) supervision views.

    Per step, a random batch of pixels across all views is rendered and the
    composite loss restricted to that batch is stepped with AdamW (separate
    learning rates for plane contents and heads). Returns the parameters with
    the lowest running validation loss, where validation is a fixed random
    probe subset of supervision rays rendered deterministically.

    Each step's batch runs as two fixed parts, its first half (rounded down)
    and the rest; a batch of one ray is one part. Each part renders on leaves
    of its own (`_part_leaves`) with its loss scaled by its share of the
    batch, and runs its backward; the parts run `on_cores`. A parameter steps
    on part 0's gradient plus part 1's, in that order, so the fit does not
    depend on which thread runs a part. The parameters themselves never
    require grad: the probe builds no tape.
    """
    cfg = cfg or FitConfig()
    weights = weights or LossWeights()
    if len(views) < 2:
        raise ValueError(f"need at least 2 supervision views, got {len(views)}")
    rng = np.random.default_rng(cfg.seed)

    tri = random_triplane(rng, cfg.grid_resolution, cfg.grid_channels, scale=0.05)
    heads = init_field_heads(rng, 3 * cfg.grid_channels, hidden=cfg.hidden, depth=cfg.mlp_depth, n_freqs=cfg.n_freqs)

    origins, dirs, gt_rgb, gt_mask, gt_depth = [], [], [], [], []
    bounds = [default_bounds(cam.position) for cam, _ in views]
    t_near = min(b[0] for b in bounds)
    t_far = max(b[1] for b in bounds)
    for cam, gt in views:
        bundle = generate_rays(cam, t_near, t_far)
        origins.append(bundle.origins)
        dirs.append(bundle.directions)
        gt_rgb.append(np.asarray(gt.image, dtype=np.float64).reshape(-1, 3))
        gt_mask.append(np.asarray(gt.mask, dtype=np.float64).reshape(-1))
        gt_depth.append(np.asarray(gt.depth, dtype=np.float64).reshape(-1))
    origins = np.concatenate(origins)
    dirs = np.concatenate(dirs)
    gt_rgb = np.concatenate(gt_rgb)
    gt_mask = np.concatenate(gt_mask)
    gt_depth = np.concatenate(gt_depth)
    total = origins.shape[0]

    probe = rng.choice(total, size=min(cfg.val_rays, total), replace=False)
    probe_ts = sample_points_batch(t_near, t_far, len(probe), cfg.samples_per_ray)
    params = [tri.tensor] + heads.tensors()
    opt_planes = AdamW([tri.tensor], lr=cfg.lr_planes)
    opt_heads = AdamW(heads.tensors(), lr=cfg.lr_heads)
    half = cfg.ray_batch // 2
    parts = [(0, half), (half, cfg.ray_batch)] if half else [(0, cfg.ray_batch)]

    def batch_loss(t, h, idx, ts):
        rgb, mask, depth = render_rays(t, h, origins[idx], dirs[idx], ts, t_far)
        pred = RenderOutput(rgb, mask, depth)
        gt = RenderOutput(gt_rgb[idx], gt_mask[idx], gt_depth[idx])
        return render_loss([pred], [gt], weights)

    def part_step(part):
        """(loss scaled by the part's share of the batch, its parameter gradients or None if not finite)."""
        idx, ts = part
        t, h = _part_leaves(tri, heads)
        loss = mul(batch_loss(t, h, idx, ts), len(idx) / cfg.ray_batch)
        loss_val = float(loss.data)
        if not np.isfinite(loss_val):
            return loss_val, None
        loss.backward()
        return loss_val, [leaf.grad for leaf in [t.tensor] + h.tensors()]

    result = FitResult(tri, heads)
    best = _snapshot(params)
    try:
        with on_cores() as run:
            for step in range(1, cfg.iterations + 1):
                idx = rng.integers(0, total, size=cfg.ray_batch)
                ts = sample_points_batch(t_near, t_far, cfg.ray_batch, cfg.samples_per_ray, cfg.stratified, rng)
                outs = run(part_step, [(idx[lo:hi], ts[lo:hi]) for lo, hi in parts])
                loss_val = sum(val for val, _ in outs)
                if not np.isfinite(loss_val):
                    result.diverged = True
                    break
                for p, *grads in zip(params, *(g for _, g in outs)):
                    p.grad = sum(grads[1:], grads[0])  # part 0 + part 1, in that order
                opt_planes.step()
                opt_heads.step()
                opt_planes.zero_grad()
                opt_heads.zero_grad()
                result.history.append(loss_val)
                result.steps_run = step
                if step % cfg.val_every == 0 or step == cfg.iterations:
                    val = float(batch_loss(tri, heads, probe, probe_ts).data)
                    if np.isfinite(val) and val < result.best_val:
                        result.best_val = val
                        best = _snapshot(params)
                    if log is not None:
                        log(step, loss_val, val)
    finally:
        # also on an exception: no parameter keeps a gradient
        for p in params:
            p.grad = None

    result.adamw_rejected = opt_planes.rejected + opt_heads.rejected
    _restore(params, best)
    # snap to float32 so checkpoint round-trips render bit-identically
    for p in params:
        p.data = p.data.astype("<f4").astype(np.float64)
    return result


def mean_density(tri, heads):
    """Mean field density on a regular 8^3 probe lattice inside the cube."""
    axis = np.linspace(-0.9, 0.9, 8)
    pts = np.stack(np.meshgrid(axis, axis, axis, indexing="ij"), axis=-1).reshape(-1, 3)
    sigma, _ = field_eval_batch(tri, heads, pts)
    return float(sigma.data.mean())


def psnr(pred, gt):
    """Peak signal-to-noise ratio in dB for images in [0, 1]."""
    err = float(np.mean((np.asarray(pred, dtype=np.float64) - np.asarray(gt, dtype=np.float64)) ** 2))
    if err == 0.0:
        return float("inf")
    return float(10.0 * np.log10(1.0 / err))
