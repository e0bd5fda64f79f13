"""Triplane feature maps: projection, bilinear sampling, marginals.

A triplane factors a volumetric field over the world cube [-1, 1]^3 into
three feature planes (xy, xz, yz), each D x D x C and indexed [v, u, c]
(image convention: rows are v, u scans across a row). Texel centers sit at
integer indices; addressing outside a plane clamps to the edge.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import (
    Tensor,
    add,
    as_tensor,
    clip01_unit,
    concat,
    gather,
    mul,
    narrow,
    reshape,
    scale_rows,
    sub,
)

PLANE_IDS = ("xy", "xz", "yz")
# world-axis index pair (u axis, v axis) of each plane
PLANE_AXES = {"xy": (0, 1), "xz": (0, 2), "yz": (1, 2)}

# out-of-cube points are clamped, never rejected; callers can watch this counter
_clamp_count = 0


def clamp_count():
    return _clamp_count


@dataclass
class Triplane:
    """Three co-sized feature planes over [-1, 1]^3.

    planes: tuple of Tensors (P_xy, P_xz, P_yz), each (D, D, C).
    """

    planes: tuple

    def __post_init__(self):
        self.planes = tuple(as_tensor(p) for p in self.planes)
        if len(self.planes) != 3:
            raise ValueError(f"triplane needs 3 planes, got {len(self.planes)}")
        shapes = {p.data.shape for p in self.planes}
        if len(shapes) != 1 or self.planes[0].data.ndim != 3 or self.planes[0].data.shape[0] != self.planes[0].data.shape[1]:
            raise ValueError(f"planes must share one (D, D, C) shape, got {[p.data.shape for p in self.planes]}")
        self.validate_finite()

    @property
    def resolution(self):
        return self.planes[0].data.shape[0]

    @property
    def channels(self):
        return self.planes[0].data.shape[2]

    def plane(self, plane_id):
        return self.planes[PLANE_IDS.index(plane_id)]

    def validate_finite(self):
        for pid, p in zip(PLANE_IDS, self.planes):
            if not np.all(np.isfinite(p.data)):
                raise ValueError(f"plane {pid} contains non-finite values")

    def numpy(self):
        return tuple(p.data.copy() for p in self.planes)

    def copy(self, requires_grad=False):
        return Triplane(tuple(Tensor(p.data.copy(), requires_grad=requires_grad) for p in self.planes))


def random_triplane(rng, d, c, scale=0.1, requires_grad=False):
    return Triplane(
        tuple(Tensor(rng.normal(scale=scale, size=(d, d, c)), requires_grad=requires_grad) for _ in range(3))
    )


def _bilinear_plane(plane, u, v, d):
    """Bilinear sample of one plane at on-tape continuous coords u, v (each (N,))."""
    c = plane.data.shape[2]
    u0 = np.clip(np.floor(u.data), 0, d - 2).astype(np.int64) if d > 1 else np.zeros(u.data.shape, np.int64)
    v0 = np.clip(np.floor(v.data), 0, d - 2).astype(np.int64) if d > 1 else np.zeros(v.data.shape, np.int64)
    fu = sub(u, Tensor(u0.astype(np.float64)))
    fv = sub(v, Tensor(v0.astype(np.float64)))
    one = Tensor(np.ones_like(u.data))
    gu, gv = sub(one, fu), sub(one, fv)

    flat = reshape(plane, (d * d, c))
    base = v0 * d + u0
    shift = 1 if d > 1 else 0
    corners = (
        (gather(flat, base), mul(gu, gv)),
        (gather(flat, base + shift), mul(fu, gv)),
        (gather(flat, base + shift * d), mul(gu, fv)),
        (gather(flat, base + shift * (d + 1)), mul(fu, fv)),
    )
    out = None
    for feat, w in corners:
        term = scale_rows(feat, w)
        out = term if out is None else add(out, term)
    return out


def sample_triplane(tri, points):
    """Features at world points: per-plane bilinear lookups concatenated (xy, xz, yz).

    points: Tensor or array, (N, 3). Returns (N, 3C). Differentiable w.r.t.
    both plane contents and points, away from integer grid lines. Out-of-cube
    components clamp (counter flagged).
    """
    global _clamp_count
    pts = as_tensor(points)
    if pts.data.ndim != 2 or pts.data.shape[1] != 3:
        raise ValueError(f"points must be (N, 3), got {pts.data.shape}")
    d = tri.resolution
    n_out = int(np.count_nonzero((pts.data < -1.0) | (pts.data > 1.0)))
    if n_out:
        _clamp_count += n_out

    n = pts.data.shape[0]
    comps = [reshape(narrow(pts, 1, a, 1), (n,)) for a in range(3)]
    comps = [clip01_unit(cmp, -1.0, 1.0) for cmp in comps]
    feats = []
    half = 0.5 * (d - 1)
    for pid, plane in zip(PLANE_IDS, tri.planes):
        au, av = PLANE_AXES[pid]
        u = mul(add(comps[au], 1.0), half)
        v = mul(add(comps[av], 1.0), half)
        feats.append(_bilinear_plane(plane, u, v, d))
    return concat(feats, axis=1)


def plane_marginal(plane, axis, reducer):
    """Reduce one plane along the named axis ('u' or 'v') -> (D, C) profile."""
    arr = plane.data if isinstance(plane, Tensor) else np.asarray(plane, dtype=np.float64)
    if arr.ndim != 3:
        raise ValueError(f"plane must be (D, D, C), got {arr.shape}")
    if axis not in ("u", "v"):
        raise ValueError(f"axis must be 'u' or 'v', got {axis!r}")
    ax = 1 if axis == "u" else 0  # arrays are [v, u, c]
    if reducer == "mean":
        return arr.mean(axis=ax)
    if reducer == "max":
        return arr.max(axis=ax)
    raise ValueError(f"reducer must be 'mean' or 'max', got {reducer!r}")

