"""Triplane feature maps: the plane-stacked layout, bilinear sampling, marginals.

A triplane factors a volumetric field over the world cube [-1, 1]^3 into
three feature planes (xy, xz, yz), each D x D x C and indexed [v, u, c]
(image convention: rows are v, u scans across a row). Texel centers sit at
integer indices; addressing outside a plane clamps to the edge.

A `Triplane` is one (3, D, D, C) tensor, planes xy, xz, yz along its leading
axis: the `TRPL` checkpoint payload order. Batched ops see B triplanes as
plane-stacked rows (B*3*D*D, C) in the same order, each plane D*D row-major
rows; `stack_planes` and `unstack_planes`, reshapes of the tensor, are the
only conversions. The lookup's tape parents are the tensor and the points.
"""

from __future__ import annotations

import threading

import numpy as np

from .autodiff import ShapeError, Tensor, as_tensor, concat, narrow, reshape

PLANE_IDS = ("xy", "xz", "yz")
# world-axis index pair (u axis, v axis) of each plane
PLANE_AXES = {"xy": (0, 1), "xz": (0, 2), "yz": (1, 2)}

# out-of-cube points are clamped, never rejected; callers can watch this
# counter. render_view samples from worker threads, so updates take the lock
_clamp_count = 0
_clamp_lock = threading.Lock()


def clamp_count():
    return _clamp_count


class Triplane:
    """Three co-sized feature planes over [-1, 1]^3, held as one tensor.

    tensor: (3, D, D, C) Tensor whose leading axis runs over the planes xy, xz, yz.
    """

    def __init__(self, tensor):
        self.tensor = as_tensor(tensor)
        shape = self.tensor.data.shape
        if len(shape) != 4 or shape[0] != 3 or shape[1] != shape[2]:
            raise ValueError(f"triplane must be one (3, D, D, C) tensor, got {shape}")
        for pid, plane in zip(PLANE_IDS, self.tensor.data):
            if not np.all(np.isfinite(plane)):
                raise ValueError(f"plane {pid} contains non-finite values")

    @property
    def resolution(self):
        return self.tensor.data.shape[1]

    @property
    def channels(self):
        return self.tensor.data.shape[3]

    @property
    def planes(self):
        """The (D, D, C) planes xy, xz, yz: `narrow` + `reshape` views that stay on the tape."""
        return tuple(reshape(narrow(self.tensor, 0, i, 1), self.tensor.data.shape[1:]) for i in range(3))


def random_triplane(rng, d, c, scale=0.1):
    return Triplane(Tensor(rng.normal(scale=scale, size=(3, d, d, c))))


def stack_planes(tris):
    """Plane-stacked (B*3*D*D, C) rows of B co-sized triplanes: a `reshape` each, one `concat` for B > 1."""
    d, c = tris[0].resolution, tris[0].channels
    rows = [reshape(tri.tensor, (3 * d * d, c)) for tri in tris]
    return rows[0] if len(rows) == 1 else concat(rows, axis=0)


def unstack_planes(x, d, c):
    """Triplanes of plane-stacked (B*3*D*D, C) rows; the inverse of `stack_planes`."""
    x = as_tensor(x)
    n = 3 * d * d
    if x.data.ndim != 2 or x.data.shape[1] != c or d < 1 or not x.data.shape[0] or x.data.shape[0] % n:
        raise ShapeError(f"unstack_planes: need (B*3*{d}*{d}, {c}) rows of whole triplanes, got {x.data.shape}")
    return [Triplane(reshape(narrow(x, 0, lo, n), (3, d, d, c))) for lo in range(0, x.data.shape[0], n)]


# points per block of the forward lookup: each block's four corner gathers
# stay cache-resident instead of streaming (N, C) arrays through memory
_BLOCK_ROWS = 1024
# world axes read as u and as v by the planes in PLANE_IDS order
_U_AXES = [PLANE_AXES[pid][0] for pid in PLANE_IDS]
_V_AXES = [PLANE_AXES[pid][1] for pid in PLANE_IDS]


def _bilinear_corners(pts, d):
    """Lower-corner rows into the stacked (3*D*D, C) table plus the bilinear fractions.

    pts: (n, 3) world points. Returns (base, fu, fv), each (n, 3), one column
    per plane. Components clamp to [-1, 1]; cells clamp so a corner never
    leaves the plane.
    """
    c = np.clip(pts, -1.0, 1.0)
    half = 0.5 * (d - 1)
    u = (c[:, _U_AXES] + 1.0) * half
    v = (c[:, _V_AXES] + 1.0) * half
    if d > 1:
        u0 = np.clip(np.floor(u), 0, d - 2).astype(np.int64)
        v0 = np.clip(np.floor(v), 0, d - 2).astype(np.int64)
    else:
        u0 = v0 = np.zeros(u.shape, np.int64)
    fu = u - u0.astype(np.float64)
    fv = v - v0.astype(np.float64)
    base = v0 * d + u0 + np.arange(3) * (d * d)
    return base, fu, fv


def _corner_weights(fu, fv):
    gu, gv = 1.0 - fu, 1.0 - fv
    return (gu * gv, fu * gv, gu * fv, fu * fv)


def triplane_lookup(planes, pts):
    """Bilinear features of a (3, D, D, C) triplane tensor at (N, 3) world points -> (N, 3C).

    One tape node whose parents are the triplane tensor and the points. Each
    output row is four corner products summed in corner order 0, 1, 2, 3, the
    same arithmetic at every block size. The backward recomputes the corners
    from the points, and computes an adjoint only for a parent that requires
    grad; the point adjoint passes only through components strictly inside
    the cube.
    """
    _, d, _, c = planes.data.shape
    table = planes.data.reshape(3 * d * d, c)
    p_data = pts.data
    n = p_data.shape[0]
    shift = 1 if d > 1 else 0
    offsets = (0, shift, shift * d, shift * (d + 1))  # corner rows from the lower one, in summation order

    out = np.empty((n, 3 * c))
    scratch = np.empty((min(n, _BLOCK_ROWS) * 3, c))
    for lo in range(0, n, _BLOCK_ROWS):
        rows = min(_BLOCK_ROWS, n - lo)
        base, fu, fv = _bilinear_corners(p_data[lo:lo + rows], d)
        acc = out[lo:lo + rows].reshape(rows, 3, c)
        term = scratch[:3 * rows].reshape(rows, 3, c)
        for k, (off, w) in enumerate(zip(offsets, _corner_weights(fu, fv))):
            # rows land point-major, plane-minor, which is the (rows, 3C)
            # layout. Every row is in range by construction; mode="clip" only
            # spares the copy through a temporary that mode="raise" makes
            np.take(table, (base + off).ravel(), axis=0, out=scratch[:3 * rows], mode="clip")
            if k == 0:
                np.multiply(term, w[:, :, None], out=acc)
            else:
                term *= w[:, :, None]
                acc += term

    def bwd(g):
        g = np.ascontiguousarray(g).reshape(n, 3, c)
        base, fu, fv = _bilinear_corners(p_data, d)
        grads = []
        if planes.requires_grad:
            # one scatter index, the lower corner's: a corner `off` rows on
            # lands its bins off*c entries further into the table
            lower = ((base * c)[:, :, None] + np.arange(c)).ravel()
            wg = np.empty_like(g)
            total = np.zeros(3 * d * d * c)
            for off, w in zip(offsets, _corner_weights(fu, fv)):
                np.multiply(g, w[:, :, None], out=wg)
                total[off * c:] += np.bincount(lower, weights=wg.ravel(), minlength=total.size - off * c)
            grads.append((planes, total.reshape(3, d, d, c)))
        if pts.requires_grad:
            # adjoint of each corner weight, then through w = (1-fu)(1-fv), fu(1-fv), ...
            dw = [(g * table[base + off]).sum(axis=2) for off in offsets]
            gu, gv = 1.0 - fu, 1.0 - fv
            half = 0.5 * (d - 1)
            du = ((dw[1] - dw[0]) * gv + (dw[3] - dw[2]) * fv) * half
            dv = ((dw[2] - dw[0]) * gu + (dw[3] - dw[1]) * fu) * half
            gp = np.zeros((n, 3))
            for i in range(3):
                gp[:, _U_AXES[i]] += du[:, i]
                gp[:, _V_AXES[i]] += dv[:, i]
            gp *= (p_data > -1.0) & (p_data < 1.0)
            grads.append((pts, gp))
        return tuple(grads)

    return Tensor(out, _parents=(planes, pts), _backward=bwd, _op="triplane_lookup")


def sample_triplane(tri, points):
    """Features at world points: per-plane bilinear lookups concatenated (xy, xz, yz).

    points: Tensor or array, (N, 3), finite. Returns (N, 3C), one
    `triplane_lookup` tape node. Differentiable w.r.t. both plane contents
    and points, away from integer grid lines. Out-of-cube components clamp
    (counter flagged).
    """
    global _clamp_count
    pts = as_tensor(points)
    if pts.data.ndim != 2 or pts.data.shape[1] != 3:
        raise ValueError(f"points must be (N, 3), got {pts.data.shape}")
    if not np.all(np.isfinite(pts.data)):
        raise ValueError("points contain non-finite values")
    n_out = int(np.count_nonzero((pts.data < -1.0) | (pts.data > 1.0)))
    if n_out:
        with _clamp_lock:
            _clamp_count += n_out
    return triplane_lookup(tri.tensor, pts)


def plane_marginal(plane, axis):
    """Max of one plane along the named axis ('u' or 'v') -> (D, C) profile."""
    arr = np.asarray(plane, dtype=np.float64)
    if arr.ndim != 3:
        raise ValueError(f"plane must be (D, D, C), got {arr.shape}")
    if axis not in ("u", "v"):
        raise ValueError(f"axis must be 'u' or 'v', got {axis!r}")
    return arr.max(axis=1 if axis == "u" else 0)  # arrays are [v, u, c]

