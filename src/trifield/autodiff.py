"""Minimal reverse-mode autodiff over dense float64 numpy tensors.

Every differentiable quantity in the package is a `Tensor`: a numpy array
plus an optional backward closure linking it to its parents. Calling
`backward()` on a scalar output walks the graph in reverse topological
order and accumulates `.grad` on every `requires_grad` leaf.

A backward consumes its tape: each node drops its closure and parent links
once the walk has passed it, so activations are freed during the walk and
nothing of the graph outlives it. Walking a consumed node again, from the
same root or through a new graph built on it, raises `TapeConsumedError`.

A tensor keeps its parents and closure only if it or a parent requires
grad, so `requires_grad` alone decides whether a tape exists: a forward pass
over inputs that need no gradient frees each intermediate as soon as it is
no longer referenced.

A backward closure, always named `bwd`, maps the output adjoint to
`(parent, adjoint)` pairs, one for each parent that requires grad and none
for any other, so no adjoint is computed only to be dropped. A one-parent
node has a closure only when its parent requires grad.

Shape discipline is strict: no implicit broadcasting except scalar-by-tensor.
Anything that needs a shape change goes through an explicit op (`reshape`,
`broadcast_to`, `narrow`, `gather`, ...), which keeps adjoints honest.
"""

from __future__ import annotations

import numpy as np

DTYPE = np.float64


class ShapeError(ValueError):
    """Operand shapes do not conform for the requested op."""


def _check_same_shape(op, a, b):
    if a.shape != b.shape:
        raise ShapeError(f"{op}: shape mismatch {a.shape} vs {b.shape}")


class TapeConsumedError(RuntimeError):
    """backward() reached a node whose tape an earlier backward() walked and freed."""


class Tensor:
    """Dense n-d value participating in the gradient tape.

    data          contiguous float64 array
    requires_grad whether backward() should populate .grad
    grad          same-shape array, present only after a backward pass
    """

    __slots__ = ("data", "requires_grad", "grad", "_parents", "_backward", "_op")

    def __init__(self, data, requires_grad=False, _parents=(), _backward=None, _op="leaf"):
        self.data = np.asarray(data, dtype=DTYPE)
        self.requires_grad = bool(requires_grad) or any(p.requires_grad for p in _parents)
        self.grad = None
        # no gradient can reach a node none of whose inputs requires grad
        self._parents = _parents if self.requires_grad else ()
        self._backward = _backward if self.requires_grad else None
        self._op = _op

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, op={self._op}, requires_grad={self.requires_grad})"

    def zero_grad(self):
        self.grad = None

    def backward(self):
        """Reverse-mode pass from a scalar output; it consumes the tape.

        Nodes are popped off the topological order. Once a node's closure has
        returned its adjoints, the node drops its closure and parent links, so
        each saved activation is freed once the walk has passed its node and
        every closure that reads it, and nothing of the graph outlives the
        call. A walked interior node keeps `_consumed` as its closure: a
        second backward() from the same root, or through a new graph built on
        a walked node, raises TapeConsumedError instead of treating the node
        as a leaf and silently dropping its gradient. Leaves keep their
        `.grad`, and every node, the root included, keeps its `.data`.
        """
        if self.data.size != 1:
            raise ValueError(f"backward() requires a scalar output, got shape {self.data.shape}")
        order = topo_order(self)
        grads = {id(self): np.ones_like(self.data)}
        while order:
            node = order.pop()
            g = grads.pop(id(node), None)
            if node._backward is None:
                if g is not None and node.requires_grad:
                    # leaf: accumulate into .grad
                    if node.grad is None:
                        node.grad = np.zeros_like(node.data)
                    node.grad += g
                continue
            if g is not None:
                for parent, pg in node._backward(g):
                    key = id(parent)
                    if key in grads:
                        grads[key] = grads[key] + pg
                    else:
                        grads[key] = pg
            node._backward, node._parents = _consumed, ()


def _consumed(g):
    """The closure of a node whose tape a backward() has already walked."""
    raise TapeConsumedError("backward() reached a node whose tape an earlier backward() consumed")


def as_tensor(x):
    return x if isinstance(x, Tensor) else Tensor(x)


def topo_order(root):
    """Nodes of `root`'s graph, every node after all of its inputs."""
    order, seen, stack = [], set(), [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if id(p) not in seen:
                stack.append((p, False))
    return order


# ---------------------------------------------------------------------------
# primitive ops
# ---------------------------------------------------------------------------

def add(a, b):
    a, b = as_tensor(a), as_tensor(b)
    sa, sb = a.data.ndim == 0, b.data.ndim == 0
    if not (sa or sb):
        _check_same_shape("add", a.data, b.data)
    out_data = a.data + b.data

    def bwd(g):
        grads = []
        if a.requires_grad:
            grads.append((a, np.asarray(g.sum() if sa and not sb else g)))
        if b.requires_grad:
            grads.append((b, np.asarray(g.sum() if sb and not sa else g)))
        return tuple(grads)

    return Tensor(out_data, _parents=(a, b), _backward=bwd, _op="add")


def sub(a, b):
    a, b = as_tensor(a), as_tensor(b)
    sa, sb = a.data.ndim == 0, b.data.ndim == 0
    if not (sa or sb):
        _check_same_shape("sub", a.data, b.data)
    out_data = a.data - b.data

    def bwd(g):
        grads = []
        if a.requires_grad:
            grads.append((a, np.asarray(g.sum() if sa and not sb else g)))
        if b.requires_grad:
            grads.append((b, np.asarray(-(g.sum()) if sb and not sa else -g)))
        return tuple(grads)

    return Tensor(out_data, _parents=(a, b), _backward=bwd, _op="sub")


def mul(a, b):
    a, b = as_tensor(a), as_tensor(b)
    sa, sb = a.data.ndim == 0, b.data.ndim == 0
    if not (sa or sb):
        _check_same_shape("mul", a.data, b.data)
    out_data = a.data * b.data

    def bwd(g):
        grads = []
        if a.requires_grad:
            ga = g * b.data
            grads.append((a, np.asarray(ga.sum() if sa and not sb else ga)))
        if b.requires_grad:
            gb = g * a.data
            grads.append((b, np.asarray(gb.sum() if sb and not sa else gb)))
        return tuple(grads)

    return Tensor(out_data, _parents=(a, b), _backward=bwd, _op="mul")


def matmul(a, b):
    """np.matmul semantics restricted to 2-d, or stacked with identical batch dims."""
    a, b = as_tensor(a), as_tensor(b)
    if a.data.ndim < 2 or b.data.ndim < 2:
        raise ShapeError(f"matmul: operands must be >= 2-d, got {a.data.shape} and {b.data.shape}")
    if a.data.ndim != b.data.ndim or a.data.shape[:-2] != b.data.shape[:-2]:
        raise ShapeError(f"matmul: batch dims must match, got {a.data.shape} and {b.data.shape}")
    if a.data.shape[-1] != b.data.shape[-2]:
        raise ShapeError(f"matmul: inner dims differ, {a.data.shape} @ {b.data.shape}")
    out_data = a.data @ b.data

    def bwd(g):
        grads = []
        if a.requires_grad:
            grads.append((a, g @ np.swapaxes(b.data, -1, -2)))
        if b.requires_grad:
            grads.append((b, np.swapaxes(a.data, -1, -2) @ g))
        return tuple(grads)

    return Tensor(out_data, _parents=(a, b), _backward=bwd, _op="matmul")


def concat(tensors, axis=0):
    tensors = [as_tensor(t) for t in tensors]
    base = list(tensors[0].data.shape)
    for t in tensors[1:]:
        s = list(t.data.shape)
        s[axis] = base[axis]
        if s != base:
            raise ShapeError(f"concat: incompatible shapes {tensors[0].data.shape} vs {t.data.shape} on axis {axis}")
    out_data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.data.shape[axis] for t in tensors]
    splits = np.cumsum(sizes)[:-1]

    def bwd(g):
        parts = np.split(g, splits, axis=axis)  # views: a part nobody needs costs no copy
        return tuple((t, p) for t, p in zip(tensors, parts) if t.requires_grad)

    return Tensor(out_data, _parents=tuple(tensors), _backward=bwd, _op="concat")


def reshape(a, shape):
    a = as_tensor(a)
    out_data = a.data.reshape(shape)

    def bwd(g):
        return ((a, g.reshape(a.data.shape)),)

    return Tensor(out_data, _parents=(a,), _backward=bwd, _op="reshape")


def transpose(a, axes):
    a = as_tensor(a)
    axes = tuple(axes)
    inv = tuple(np.argsort(axes))
    out_data = np.transpose(a.data, axes)

    def bwd(g):
        return ((a, np.transpose(g, inv)),)

    return Tensor(out_data, _parents=(a,), _backward=bwd, _op="transpose")


def broadcast_to(a, shape):
    """Explicit broadcast; adjoint sums over the expanded axes."""
    a = as_tensor(a)
    shape = tuple(shape)
    if len(shape) < a.data.ndim:
        raise ShapeError(f"broadcast_to: target {shape} has fewer dims than {a.data.shape}")
    out_data = np.ascontiguousarray(np.broadcast_to(a.data, shape))  # raises on incompatible shapes
    n_new = len(shape) - a.data.ndim
    rep_axes = tuple(range(n_new)) + tuple(
        i + n_new for i, d in enumerate(a.data.shape) if d == 1 and shape[i + n_new] != 1
    )

    def bwd(g):
        gg = g.sum(axis=rep_axes, keepdims=False) if rep_axes else g
        return ((a, gg.reshape(a.data.shape)),)

    return Tensor(out_data, _parents=(a,), _backward=bwd, _op="broadcast_to")


def narrow(a, axis, start, length):
    """Contiguous slice along one axis; adjoint zero-pads."""
    a = as_tensor(a)
    idx = [slice(None)] * a.data.ndim
    idx[axis] = slice(start, start + length)
    idx = tuple(idx)
    out_data = a.data[idx]

    def bwd(g):
        full = np.zeros_like(a.data)
        full[idx] = g
        return ((a, full),)

    return Tensor(out_data, _parents=(a,), _backward=bwd, _op="narrow")


def gather(a, indices):
    """Rows of an (M, C) tensor (np.take); the adjoint scatter-adds them with one bincount."""
    a = as_tensor(a)
    indices = np.asarray(indices, dtype=np.int64)
    if a.data.ndim != 2 or indices.ndim != 1:
        raise ShapeError(f"gather: need an (M, C) tensor and 1-d row indices, got {a.data.shape} and {indices.shape}")
    out_data = np.take(a.data, indices, axis=0)
    m, c = a.data.shape

    def bwd(g):
        flat = (indices[:, None] * c + np.arange(c)).ravel()
        return ((a, np.bincount(flat, weights=np.ascontiguousarray(g).ravel(), minlength=m * c).reshape(m, c)),)

    return Tensor(out_data, _parents=(a,), _backward=bwd, _op="gather")


def exp(a):
    a = as_tensor(a)
    out_data = np.exp(a.data)

    def bwd(g):
        return ((a, g * out_data),)

    return Tensor(out_data, _parents=(a,), _backward=bwd, _op="exp")


def softplus(a):
    a = as_tensor(a)
    # stable: log1p(exp(-|x|)) + max(x, 0)
    out_data = np.log1p(np.exp(-np.abs(a.data))) + np.maximum(a.data, 0.0)

    def bwd(g):
        sig = 1.0 / (1.0 + np.exp(-a.data))
        return ((a, g * sig),)

    return Tensor(out_data, _parents=(a,), _backward=bwd, _op="softplus")


def sigmoid(a):
    a = as_tensor(a)
    out_data = 1.0 / (1.0 + np.exp(-a.data))

    def bwd(g):
        return ((a, g * out_data * (1.0 - out_data)),)

    return Tensor(out_data, _parents=(a,), _backward=bwd, _op="sigmoid")


def relu(a):
    a = as_tensor(a)
    out_data = np.maximum(a.data, 0.0)

    def bwd(g):
        return ((a, g * (a.data > 0.0)),)

    return Tensor(out_data, _parents=(a,), _backward=bwd, _op="relu")


def add_rowvec(a, v):
    """Add a length-C vector to every row of an (N, C) tensor (explicit broadcast)."""
    a, v = as_tensor(a), as_tensor(v)
    if a.data.ndim != 2 or v.data.shape != (a.data.shape[1],):
        raise ShapeError(f"add_rowvec: need (N, C) and (C,), got {a.data.shape} and {v.data.shape}")
    out_data = a.data + v.data[None, :]

    def bwd(g):
        grads = []
        if a.requires_grad:
            grads.append((a, g))
        if v.requires_grad:
            grads.append((v, g.sum(axis=0)))
        return tuple(grads)

    return Tensor(out_data, _parents=(a, v), _backward=bwd, _op="add_rowvec")


def sin(a):
    a = as_tensor(a)
    out_data = np.sin(a.data)

    def bwd(g):
        return ((a, g * np.cos(a.data)),)

    return Tensor(out_data, _parents=(a,), _backward=bwd, _op="sin")


def cos(a):
    a = as_tensor(a)
    out_data = np.cos(a.data)

    def bwd(g):
        return ((a, -g * np.sin(a.data)),)

    return Tensor(out_data, _parents=(a,), _backward=bwd, _op="cos")


def softmax(a, axis=-1):
    a = as_tensor(a)
    shifted = a.data - a.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    out_data = e / e.sum(axis=axis, keepdims=True)

    def bwd(g):
        dot = (g * out_data).sum(axis=axis, keepdims=True)
        return ((a, out_data * (g - dot)),)

    return Tensor(out_data, _parents=(a,), _backward=bwd, _op="softmax")


def tsum(a, axis=None):
    a = as_tensor(a)
    out_data = a.data.sum(axis=axis)

    def bwd(g):
        if axis is None:
            return ((a, np.full_like(a.data, float(g))),)
        return ((a, np.broadcast_to(np.expand_dims(g, axis), a.data.shape).copy()),)

    return Tensor(out_data, _parents=(a,), _backward=bwd, _op="sum")


def tmean(a, axis=None):
    a = as_tensor(a)
    out_data = a.data.mean(axis=axis)
    n = a.data.size if axis is None else a.data.shape[axis]

    def bwd(g):
        if axis is None:
            return ((a, np.full_like(a.data, float(g) / n)),)
        return ((a, np.broadcast_to(np.expand_dims(g / n, axis), a.data.shape).copy()),)

    return Tensor(out_data, _parents=(a,), _backward=bwd, _op="mean")


def cumsum(a, axis):
    a = as_tensor(a)
    out_data = np.cumsum(a.data, axis=axis)

    def bwd(g):
        rev = np.flip(np.cumsum(np.flip(g, axis=axis), axis=axis), axis=axis)
        return ((a, rev),)

    return Tensor(out_data, _parents=(a,), _backward=bwd, _op="cumsum")


def layer_norm(x, gamma, beta, eps=1e-6):
    """Normalize over the last axis, then scale and shift."""
    x, gamma, beta = as_tensor(x), as_tensor(gamma), as_tensor(beta)
    if gamma.data.shape != (x.data.shape[-1],) or beta.data.shape != (x.data.shape[-1],):
        raise ShapeError(
            f"layer_norm: gamma/beta must be ({x.data.shape[-1]},), got {gamma.data.shape}, {beta.data.shape}"
        )
    mu = x.data.mean(axis=-1, keepdims=True)
    xc = x.data - mu
    var = (xc * xc).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = xc * inv
    out_data = xhat * gamma.data + beta.data
    n = x.data.shape[-1]

    def bwd(g):
        grads = []
        if x.requires_grad:
            gg = g * gamma.data
            m1 = gg.mean(axis=-1, keepdims=True)
            m2 = (gg * xhat).mean(axis=-1, keepdims=True)
            grads.append((x, inv * (gg - m1 - xhat * m2)))
        if gamma.requires_grad:
            grads.append((gamma, (g * xhat).reshape(-1, n).sum(axis=0)))
        if beta.requires_grad:
            grads.append((beta, g.reshape(-1, n).sum(axis=0)))
        return tuple(grads)

    return Tensor(out_data, _parents=(x, gamma, beta), _backward=bwd, _op="layer_norm")


def affine(x, w, b):
    """(N, C) rows @ w plus a row-broadcast bias; the one composite everybody needs."""
    return add_rowvec(matmul(x, w), b)


def mlp(x, layers):
    """Relu MLP over (w, b) pairs on an (N, C) input, as one tape node.

    The same arithmetic as `matmul` -> `add_rowvec` per layer with `relu`
    between layers, done in place on one buffer per layer. Only the post-relu
    activations are kept: `post > 0` is the mask of `pre > 0`. The backward
    takes the matmul, add_rowvec and relu adjoints in the chain's order, and
    carries the adjoint down only as far as a parent below needs it.
    """
    x = as_tensor(x)
    layers = [(as_tensor(w), as_tensor(b)) for w, b in layers]
    if x.data.ndim != 2 or not layers:
        raise ShapeError(f"mlp: need an (N, C) input and at least one layer, got {x.data.shape} and {len(layers)}")
    width = x.data.shape[1]
    for i, (w, b) in enumerate(layers):
        if w.data.ndim != 2 or w.data.shape[0] != width or b.data.shape != (w.data.shape[1],):
            raise ShapeError(
                f"mlp: layer {i} needs a ({width}, K) weight and a (K,) bias, got {w.data.shape} and {b.data.shape}"
            )
        width = w.data.shape[1]
    acts = [x.data]  # input of each layer
    h = x.data
    for i, (w, b) in enumerate(layers):
        h = h @ w.data
        h += b.data
        if i + 1 < len(layers):
            np.maximum(h, 0.0, out=h)
            acts.append(h)
    # whether an adjoint must reach the input of layer i
    need_in = [x.requires_grad]
    for w, b in layers[:-1]:
        need_in.append(need_in[-1] or w.requires_grad or b.requires_grad)

    def bwd(g):
        grads = []
        for i in reversed(range(len(layers))):
            w, b = layers[i]
            if b.requires_grad:
                grads.append((b, g.sum(axis=0)))
            if w.requires_grad:
                grads.append((w, acts[i].T @ g))
            if not need_in[i]:
                break
            g = g @ w.data.T
            if i > 0:
                g = g * (acts[i] > 0.0)
        if x.requires_grad:
            grads.append((x, g))
        return tuple(grads)

    parents = (x,) + tuple(t for pair in layers for t in pair)
    return Tensor(h, _parents=parents, _backward=bwd, _op="mlp")


def _conv_columns(x, d):
    """Clamp-to-edge 3x3 im2col columns of the (G*d*d, C) rows of G stacked row-major d x d grids.

    Returns an owned (G*d*d, 9*C) array: the taps (v + dv, u + du), clamped
    into the grid, for dv and then du in (-1, 0, 1), each C wide.
    """
    n, c = x.shape
    grids = x.reshape(-1, d, d, c)
    padded = np.empty((len(grids), d + 2, d + 2, c))  # edge pad by slices: np.pad added ~1 ms per sampling pass
    padded[:, 1:-1, 1:-1] = grids
    padded[:, 0, 1:-1], padded[:, -1, 1:-1] = grids[:, 0], grids[:, -1]
    padded[:, :, 0], padded[:, :, -1] = padded[:, :, 1], padded[:, :, -2]
    # the 3 taps of one dv are 3*c contiguous values of a padded grid row
    rows = padded.reshape(-1, d + 2, (d + 2) * c)
    cols = np.empty((n, 9 * c))  # the one copy, owned at every d (a reshape would return a view at d = 1)
    cols.reshape(-1, d, d, 3, 3 * c)[...] = np.lib.stride_tricks.sliding_window_view(
        rows, (3, 3 * c), axis=(1, 2))[:, :, ::c]
    return cols


def _conv_fold(g, d):
    """Adjoint of `_conv_columns`: (G*d*d, 9*C) column adjoints -> (G*d*d, C) row adjoints.

    Adds the 9 tap adjoints onto the padded grid and folds the pad rows and
    columns back onto the edge they copy.
    """
    n, c = g.shape[0], g.shape[1] // 9
    taps = g.reshape(-1, d, d, 3, 3, c)
    full = np.zeros((len(taps), d + 2, d + 2, c))
    for dv in range(3):
        for du in range(3):
            full[:, dv:dv + d, du:du + d] += taps[:, :, :, dv, du]
    full[:, 1] += full[:, 0]
    full[:, d] += full[:, d + 1]
    full[:, :, 1] += full[:, :, 0]
    full[:, :, d] += full[:, :, d + 1]
    return full[:, 1:d + 1, 1:d + 1].reshape(n, c)


# rows per conv block: whole grids, at most this many rows unless one grid is
# more. A batch's im2col columns are 9x its input and were most of the peak
# memory of a sampling pass, so only one block's columns exist at a time
_CONV_BLOCK_ROWS = 2048


def conv3x3(x, d, w, b):
    """Clamp-to-edge 3x3 conv of stacked d x d grids, as one tape node whose parents are x, w and b.

    x holds the (G*d*d, C) rows of G row-major d x d grids, w is (9*C, F) in
    the tap order of `_conv_columns` and b is (F,). The same arithmetic as
    `affine(columns, w, b)`, but the node keeps its input, not its columns,
    and builds them one block of whole grids at a time (`_CONV_BLOCK_ROWS`):
    the forward writes each block's GEMM into its rows of the output, and
    the backward rebuilds a block's columns only when w requires grad and
    sums the blocks' weight adjoints. Grids do not touch, so the x adjoint
    folds block by block exactly. The output and the weight adjoint sit
    within ~1e-16 relative of one whole-batch GEMM, and equal it bit for bit
    when the batch is one block.
    """
    x, w, b = as_tensor(x), as_tensor(w), as_tensor(b)
    if x.data.ndim != 2 or d < 1 or x.data.shape[0] % (d * d):
        raise ShapeError(f"conv3x3: need (G*{d}*{d}, C) rows of whole {d}x{d} grids, got {x.data.shape}")
    c = x.data.shape[1]
    if w.data.ndim != 2 or w.data.shape[0] != 9 * c or b.data.shape != (w.data.shape[1],):
        raise ShapeError(f"conv3x3: need a ({9 * c}, F) weight and an (F,) bias, got {w.data.shape} and {b.data.shape}")
    n, step = x.data.shape[0], max(1, _CONV_BLOCK_ROWS // (d * d)) * d * d
    blocks = [slice(lo, lo + step) for lo in range(0, n, step)]
    out_data = np.empty((n, w.data.shape[1]))
    for blk in blocks:
        np.matmul(_conv_columns(x.data[blk], d), w.data, out=out_data[blk])
    out_data += b.data

    def bwd(g):
        grads = []
        if b.requires_grad:
            grads.append((b, g.sum(axis=0)))
        if w.requires_grad:
            grads.append((w, sum((_conv_columns(x.data[blk], d).T @ g[blk] for blk in blocks),
                                 np.zeros_like(w.data))))
        if x.requires_grad:
            gx = np.empty((n, c))
            for blk in blocks:
                gx[blk] = _conv_fold(g[blk] @ w.data.T, d)
            grads.append((x, gx))
        return tuple(grads)

    return Tensor(out_data, _parents=(x, w, b), _backward=bwd, _op="conv3x3")


# ---------------------------------------------------------------------------
# finite-difference checking
# ---------------------------------------------------------------------------

def grad_check(f, x, eps=1e-5):
    """Max relative error between analytic and central-difference gradients.

    f must map a Tensor to a scalar Tensor and be deterministic. Returns
    max over coordinates of |analytic - numeric| / max(1, |analytic|).
    The caller is responsible for keeping x away from non-smooth points.
    """
    x = as_tensor(x)
    x.requires_grad = True
    x.zero_grad()
    out = f(x)
    if not isinstance(out, Tensor) or out.data.size != 1:
        raise ValueError("grad_check: f must return a scalar Tensor")
    out.backward()
    analytic = x.grad.copy() if x.grad is not None else np.zeros_like(x.data)

    flat = x.data.reshape(-1)
    numeric = np.zeros_like(flat)
    for i in range(flat.size):
        keep = flat[i]
        flat[i] = keep + eps
        fp = float(f(Tensor(x.data)).data)
        flat[i] = keep - eps
        fm = float(f(Tensor(x.data)).data)
        flat[i] = keep
        numeric[i] = (fp - fm) / (2.0 * eps)
    numeric = numeric.reshape(x.data.shape)

    denom = np.maximum(1.0, np.abs(analytic))
    return float(np.max(np.abs(analytic - numeric) / denom))


def _rng_inputs(rng, shape):
    return Tensor(rng.normal(size=shape), requires_grad=True)


# registry used by the gradcheck CLI and the acceptance suite
def primitive_suite(seed=0):
    """One (name, f, x) triple per registered primitive, on well-conditioned inputs.

    Constants are drawn once so every f is deterministic (a requirement of
    grad_check's central differencing).
    """
    rng = np.random.default_rng(seed)

    def c(*shape):
        return Tensor(rng.normal(size=shape))

    x4 = rng.normal(size=(3, 4)) + 0.1  # offset keeps relu away from its kink
    rng.normal(size=(3, 4))  # spare draw; it and the one below keep every entry's input, and its report line, fixed
    k_add, k_sub, k_mul = c(3, 4), c(3, 4), c(3, 4)
    k_mm, k_mmb = c(4, 2), c(2, 4, 3)
    k_cat, k_rsh, k_tr = c(3, 8), c(4, 3), c(4, 3)
    k_bc, k_nar, k_gat = c(5, 3, 4), c(3, 2), c(5, 4)
    k_sm, k_sumax, k_meanax, k_cs = c(3, 4), c(4), c(3), c(3, 4)
    ln_g, ln_b, k_ln = c(4), c(4), c(3, 4)
    gi = np.array([2, 0, 1, 2, 2])

    suite = [
        ("add", lambda t: tsum(mul(add(t, k_add), add(t, k_add))), _rng_inputs(rng, (3, 4))),
        ("sub", lambda t: tsum(mul(sub(t, k_sub), sub(t, k_sub))), _rng_inputs(rng, (3, 4))),
        ("mul", lambda t: tsum(mul(t, k_mul)), _rng_inputs(rng, (3, 4))),
    ]
    rng.normal(size=(3, 4))  # spare draw
    suite += [
        ("scalar_mul", lambda t: tsum(mul(t, 2.5)), _rng_inputs(rng, (3, 4))),
        ("matmul", lambda t: tsum(matmul(t, k_mm)), _rng_inputs(rng, (3, 4))),
        ("matmul_batched", lambda t: tsum(matmul(t, k_mmb)), _rng_inputs(rng, (2, 3, 4))),
        ("concat", lambda t: tsum(mul(concat([t, t], axis=1), k_cat)), _rng_inputs(rng, (3, 4))),
        ("reshape", lambda t: tsum(mul(reshape(t, (4, 3)), k_rsh)), _rng_inputs(rng, (3, 4))),
        ("transpose", lambda t: tsum(mul(transpose(t, (1, 0)), k_tr)), _rng_inputs(rng, (3, 4))),
        ("broadcast_to", lambda t: tsum(mul(broadcast_to(t, (5, 3, 4)), k_bc)), _rng_inputs(rng, (3, 4))),
        ("narrow", lambda t: tsum(mul(narrow(t, 1, 1, 2), k_nar)), _rng_inputs(rng, (3, 4))),
        ("gather", lambda t: tsum(mul(gather(t, gi), k_gat)), _rng_inputs(rng, (3, 4))),
        ("exp", lambda t: tsum(exp(t)), _rng_inputs(rng, (3, 4))),
        ("sin", lambda t: tsum(mul(sin(t), k_add)), _rng_inputs(rng, (3, 4))),
        ("cos", lambda t: tsum(mul(cos(t), k_sub)), _rng_inputs(rng, (3, 4))),
        ("softplus", lambda t: tsum(softplus(t)), _rng_inputs(rng, (3, 4))),
        ("sigmoid", lambda t: tsum(sigmoid(t)), _rng_inputs(rng, (3, 4))),
        ("relu", lambda t: tsum(relu(t)), Tensor(x4.copy(), requires_grad=True)),
        ("softmax", lambda t: tsum(mul(softmax(t, axis=1), k_sm)), _rng_inputs(rng, (3, 4))),
        ("sum_axis", lambda t: tsum(mul(tsum(t, axis=0), k_sumax)), _rng_inputs(rng, (3, 4))),
        ("mean_axis", lambda t: tsum(mul(tmean(t, axis=1), k_meanax)), _rng_inputs(rng, (3, 4))),
        ("mean", lambda t: tmean(mul(t, t)), _rng_inputs(rng, (3, 4))),
        ("cumsum", lambda t: tsum(mul(cumsum(t, axis=1), k_cs)), _rng_inputs(rng, (3, 4))),
        ("layer_norm", lambda t: tsum(mul(layer_norm(t, ln_g, ln_b), k_ln)), _rng_inputs(rng, (3, 4))),
        ("add_rowvec", lambda t: tsum(mul(add_rowvec(t, k_sumax), k_mul)), _rng_inputs(rng, (3, 4))),
    ]
    # drawn after the entries above, so their inputs do not depend on these
    k_mlp = [(c(4, 5), c(5)), (c(5, 2), c(2))]
    k_mlp_out = c(3, 2)
    suite.append(("mlp", lambda t: tsum(mul(mlp(t, k_mlp), k_mlp_out)), _rng_inputs(rng, (3, 4))))
    k_conv = c(18, 2)

    def conv(t):  # t stacks x (two 3x3 grids of 2 channels: every tap, edge and corner), w and b
        x, w, b = narrow(t, 0, 0, 18), narrow(t, 0, 18, 18), reshape(narrow(t, 0, 36, 1), (2,))
        return tsum(mul(conv3x3(x, 3, w, b), k_conv))

    suite.append(("conv3x3", conv, _rng_inputs(rng, (37, 2))))
    return suite
