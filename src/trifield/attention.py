"""Cross-plane orthogonal attention, text cross-attention, and the refinement stack.

Each plane pixel attends into the other two planes only: all key-plane pixels
sharing the mutual world axis coordinate, plus the discretized cross-line
where the two planes intersect. Those two key sets always overlap at exactly
one pixel, so a key set has 2D-1 members (D at the degenerate D=1).

Attention over each key set is normalized separately and the two results are
summed before the output projection; a residual connection wraps everything,
and output projections are zero-initialized so fresh blocks are identities.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .autodiff import (
    Tensor,
    add,
    affine,
    as_tensor,
    broadcast_to,
    concat,
    gather,
    layer_norm,
    matmul,
    mul,
    narrow,
    relu,
    reshape,
    softmax,
    tsum,
)
from .triplane import PLANE_AXES, PLANE_IDS, Triplane

# Eq-style partner order: each plane attends into its two orthogonal planes
OA_PARTNERS = {"xy": ("xz", "yz"), "xz": ("xy", "yz"), "yz": ("xz", "xy")}

# toy closed vocabulary: color, size, and shape words
VOCABULARY = (
    "red", "green", "blue", "yellow", "cyan", "magenta",
    "small", "medium", "large", "box", "round", "tall",
)


def shared_axis(plane_a, plane_b):
    """The single world axis two distinct planes have in common."""
    if plane_a == plane_b:
        raise ValueError(f"planes must be distinct, got {plane_a!r} twice")
    common = set(PLANE_AXES[plane_a]) & set(PLANE_AXES[plane_b])
    return common.pop()


@dataclass
class OAKeySet:
    """Key pixels on `key_plane` attended by query pixel `q` on `query_plane`."""

    query_plane: str
    key_plane: str
    q: tuple
    indices: list  # (u, v) pairs, shared line first then cross-line remainder


def oa_key_set(d, query_plane, key_plane, q, cross_line_index):
    """Enumerate the key set: the shared-coordinate line plus the cross-line.

    Ordering is deterministic: shared line ascending in its sweep coordinate,
    then the cross-line remainder ascending, duplicates removed.
    """
    if query_plane not in PLANE_IDS or key_plane not in PLANE_IDS:
        raise ValueError(f"unknown plane id in ({query_plane!r}, {key_plane!r})")
    if query_plane == key_plane:
        raise ValueError("orthogonal attention is cross-plane only: query and key planes must differ")
    qu, qv = q
    if not (0 <= qu < d and 0 <= qv < d):
        raise ValueError(f"query pixel {q} outside {d}x{d} plane")
    if not (0 <= cross_line_index < d):
        raise ValueError(f"cross_line_index {cross_line_index} outside [0, {d - 1}]")

    s = shared_axis(query_plane, key_plane)
    pos_q = PLANE_AXES[query_plane].index(s)  # where the shared axis lives on the query plane
    pos_k = PLANE_AXES[key_plane].index(s)
    shared_val = qu if pos_q == 0 else qv

    if pos_k == 0:
        line = [(shared_val, t) for t in range(d)]
        cross = [(t, cross_line_index) for t in range(d)]
    else:
        line = [(t, shared_val) for t in range(d)]
        cross = [(cross_line_index, t) for t in range(d)]

    seen = set(line)
    indices = list(line) + [k for k in cross if k not in seen]
    return OAKeySet(query_plane, key_plane, (qu, qv), indices)


MAX_PROMPT_TOKENS = 8


@dataclass
class TextEmbedding:
    """Token embedding matrix (L, d_model) for a closed toy vocabulary; L <= 8."""

    tokens: Tensor

    def __post_init__(self):
        self.tokens = as_tensor(self.tokens)
        if self.tokens.data.ndim != 2 or not 1 <= self.tokens.data.shape[0] <= MAX_PROMPT_TOKENS:
            raise ValueError(
                f"tokens must be (1..{MAX_PROMPT_TOKENS}, d_model), got {self.tokens.data.shape}"
            )
        if not np.all(np.isfinite(self.tokens.data)):
            raise ValueError("token embeddings contain non-finite values")

    @property
    def length(self):
        return self.tokens.data.shape[0]

    @property
    def d_model(self):
        return self.tokens.data.shape[1]


def token_ids(words):
    try:
        return np.array([VOCABULARY.index(w) for w in words], dtype=np.int64)
    except ValueError:
        unknown = [w for w in words if w not in VOCABULARY]
        raise ValueError(f"words not in vocabulary: {unknown}") from None


@dataclass
class AttentionParams:
    """Projections for one attention op.

    w_q: (C_in, heads*d_k); w_k, w_v: (C_kv, heads*d_k); w_o: (heads*d_k, C_in).
    Optional pre-norm gamma/beta applied to the query stream before projection.
    """

    w_q: Tensor
    w_k: Tensor
    w_v: Tensor
    w_o: Tensor
    d_k: int
    heads: int = 1
    ln_gamma: Tensor = None
    ln_beta: Tensor = None

    def __post_init__(self):
        for name in ("w_q", "w_k", "w_v", "w_o"):
            setattr(self, name, as_tensor(getattr(self, name)))
        if self.d_k < 1:
            raise ValueError(f"d_k must be >= 1, got {self.d_k}")
        hd = self.heads * self.d_k
        if self.w_q.data.shape[1] != hd or self.w_k.data.shape[1] != hd or self.w_v.data.shape[1] != hd:
            raise ValueError(
                f"w_q/w_k/w_v second dim must equal heads*d_k={hd}, got "
                f"{self.w_q.data.shape}, {self.w_k.data.shape}, {self.w_v.data.shape}"
            )
        if self.w_o.data.shape[0] != hd:
            raise ValueError(f"w_o first dim must equal heads*d_k={hd}, got {self.w_o.data.shape}")

    def tensors(self):
        out = [self.w_q, self.w_k, self.w_v, self.w_o]
        if self.ln_gamma is not None:
            out += [self.ln_gamma, self.ln_beta]
        return out


def attention_params(rng, c_in, d_k, kv_dim=None, heads=1, zero_out=True, with_norm=False, requires_grad=False):
    kv_dim = c_in if kv_dim is None else kv_dim
    hd = heads * d_k

    def w(rows, cols, zero=False):
        data = np.zeros((rows, cols)) if zero else rng.normal(scale=rows ** -0.5, size=(rows, cols))
        return Tensor(data, requires_grad=requires_grad)

    ln_g = Tensor(np.ones(c_in), requires_grad=requires_grad) if with_norm else None
    ln_b = Tensor(np.zeros(c_in), requires_grad=requires_grad) if with_norm else None
    return AttentionParams(
        w_q=w(c_in, hd), w_k=w(kv_dim, hd), w_v=w(kv_dim, hd),
        w_o=w(hd, c_in, zero=zero_out), d_k=d_k, heads=heads,
        ln_gamma=ln_g, ln_beta=ln_b,
    )


def _key_index_matrix(d, query_plane, key_plane, cross_line_index):
    """Flat key indices (D*D, 2D-1) into the key plane, one row per query pixel.

    Rows are ordered by flat query index v*D + u. Column order matches
    oa_key_set (shared line, then cross-line remainder).
    """
    m = max(2 * d - 1, 1)
    out = np.empty((d * d, m), dtype=np.int64)
    for v in range(d):
        for u in range(d):
            ks = oa_key_set(d, query_plane, key_plane, (u, v), cross_line_index)
            out[v * d + u] = [kv * d + ku for (ku, kv) in ks.indices]
    return out


_KEY_MATRIX_CACHE = {}


def key_index_matrix(d, query_plane, key_plane, cross_line_index):
    key = (d, query_plane, key_plane, cross_line_index)
    if key not in _KEY_MATRIX_CACHE:
        _KEY_MATRIX_CACHE[key] = _key_index_matrix(d, query_plane, key_plane, cross_line_index)
    return _KEY_MATRIX_CACHE[key]


def _maybe_norm(x, params):
    if params.ln_gamma is None:
        return x
    return layer_norm(x, params.ln_gamma, params.ln_beta)


_STACKED_IDX_CACHE = {}


def stacked_key_indices(d, cross_line_index, batch=1):
    """Global row indices (batch*3*D*D, 2, 2D-1) into the plane-stacked layout.

    Rows follow (xy | xz | yz) stacking per example, examples concatenated;
    the middle axis separates the two partner key sets of each plane in
    Eq-order. Keys never cross example boundaries.
    """
    cache_key = (d, cross_line_index, batch)
    if cache_key not in _STACKED_IDX_CACHE:
        dd = d * d
        m = max(2 * d - 1, 1)
        idx = np.empty((3 * dd, 2, m), dtype=np.int64)
        for pi, pid in enumerate(PLANE_IDS):
            for si, partner in enumerate(OA_PARTNERS[pid]):
                block = key_index_matrix(d, pid, partner, cross_line_index)
                idx[pi * dd:(pi + 1) * dd, si] = block + PLANE_IDS.index(partner) * dd
        if batch > 1:
            offs = (np.arange(batch) * 3 * dd)[:, None, None, None]
            idx = (idx[None] + offs).reshape(batch * 3 * dd, 2, m)
        _STACKED_IDX_CACHE[cache_key] = idx
    return _STACKED_IDX_CACHE[cache_key]


def stacked_orthogonal_attention(x, params, d, cross_line_index, batch=1):
    """Fused orthogonal attention on plane-stacked features (batch*3*D*D, C).

    Scores over each of a pixel's two partner key sets are softmax-normalized
    separately, the two attention results summed, projected by w_o, and added
    residually. Returns features in the same stacked layout.
    """
    dd = d * d
    n = batch * 3 * dd
    m = max(2 * d - 1, 1)
    idx = stacked_key_indices(d, cross_line_index, batch)

    xn = _maybe_norm(x, params)
    q = matmul(xn, params.w_q)
    k = reshape(gather(matmul(xn, params.w_k), idx.ravel()), (n, 2, m, params.heads * params.d_k))
    v = reshape(gather(matmul(xn, params.w_v), idx.ravel()), (n, 2, m, params.heads * params.d_k))

    scale = 1.0 / np.sqrt(params.d_k)
    head_outs = []
    for h in range(params.heads):
        qh = reshape(narrow(q, 1, h * params.d_k, params.d_k), (n, 1, 1, params.d_k))
        kh = narrow(k, 3, h * params.d_k, params.d_k)
        vh = narrow(v, 3, h * params.d_k, params.d_k)
        qb = broadcast_to(qh, (n, 2, m, params.d_k))
        scores = mul(tsum(mul(qb, kh), axis=3), scale)  # (N, 2, M)
        w = softmax(scores, axis=2)  # separate normalization per key set
        wb = broadcast_to(reshape(w, (n, 2, m, 1)), (n, 2, m, params.d_k))
        att = tsum(tsum(mul(wb, vh), axis=2), axis=1)  # sum the two key-set results
        head_outs.append(att)
    acc = head_outs[0] if len(head_outs) == 1 else concat(head_outs, axis=1)
    return add(x, matmul(acc, params.w_o))


def orthogonal_attention(tri, params, cross_line_index=None):
    """Apply orthogonal attention to all three planes of one input triplane.

    Every output plane is computed from the same input (no in-place sequential
    update). Key-set membership comes from the same enumeration the per-pixel
    reference uses.
    """
    d, c = tri.resolution, tri.channels
    if params.w_q.data.shape[0] != c:
        raise ValueError(f"params expect {params.w_q.data.shape[0]} channels, triplane has {c}")
    if cross_line_index is None:
        cross_line_index = d // 2
    dd = d * d
    x = concat([reshape(p, (dd, c)) for p in tri.planes], axis=0)
    out = stacked_orthogonal_attention(x, params, d, cross_line_index)
    return Triplane(tuple(reshape(narrow(out, 0, i * dd, dd), (d, d, c)) for i in range(3)))


def orthogonal_attention_reference(tri_arrays, params, cross_line_index):
    """Per-pixel brute-force oracle: materialize each key set and attend naively.

    Pure numpy, independent of the tape path; used to validate the vectorized
    operator. tri_arrays: three (D, D, C) numpy planes in (xy, xz, yz) order.
    """
    planes = [np.asarray(p, dtype=np.float64) for p in tri_arrays]
    d, _, c = planes[0].shape
    wq, wk, wv, wo = (params.w_q.data, params.w_k.data, params.w_v.data, params.w_o.data)
    dk, heads = params.d_k, params.heads

    def norm_row(x):
        if params.ln_gamma is None:
            return x
        mu = x.mean()
        var = ((x - mu) ** 2).mean()
        return (x - mu) / np.sqrt(var + 1e-6) * params.ln_gamma.data + params.ln_beta.data

    out = [p.copy() for p in planes]
    for pi, pid in enumerate(PLANE_IDS):
        for v in range(d):
            for u in range(d):
                x_m = norm_row(planes[pi][v, u])
                q_full = x_m @ wq
                acc = np.zeros(heads * dk)
                for partner in OA_PARTNERS[pid]:
                    kplane = planes[PLANE_IDS.index(partner)]
                    ks = oa_key_set(d, pid, partner, (u, v), cross_line_index)
                    feats = np.stack([norm_row(kplane[kv, ku]) for (ku, kv) in ks.indices])
                    k_full = feats @ wk
                    v_full = feats @ wv
                    for h in range(heads):
                        sl = slice(h * dk, (h + 1) * dk)
                        scores = k_full[:, sl] @ q_full[sl] / np.sqrt(dk)
                        w = np.exp(scores - scores.max())
                        w /= w.sum()
                        acc[sl] += w @ v_full[:, sl]
                out[pi][v, u] = planes[pi][v, u] + acc @ wo
    return out


def cross_attention(feat, text, params, batch=1):
    """Attend every feature row (query) over its own example's text tokens (keys/values).

    feat: Triplane, or a plane-stacked (batch*N, C) Tensor with each example's
    N rows contiguous. text: TextEmbedding, or a (batch*L, d_model) Tensor with
    each example's L token rows contiguous. Each query gathers the key/value
    rows of its own example, so captions never mix across a batch. Output
    matches the input shape; a residual connection is always applied.
    """
    is_tri = isinstance(feat, Triplane)
    if is_tri:
        d, c = feat.resolution, feat.channels
        x = concat([reshape(p, (d * d, c)) for p in feat.planes], axis=0)
    else:
        x = as_tensor(feat)
    tokens = text.tokens if isinstance(text, TextEmbedding) else as_tensor(text)
    n, n_tok = x.data.shape[0], tokens.data.shape[0]
    if batch < 1 or n % batch or n_tok % batch or not n_tok:
        raise ValueError(f"cross_attention: {n} query rows and {n_tok} token rows do not split into {batch} examples")
    length, dk, hd = n_tok // batch, params.d_k, params.heads * params.d_k

    k = matmul(tokens, params.w_k)
    v = matmul(tokens, params.w_v)
    q = matmul(_maybe_norm(x, params), params.w_q)
    key_rows = ((np.arange(n) // (n // batch))[:, None] * length + np.arange(length)[None, :]).ravel()
    kq = reshape(gather(k, key_rows), (n, length, hd))
    vq = reshape(gather(v, key_rows), (n, length, hd))

    def head(t, axis, h):  # one head's columns; the whole tensor when there is one head
        return t if params.heads == 1 else narrow(t, axis, h * dk, dk)

    outs = []
    for h in range(params.heads):
        qb = broadcast_to(reshape(head(q, 1, h), (n, 1, dk)), (n, length, dk))
        scores = mul(tsum(mul(qb, head(kq, 2, h)), axis=2), 1.0 / np.sqrt(dk))  # (N, L)
        w = softmax(scores, axis=1)
        wb = broadcast_to(reshape(w, (n, length, 1)), (n, length, dk))
        outs.append(tsum(mul(wb, head(vq, 2, h)), axis=1))
    att = outs[0] if len(outs) == 1 else concat(outs, axis=1)
    y = add(x, matmul(att, params.w_o))
    if is_tri:
        return Triplane(tuple(reshape(narrow(y, 0, i * d * d, d * d), (d, d, c)) for i in range(3)))
    return y


@dataclass
class RefineBlockParams:
    ca: AttentionParams
    oa: AttentionParams
    mlp_w1: Tensor
    mlp_b1: Tensor
    mlp_w2: Tensor
    mlp_b2: Tensor
    mlp_gamma: Tensor
    mlp_beta: Tensor

    def tensors(self):
        return (
            self.ca.tensors() + self.oa.tensors()
            + [self.mlp_w1, self.mlp_b1, self.mlp_w2, self.mlp_b2, self.mlp_gamma, self.mlp_beta]
        )


@dataclass
class RefineParams:
    blocks: list = field(default_factory=list)

    def tensors(self):
        return [t for b in self.blocks for t in b.tensors()]


def refine_params(rng, c, d_k, d_model, depth, hidden=None, heads=1, requires_grad=False):
    hidden = 2 * c if hidden is None else hidden
    blocks = []
    for _ in range(depth):
        blocks.append(
            RefineBlockParams(
                ca=attention_params(rng, c, d_k, kv_dim=d_model, heads=heads,
                                    with_norm=True, requires_grad=requires_grad),
                oa=attention_params(rng, c, d_k, heads=heads, with_norm=True, requires_grad=requires_grad),
                mlp_w1=Tensor(rng.normal(scale=c ** -0.5, size=(c, hidden)), requires_grad=requires_grad),
                mlp_b1=Tensor(np.zeros(hidden), requires_grad=requires_grad),
                mlp_w2=Tensor(np.zeros((hidden, c)), requires_grad=requires_grad),
                mlp_b2=Tensor(np.zeros(c), requires_grad=requires_grad),
                mlp_gamma=Tensor(np.ones(c), requires_grad=requires_grad),
                mlp_beta=Tensor(np.zeros(c), requires_grad=requires_grad),
            )
        )
    return RefineParams(blocks)


def _pixel_mlp(tri, block):
    d, c = tri.resolution, tri.channels
    out = []
    for p in tri.planes:
        x = reshape(p, (d * d, c))
        h = relu(affine(layer_norm(x, block.mlp_gamma, block.mlp_beta), block.mlp_w1, block.mlp_b1))
        out.append(reshape(add(x, affine(h, block.mlp_w2, block.mlp_b2)), (d, d, c)))
    return Triplane(tuple(out))


def transformer_refine(feat, text, depth, params, cross_line_index=None):
    """Stack of depth blocks: cross-attention, orthogonal attention, pixel MLP.

    Every sub-op carries its own pre-norm and residual, so a stack with zeroed
    value/output/MLP weights is an exact identity.
    """
    if depth < 1:
        raise ValueError(f"depth must be >= 1, got {depth}")
    if len(params.blocks) != depth:
        raise ValueError(f"params carry {len(params.blocks)} blocks, depth is {depth}")
    x = feat
    for block in params.blocks:
        x = cross_attention(x, text, block.ca)
        x = orthogonal_attention(x, block.oa, cross_line_index)
        x = _pixel_mlp(x, block)
    return x
