"""Cross-plane orthogonal attention, text cross-attention, and the refinement stack.

Each plane pixel attends into the other two planes only: all key-plane pixels
sharing the mutual world axis coordinate (the line), plus the discretized
cross-line where the two planes intersect. Those two key sets always overlap
at exactly one pixel, so a key set has 2D-1 members (D at the degenerate D=1).

The operator runs in axial form (Ho et al., 2019, "Axial Attention in
Multidimensional Transformers"): all D queries that share a coordinate attend
to the same line, so line scores are one batched matmul; all queries attend to
the same cross-line, so its scores are one more matmul, with the overlap pixel
masked to -inf so each key counts once. Attention over each partner's key set
is normalized separately and the two results are summed before the output
projection; a residual connection wraps everything, and output projections
are zero-initialized so fresh blocks are identities. The per-pixel
`orthogonal_attention_reference`, built on `oa_key_set`, is the independent
oracle for it.

Both attention ops take plane-stacked rows only (`triplane.stack_planes`);
`orthogonal_attention` and `transformer_refine` are the Triplane-in,
Triplane-out wrappers that stack once and unstack once.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .autodiff import Tensor, add, as_tensor, concat, layer_norm, matmul, mlp, mul, narrow, reshape, softmax, transpose
from .triplane import PLANE_AXES, PLANE_IDS, stack_planes, unstack_planes

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


def oa_key_set(d, query_plane, key_plane, q, cross_line_index):
    """The (u, v) key pixels on `key_plane` that query pixel `q` on `query_plane` attends:
    the shared-coordinate line plus the cross-line.

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
    return line + [k for k in cross if k not in seen]


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


def token_ids(words):
    try:
        return np.array([VOCABULARY.index(w) for w in words], dtype=np.int64)
    except ValueError:
        unknown = [w for w in words if w not in VOCABULARY]
        raise ValueError(f"words not in vocabulary: {unknown}") from None


@dataclass
class AttentionParams:
    """Projections for one single-head attention op.

    w_q: (C_in, d_k); w_k, w_v: (C_kv, d_k); w_o: (d_k, C_in).
    Optional pre-norm gamma/beta applied to the query stream before projection.
    """

    w_q: Tensor
    w_k: Tensor
    w_v: Tensor
    w_o: Tensor
    d_k: int
    ln_gamma: Tensor = None
    ln_beta: Tensor = None

    def __post_init__(self):
        for name in ("w_q", "w_k", "w_v", "w_o"):
            setattr(self, name, as_tensor(getattr(self, name)))
        if self.d_k < 1:
            raise ValueError(f"d_k must be >= 1, got {self.d_k}")
        dk = self.d_k
        if self.w_q.data.shape[1] != dk or self.w_k.data.shape[1] != dk or self.w_v.data.shape[1] != dk:
            raise ValueError(
                f"w_q/w_k/w_v second dim must equal d_k={dk}, got "
                f"{self.w_q.data.shape}, {self.w_k.data.shape}, {self.w_v.data.shape}"
            )
        if self.w_o.data.shape[0] != dk:
            raise ValueError(f"w_o first dim must equal d_k={dk}, got {self.w_o.data.shape}")


def attention_params(rng, c_in, d_k, kv_dim=None, zero_out=True, with_norm=False):
    kv_dim = c_in if kv_dim is None else kv_dim

    def w(rows, cols, zero=False):
        return Tensor(np.zeros((rows, cols)) if zero else rng.normal(scale=rows ** -0.5, size=(rows, cols)))

    return AttentionParams(
        w_q=w(c_in, d_k), w_k=w(kv_dim, d_k), w_v=w(kv_dim, d_k), w_o=w(d_k, c_in, zero=zero_out), d_k=d_k,
        ln_gamma=Tensor(np.ones(c_in)) if with_norm else None,
        ln_beta=Tensor(np.zeros(c_in)) if with_norm else None,
    )


def _maybe_norm(x, params):
    if params.ln_gamma is None:
        return x
    return layer_norm(x, params.ln_gamma, params.ln_beta)


def stacked_orthogonal_attention(x, params, d, cross_line_index, batch=1):
    """Fused orthogonal attention on plane-stacked features (batch*3*D*D, C).

    Each (query plane, partner) pair works on (batch, D, D, d_k) arrays
    laid out [shared coordinate s, other coordinate]. Line: the D queries with
    shared coordinate s all attend to the D partner pixels of that s, one
    batched matmul. Cross-line: every query attends to the same D partner
    pixels at cross_line_index, one matmul; its key t == s is the line key the
    two sets share and gets -inf before the softmax. One softmax over the 2D
    scores normalizes each partner's 2D-1-key set; the two partner results are
    summed, projected by w_o, and added residually. Returns features in the
    same stacked layout.
    """
    if not 0 <= cross_line_index < d:
        raise ValueError(f"cross_line_index {cross_line_index} outside [0, {d - 1}]")
    dd, dk = d * d, params.d_k
    xn = _maybe_norm(x, params)

    def planes(w):  # per plane, (batch, D, D, d_k) stored [v, u]
        t = reshape(matmul(xn, w), (batch, 3, d, d, dk))
        return [reshape(narrow(t, 1, p, 1), (batch, d, d, dk)) for p in range(3)]

    def by_shared(t, plane, s):  # [v, u] <-> [s, other]: a swap when s is the plane's u axis
        return transpose(t, (0, 2, 1, 3)) if PLANE_AXES[plane][0] == s else t

    q, k, v = planes(params.w_q), planes(params.w_k), planes(params.w_v)
    overlap = np.zeros((d, 1, 2 * d))
    overlap[np.arange(d), 0, d + np.arange(d)] = -np.inf  # cross-line key t == s
    mask = Tensor(np.broadcast_to(overlap, (batch, d, d, 2 * d)))
    scale = 1.0 / np.sqrt(dk)

    def attend(pi, partner):  # (batch, D, D, d_k) [v, u] result of one partner's key set
        pid, ki = PLANE_IDS[pi], PLANE_IDS.index(partner)
        s = shared_axis(pid, partner)
        qs = by_shared(q[pi], pid, s)
        ks, vs = by_shared(k[ki], partner, s), by_shared(v[ki], partner, s)
        kc = reshape(narrow(ks, 2, cross_line_index, 1), (batch, d, dk))  # cross-line keys by t
        vc = reshape(narrow(vs, 2, cross_line_index, 1), (batch, d, dk))
        line = matmul(qs, transpose(ks, (0, 1, 3, 2)))  # (B, D_s, D_o, D_t)
        cross = reshape(matmul(reshape(qs, (batch, dd, dk)), transpose(kc, (0, 2, 1))), (batch, d, d, d))
        w = softmax(add(mul(concat([line, cross], axis=3), scale), mask), axis=3)
        o = add(matmul(narrow(w, 3, 0, d), vs),
                reshape(matmul(reshape(narrow(w, 3, d, d), (batch, dd, d)), vc), (batch, d, d, dk)))
        return by_shared(o, pid, s)

    outs = [reshape(add(*(attend(pi, partner) for partner in OA_PARTNERS[pid])), (batch, dd, dk))
            for pi, pid in enumerate(PLANE_IDS)]
    return add(x, matmul(reshape(concat(outs, axis=1), (batch * 3 * dd, dk)), params.w_o))


def orthogonal_attention(tri, params, cross_line_index=None):
    """Apply orthogonal attention to all three planes of one input triplane.

    Every output plane is computed from the same input (no in-place sequential
    update).
    """
    d, c = tri.resolution, tri.channels
    if params.w_q.data.shape[0] != c:
        raise ValueError(f"params expect {params.w_q.data.shape[0]} channels, triplane has {c}")
    if cross_line_index is None:
        cross_line_index = d // 2
    return unstack_planes(stacked_orthogonal_attention(stack_planes([tri]), params, d, cross_line_index), d, c)[0]


def orthogonal_attention_reference(tri_arrays, params, cross_line_index):
    """Per-pixel brute-force oracle: materialize each key set and attend naively.

    Pure numpy, independent of the tape path; used to validate the vectorized
    operator. tri_arrays: three (D, D, C) numpy planes in (xy, xz, yz) order.
    """
    planes = [np.asarray(p, dtype=np.float64) for p in tri_arrays]
    d, _, c = planes[0].shape
    wq, wk, wv, wo = (params.w_q.data, params.w_k.data, params.w_v.data, params.w_o.data)
    dk = params.d_k

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
                q = x_m @ wq
                acc = np.zeros(dk)
                for partner in OA_PARTNERS[pid]:
                    kplane = planes[PLANE_IDS.index(partner)]
                    keys = oa_key_set(d, pid, partner, (u, v), cross_line_index)
                    feats = np.stack([norm_row(kplane[kv, ku]) for (ku, kv) in keys])
                    scores = (feats @ wk) @ q / np.sqrt(dk)
                    w = np.exp(scores - scores.max())
                    w /= w.sum()
                    acc += w @ (feats @ wv)
                out[pi][v, u] = planes[pi][v, u] + acc @ wo
    return out


def cross_attention(x, tokens, params, batch=1):
    """Attend every plane-stacked feature row (query) over its own example's text tokens.

    x: (batch*N, C) rows with each example's N rows contiguous, such as
    `stack_planes` output. tokens: (batch*L, d_model) rows with each example's
    L token rows contiguous, so captions never mix across a batch. The scores
    are one batched matmul softmaxed over the L tokens, and the attended values
    one more. Returns (batch*N, C) rows with a residual connection always
    applied.
    """
    x, tokens = as_tensor(x), as_tensor(tokens)
    n, n_tok = x.data.shape[0], tokens.data.shape[0]
    if batch < 1 or n % batch or n_tok % batch or not n_tok:
        raise ValueError(f"cross_attention: {n} query rows and {n_tok} token rows do not split into {batch} examples")
    dk = params.d_k
    q = reshape(matmul(_maybe_norm(x, params), params.w_q), (batch, n // batch, dk))
    k = reshape(matmul(tokens, params.w_k), (batch, n_tok // batch, dk))
    v = reshape(matmul(tokens, params.w_v), (batch, n_tok // batch, dk))
    w = softmax(mul(matmul(q, transpose(k, (0, 2, 1))), 1.0 / np.sqrt(dk)), axis=2)
    return add(x, matmul(reshape(matmul(w, v), (n, dk)), params.w_o))


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


@dataclass
class RefineParams:
    blocks: list = field(default_factory=list)


def refine_params(rng, c, d_k, d_model, depth):
    hidden = 2 * c
    blocks = []
    for _ in range(depth):
        blocks.append(
            RefineBlockParams(
                ca=attention_params(rng, c, d_k, kv_dim=d_model, with_norm=True),
                oa=attention_params(rng, c, d_k, with_norm=True),
                mlp_w1=Tensor(rng.normal(scale=c ** -0.5, size=(c, hidden))),
                mlp_b1=Tensor(np.zeros(hidden)),
                mlp_w2=Tensor(np.zeros((hidden, c))),
                mlp_b2=Tensor(np.zeros(c)),
                mlp_gamma=Tensor(np.ones(c)),
                mlp_beta=Tensor(np.zeros(c)),
            )
        )
    return RefineParams(blocks)


def transformer_refine(feat, text, params, cross_line_index=None):
    """Stack of params' blocks: cross-attention, orthogonal attention, pixel MLP.

    feat: Triplane; text: TextEmbedding. The blocks run on the plane-stacked
    rows of feat, which is stacked once and unstacked once. Every sub-op
    carries its own pre-norm and residual, so a stack with zeroed
    value/output/MLP weights is an exact identity.
    """
    if not params.blocks:
        raise ValueError("transformer_refine: params carry no blocks")
    d, c = feat.resolution, feat.channels
    if cross_line_index is None:
        cross_line_index = d // 2
    x = stack_planes([feat])
    for block in params.blocks:
        x = cross_attention(x, text.tokens, block.ca)
        x = stacked_orthogonal_attention(x, block.oa, d, cross_line_index)
        layers = [(block.mlp_w1, block.mlp_b1), (block.mlp_w2, block.mlp_b2)]
        x = add(x, mlp(layer_norm(x, block.mlp_gamma, block.mlp_beta), layers))
    return unstack_planes(x, d, c)[0]
