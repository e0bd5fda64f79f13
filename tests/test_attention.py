import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trifield import attention as at
from trifield import autodiff as ad
from trifield import triplane as tp
from trifield.autodiff import Tensor
from trifield.triplane import PLANE_IDS, Triplane


def test_key_set_worked_example():
    ks = at.oa_key_set(4, "xy", "xz", (1, 2), 0)
    shared = {(1, z) for z in range(4)}
    cross = {(x, 0) for x in range(4)}
    assert set(ks) == shared | cross
    assert len(ks) == 7  # (1, 0) deduplicated
    # ordering: shared line ascending, then cross-line remainder ascending
    assert ks[:4] == [(1, 0), (1, 1), (1, 2), (1, 3)]
    assert ks[4:] == [(0, 0), (2, 0), (3, 0)]


def test_key_set_degenerate_resolution():
    ks = at.oa_key_set(1, "xy", "yz", (0, 0), 0)
    assert ks == [(0, 0)]


def test_key_set_shared_coordinate_on_cross_line():
    ks = at.oa_key_set(4, "xy", "xz", (0, 1), 0)
    assert len(ks) == 7


def test_key_set_rejects_same_plane():
    with pytest.raises(ValueError):
        at.oa_key_set(4, "xy", "xy", (0, 0), 0)


def test_key_set_bounds_validation():
    with pytest.raises(ValueError):
        at.oa_key_set(4, "xy", "xz", (4, 0), 0)
    with pytest.raises(ValueError):
        at.oa_key_set(4, "xy", "xz", (0, 0), 4)


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_key_set_size_and_membership(d):
    for q_plane in PLANE_IDS:
        for k_plane in PLANE_IDS:
            if q_plane == k_plane:
                continue
            s = at.shared_axis(q_plane, k_plane)
            pos_q = tp.PLANE_AXES[q_plane].index(s)
            pos_k = tp.PLANE_AXES[k_plane].index(s)
            for qu in range(d):
                for qv in range(d):
                    cross = (qu + qv) % d
                    ks = at.oa_key_set(d, q_plane, k_plane, (qu, qv), cross)
                    assert len(ks) == len(set(ks)) == 2 * d - 1
                    shared_val = (qu, qv)[pos_q]
                    line = {k for k in ks if k[pos_k] == shared_val}
                    assert len(line) == d  # full shared-coordinate line
                    cross_line = {k for k in ks if k[1 - pos_k] == cross}
                    assert len(cross_line) == d  # full cross-line


@settings(max_examples=200, deadline=None)
@given(
    d=st.integers(min_value=1, max_value=9),
    planes=st.sampled_from([(a, b) for a in PLANE_IDS for b in PLANE_IDS if a != b]),
    data=st.data(),
)
def test_key_set_properties_hold_for_any_query(d, planes, data):
    q_plane, k_plane = planes
    qu = data.draw(st.integers(0, d - 1))
    qv = data.draw(st.integers(0, d - 1))
    cross = data.draw(st.integers(0, d - 1))
    ks = at.oa_key_set(d, q_plane, k_plane, (qu, qv), cross)
    assert len(ks) == len(set(ks)) == max(2 * d - 1, 1)
    assert all(0 <= u < d and 0 <= v < d for u, v in ks)
    s = at.shared_axis(q_plane, k_plane)
    pos_q = tp.PLANE_AXES[q_plane].index(s)
    pos_k = tp.PLANE_AXES[k_plane].index(s)
    shared_val = (qu, qv)[pos_q]
    assert sum(1 for k in ks if k[pos_k] == shared_val) == d
    assert sum(1 for k in ks if k[1 - pos_k] == cross) == d


def test_shared_coordinate_relation_is_symmetric():
    # pixel (a, b) on xy attends the line x = a in xz; (a, z) on xz attends x = a in xy
    a, b, z = 2, 1, 3
    ks_xy = at.oa_key_set(5, "xy", "xz", (a, b), 0)
    assert {(a, t) for t in range(5)} <= set(ks_xy)
    ks_xz = at.oa_key_set(5, "xz", "xy", (a, z), 0)
    assert {(a, t) for t in range(5)} <= set(ks_xz)


def test_oa_zero_value_path_is_identity():
    rng = np.random.default_rng(0)
    tri = tp.random_triplane(rng, 4, 2, scale=1.0)
    params = at.attention_params(rng, 2, d_k=3, zero_out=False)
    params.w_v.data[:] = 0.0
    out = at.orthogonal_attention(tri, params, 2)
    assert np.array_equal(out.tensor.data, tri.tensor.data)


def test_oa_uniform_weights_give_key_set_mean():
    rng = np.random.default_rng(1)
    d, c = 4, 2
    tri = tp.random_triplane(rng, d, c, scale=1.0)
    params = at.attention_params(rng, c, d_k=3, zero_out=False)
    params.w_k.data[:] = 0.0  # constant scores -> uniform attention
    cross = 1
    out = at.orthogonal_attention(tri, params, cross)
    planes = tri.tensor.data
    u, v = 2, 3
    acc = np.zeros(3)
    for partner in at.OA_PARTNERS["xy"]:
        ks = at.oa_key_set(d, "xy", partner, (u, v), cross)
        feats = np.stack([planes[PLANE_IDS.index(partner)][kv, ku] for ku, kv in ks])
        acc += (feats @ params.w_v.data).mean(axis=0)
    want = planes[0][v, u] + acc @ params.w_o.data
    assert np.allclose(out.tensor.data[0, v, u], want, atol=1e-12)


@pytest.mark.parametrize("d,c", [(1, 1), (2, 2), (3, 1), (4, 2)])
def test_oa_matches_brute_force_reference(d, c):
    for seed in range(5):
        rng = np.random.default_rng(seed)
        tri = tp.random_triplane(rng, d, c, scale=1.0)
        params = at.attention_params(rng, c, d_k=3, zero_out=False)
        out = at.orthogonal_attention(tri, params, d // 2)
        ref = at.orthogonal_attention_reference(tri.tensor.data, params, d // 2)
        dev = max(np.abs(o - r).max() for o, r in zip(out.tensor.data, ref))
        assert dev < 1e-10


def test_oa_set_valued_over_keys():
    # permuting a key set together with its features leaves attention unchanged:
    # the reference computed with shuffled key enumerations must agree
    rng = np.random.default_rng(2)
    d, c = 4, 2
    tri = tp.random_triplane(rng, d, c, scale=1.0)
    params = at.attention_params(rng, c, d_k=3, zero_out=False)
    base = at.orthogonal_attention_reference(tri.tensor.data, params, 2)

    orig = at.oa_key_set

    def shuffled(dd, qp, kp, q, cross):
        ks = orig(dd, qp, kp, q, cross)
        order = np.random.default_rng(hash((q, qp, kp)) % 2**32).permutation(len(ks))
        return [ks[i] for i in order]

    at.oa_key_set = shuffled
    try:
        perm = at.orthogonal_attention_reference(tri.tensor.data, params, 2)
    finally:
        at.oa_key_set = orig
    assert max(np.abs(a - b).max() for a, b in zip(base, perm)) < 1e-12


def test_zero_init_output_projection_gives_identity():
    rng = np.random.default_rng(3)
    tri = tp.random_triplane(rng, 4, 2, scale=1.0)
    oa = at.attention_params(rng, 2, d_k=3, zero_out=True)
    out = at.orthogonal_attention(tri, oa, 2)
    assert np.array_equal(out.tensor.data, tri.tensor.data)
    ca = at.attention_params(rng, 2, d_k=3, kv_dim=5, zero_out=True)
    x = tp.stack_planes([tri])
    assert np.array_equal(at.cross_attention(x, Tensor(rng.normal(size=(2, 5))), ca).data, x.data)


def test_cross_attention_single_token_uniform_increment():
    rng = np.random.default_rng(4)
    d, c = 3, 2
    tri = tp.random_triplane(rng, d, c, scale=1.0)
    token = rng.normal(size=(1, 5))
    params = at.attention_params(rng, c, d_k=3, kv_dim=5, zero_out=False)
    x = tp.stack_planes([tri])
    out = at.cross_attention(x, Tensor(token), params)
    want = (token @ params.w_v.data) @ params.w_o.data  # one-key softmax is 1
    assert np.allclose(out.data - x.data, np.broadcast_to(want, x.data.shape), atol=1e-12)


def test_cross_attention_zero_value_identity():
    rng = np.random.default_rng(5)
    tri = tp.random_triplane(rng, 3, 2, scale=1.0)
    params = at.attention_params(rng, 2, d_k=3, kv_dim=5, zero_out=False)
    params.w_v.data[:] = 0.0
    x = tp.stack_planes([tri])
    assert np.array_equal(at.cross_attention(x, Tensor(rng.normal(size=(4, 5))), params).data, x.data)


def test_cross_attention_two_token_closed_form():
    # queries aligned with key 1 at large scale: increment approaches w_o(w_v(token1));
    # verified against the hand-computed 2-way softmax
    c, dm, dk = 2, 4, 2
    k1 = np.array([1.0, 0.0, 0.0, 0.0])
    k2 = np.array([0.0, 1.0, 0.0, 0.0])
    tokens = np.stack([k1, k2])
    rng = np.random.default_rng(6)
    params = at.attention_params(rng, c, d_k=dk, kv_dim=dm, zero_out=False)
    params.w_k.data = np.zeros((dm, dk))
    params.w_k.data[0, 0] = 1.0  # key1 -> (1, 0), key2 -> (0, 0)
    params.w_q.data = np.zeros((c, dk))
    scale_q = 30.0
    params.w_q.data[0, 0] = scale_q  # query (1, ...) -> (30, 0)

    x = np.ones((5, c))
    out = at.cross_attention(Tensor(x), Tensor(tokens), params)
    # hand softmax over scores (30, 0)/sqrt(2)
    s = np.array([scale_q, 0.0]) / np.sqrt(dk)
    w = np.exp(s - s.max())
    w /= w.sum()
    v = tokens @ params.w_v.data
    want = x + ((w @ v) @ params.w_o.data)
    assert np.allclose(out.data, want, atol=1e-12)
    increment_limit = (k1 @ params.w_v.data) @ params.w_o.data
    assert np.abs((out.data - x) - increment_limit).max() < 1e-8


def test_cross_attention_batch_equals_per_example_calls():
    # two examples with different captions, with pre-norm: each example's
    # rows attend only to its own caption
    rng = np.random.default_rng(11)
    c, dm, length, rows = 3, 5, 4, 12
    params = at.attention_params(rng, c, d_k=2, kv_dim=dm, zero_out=False, with_norm=True)
    x = rng.normal(size=(2 * rows, c))
    captions = rng.normal(size=(2, length, dm))
    both = at.cross_attention(Tensor(x), Tensor(captions.reshape(2 * length, dm)), params, batch=2)
    for e in range(2):
        one = at.cross_attention(Tensor(x[e * rows:(e + 1) * rows]), Tensor(captions[e]), params)
        assert np.abs(both.data[e * rows:(e + 1) * rows] - one.data).max() < 1e-12
    swapped = at.cross_attention(Tensor(x), Tensor(captions[::-1].reshape(2 * length, dm)), params, batch=2)
    assert np.abs(swapped.data - both.data).max() > 1e-3  # the caption really matters
    with pytest.raises(ValueError, match="examples"):
        at.cross_attention(Tensor(x), Tensor(captions.reshape(2 * length, dm)), params, batch=3)


def cross_attention_reference(x, tokens, params, batch):
    """Per-row numpy oracle: each row softmaxes over its own example's tokens."""
    rows, length, dk = len(x) // batch, len(tokens) // batch, params.d_k
    out = x.copy()
    for i, row in enumerate(x):
        if params.ln_gamma is not None:
            row = (row - row.mean()) / np.sqrt(row.var() + 1e-6) * params.ln_gamma.data + params.ln_beta.data
        caption = tokens[i // rows * length:(i // rows + 1) * length]
        q, k, v = row @ params.w_q.data, caption @ params.w_k.data, caption @ params.w_v.data
        s = k @ q / np.sqrt(dk)
        w = np.exp(s - s.max())
        out[i] += (w / w.sum() @ v) @ params.w_o.data
    return out


@pytest.mark.parametrize("batch", [1, 3])
@pytest.mark.parametrize("with_norm", [False, True])
def test_cross_attention_matches_per_row_reference(with_norm, batch):
    rng = np.random.default_rng(100 + 10 * with_norm + batch)
    d, c, dm, length = 3, 4, 5, 3
    params = at.attention_params(rng, c, d_k=2, kv_dim=dm, zero_out=False, with_norm=with_norm)
    if with_norm:
        params.ln_gamma.data = rng.normal(size=c)
        params.ln_beta.data = rng.normal(size=c)
    x = rng.normal(size=(batch * 3 * d * d, c))
    tokens = rng.normal(size=(batch * length, dm))
    got = at.cross_attention(Tensor(x), Tensor(tokens), params, batch=batch).data
    assert np.abs(got - cross_attention_reference(x, tokens, params, batch)).max() < 1e-12


def test_text_embedding_requires_tokens():
    with pytest.raises(ValueError):
        at.TextEmbedding(Tensor(np.zeros((0, 4))))


def test_token_ids_closed_vocabulary():
    ids = at.token_ids(("red", "small", "box"))
    assert ids.dtype == np.int64 and len(ids) == 3
    with pytest.raises(ValueError, match="purple"):
        at.token_ids(("purple",))


def test_refine_zero_weights_is_identity():
    rng = np.random.default_rng(7)
    d, c = 4, 2
    tri = tp.random_triplane(rng, d, c, scale=1.0)
    text = at.TextEmbedding(Tensor(rng.normal(size=(3, 5))))
    params = at.refine_params(rng, c, d_k=3, d_model=5, depth=2)  # zero-init outputs/MLP
    out = at.transformer_refine(tri, text, params)
    assert np.array_equal(out.tensor.data, tri.tensor.data)


def test_refine_depth_one_equals_manual_composition():
    rng = np.random.default_rng(8)
    d, c = 4, 2
    tri = tp.random_triplane(rng, d, c, scale=1.0)
    text = at.TextEmbedding(Tensor(rng.normal(size=(3, 5))))
    params = at.refine_params(rng, c, d_k=3, d_model=5, depth=1)
    for block in params.blocks:
        block.ca.w_o.data = rng.normal(scale=0.3, size=block.ca.w_o.data.shape)
        block.oa.w_o.data = rng.normal(scale=0.3, size=block.oa.w_o.data.shape)
        block.mlp_w2.data = rng.normal(scale=0.3, size=block.mlp_w2.data.shape)
    out = at.transformer_refine(tri, text, params)

    block = params.blocks[0]
    x = at.cross_attention(tp.stack_planes([tri]), text.tokens, block.ca)
    x = at.stacked_orthogonal_attention(x, block.oa, d, d // 2)
    x = ad.add(x, ad.mlp(ad.layer_norm(x, block.mlp_gamma, block.mlp_beta),
                         [(block.mlp_w1, block.mlp_b1), (block.mlp_w2, block.mlp_b2)]))
    assert np.array_equal(out.tensor.data, tp.unstack_planes(x, d, c)[0].tensor.data)


def test_refine_depth_validation():
    rng = np.random.default_rng(9)
    tri = tp.random_triplane(rng, 4, 2)
    text = at.TextEmbedding(Tensor(rng.normal(size=(2, 5))))
    with pytest.raises(ValueError, match="no blocks"):
        at.transformer_refine(tri, text, at.RefineParams())
    with pytest.raises(ValueError, match="no blocks"):
        at.transformer_refine(tri, text, at.refine_params(rng, 2, d_k=3, d_model=5, depth=0))


def test_refine_grad_check_depth_two():
    rng = np.random.default_rng(10)
    d, c = 4, 2
    tri = tp.random_triplane(rng, d, c, scale=0.8)
    text = at.TextEmbedding(Tensor(rng.normal(size=(3, 5))))
    params = at.refine_params(rng, c, d_k=3, d_model=5, depth=2)
    for block in params.blocks:
        block.ca.w_o.data = rng.normal(scale=0.3, size=block.ca.w_o.data.shape)
        block.oa.w_o.data = rng.normal(scale=0.3, size=block.oa.w_o.data.shape)
        block.mlp_w2.data = rng.normal(scale=0.3, size=block.mlp_w2.data.shape)
    probe = Tensor(rng.normal(size=(d, d, c)))

    def f(x):
        t2 = Triplane(ad.concat([ad.reshape(x, (1, d, d, c)), ad.narrow(tri.tensor, 0, 1, 2)]))
        out = at.transformer_refine(t2, text, params)
        return ad.tsum(ad.mul(out.planes[0], probe))

    err = ad.grad_check(f, Tensor(tri.tensor.data[0].copy(), requires_grad=True))
    assert err < 1e-5


def stacked_planes(x, batch, d, c):
    """Per-example (xy, xz, yz) numpy planes of plane-stacked rows (batch*3*D*D, C)."""
    return [[p.reshape(d, d, c) for p in np.split(xb, 3)] for xb in np.split(x, batch)]


@pytest.mark.parametrize("d,with_norm", [(1, False), (2, False), (3, False), (5, False), (4, True)])
def test_stacked_oa_batch_matches_reference_per_example(d, with_norm):
    batch, c = 3, 4
    for cross in sorted({0, d // 2, d - 1}):
        rng = np.random.default_rng(10 * d + cross)
        params = at.attention_params(rng, c, d_k=2, zero_out=False, with_norm=with_norm)
        if with_norm:
            params.ln_gamma.data = rng.normal(size=c)
            params.ln_beta.data = rng.normal(size=c)
        x = rng.normal(size=(batch * 3 * d * d, c))
        out = at.stacked_orthogonal_attention(Tensor(x), params, d, cross, batch=batch).data
        for got, planes in zip(stacked_planes(out, batch, d, c), stacked_planes(x, batch, d, c)):
            ref = at.orthogonal_attention_reference(planes, params, cross)
            assert max(np.abs(g - r).max() for g, r in zip(got, ref)) < 1e-10, (d, cross)


def test_stacked_oa_rejects_cross_line_outside_plane():
    params = at.attention_params(np.random.default_rng(0), 2, d_k=3)
    for cross in (-1, 3):
        with pytest.raises(ValueError, match="cross_line_index"):
            at.stacked_orthogonal_attention(Tensor(np.zeros((27, 2))), params, 3, cross)


def test_stacked_oa_grad_check_batch_two():
    rng = np.random.default_rng(12)
    batch, d, c = 2, 3, 2
    params = at.attention_params(rng, c, d_k=3, zero_out=False)
    x0 = rng.normal(size=(batch * 3 * d * d, c))
    probe = Tensor(rng.normal(size=x0.shape))

    def loss(x):
        return ad.tsum(ad.mul(at.stacked_orthogonal_attention(x, params, d, 2, batch=batch), probe))

    assert ad.grad_check(loss, Tensor(x0.copy())) < 1e-6
    for name in ("w_q", "w_k", "w_v", "w_o"):
        w0 = getattr(params, name)

        def loss_w(w, name=name):
            setattr(params, name, w)
            try:
                return loss(Tensor(x0))
            finally:
                setattr(params, name, w0)

        assert ad.grad_check(loss_w, Tensor(w0.data.copy())) < 1e-6, name


def test_stacked_oa_degenerate_resolution_has_finite_gradients():
    # at D=1 the only cross-line key is the masked overlap pixel
    rng = np.random.default_rng(13)
    batch, c = 2, 3
    params = at.attention_params(rng, c, d_k=2, zero_out=False)
    weights = [params.w_q, params.w_k, params.w_v, params.w_o]
    for w in weights:
        w.requires_grad = True
    x = Tensor(rng.normal(size=(batch * 3, c)), requires_grad=True)

    def loss(xx):
        out = at.stacked_orthogonal_attention(xx, params, 1, 0, batch=batch)
        return ad.tsum(ad.mul(out, out))

    loss(x).backward()
    for t in [x] + weights:
        assert t.grad is not None and np.all(np.isfinite(t.grad))
    assert ad.grad_check(loss, Tensor(x.data.copy())) < 1e-6
