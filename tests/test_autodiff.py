import itertools
import weakref

import numpy as np
import pytest

from trifield import autodiff as ad
from trifield.autodiff import Tensor


def test_softmax_symmetry():
    out = ad.softmax(Tensor([0.0, 0.0]), axis=0)
    assert np.array_equal(out.data, [0.5, 0.5])


def test_softmax_rows_sum_to_one():
    rng = np.random.default_rng(0)
    for _ in range(50):
        x = ad.softmax(Tensor(rng.normal(scale=5.0, size=(4, 7))), axis=1)
        assert np.all(x.data >= 0.0)
        assert np.abs(x.data.sum(axis=1) - 1.0).max() < 1e-12


def test_backward_sum_of_squares():
    x = Tensor([1.0, 2.0, 3.0], requires_grad=True)
    ad.tsum(ad.mul(x, x)).backward()
    assert np.array_equal(x.grad, [2.0, 4.0, 6.0])


def test_matmul_of_ones_counts():
    out = ad.matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((3, 2))))
    assert np.array_equal(out.data, np.full((2, 2), 3.0))


def test_shape_mismatch_names_op_and_shapes():
    with pytest.raises(ad.ShapeError) as err:
        ad.add(Tensor(np.ones((2, 3))), Tensor(np.ones((3, 2))))
    msg = str(err.value)
    assert "add" in msg and "(2, 3)" in msg and "(3, 2)" in msg


def test_no_implicit_broadcasting_beyond_scalars():
    with pytest.raises(ad.ShapeError):
        ad.add(Tensor(np.ones((2, 3))), Tensor(np.ones(3)))
    # scalar-by-tensor is the one allowed mix
    out = ad.mul(Tensor(np.ones((2, 3))), 2.0)
    assert np.array_equal(out.data, np.full((2, 3), 2.0))


def test_backward_requires_scalar_output():
    x = Tensor(np.ones((2, 2)), requires_grad=True)
    with pytest.raises(ValueError):
        ad.mul(x, 2.0).backward()


def test_grad_check_rejects_non_scalar():
    with pytest.raises(ValueError):
        ad.grad_check(lambda t: ad.mul(t, 2.0), Tensor([1.0, 2.0]))


def test_grad_check_quadratic():
    err = ad.grad_check(lambda t: ad.tsum(ad.mul(t, t)), Tensor([1.0, 2.0], requires_grad=True), eps=1e-5)
    assert err < 1e-7


def test_grad_check_softmax_sum_is_constant():
    rng = np.random.default_rng(3)
    x = Tensor(rng.normal(size=(5,)), requires_grad=True)
    err = ad.grad_check(lambda t: ad.tsum(ad.softmax(t, axis=0)), x, eps=1e-5)
    assert err < 1e-7


def test_grad_check_two_layer_mlp():
    rng = np.random.default_rng(7)
    w1 = Tensor(rng.normal(size=(8, 6)))
    b1 = Tensor(rng.normal(size=(6,)))
    w2 = Tensor(rng.normal(size=(6, 1)))
    b2 = Tensor(rng.normal(size=(1,)))

    def f(x):
        h = ad.relu(ad.affine(ad.reshape(x, (1, 8)), w1, b1))
        return ad.reshape(ad.affine(h, w2, b2), ())

    err = ad.grad_check(f, Tensor(rng.normal(size=(8,)) + 0.05, requires_grad=True))
    assert err < 1e-6


def test_every_registered_primitive_grad_checks():
    for name, f, x in ad.primitive_suite(seed=0):
        err = ad.grad_check(f, x)
        assert err < 1e-6, f"{name}: {err:.3e}"


def test_no_grad_inputs_build_no_tape(monkeypatch):
    # fails at the parent, where every node kept its parents and closure
    built = []
    init = Tensor.__init__

    def recording_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        built.append(self)

    monkeypatch.setattr(Tensor, "__init__", recording_init)
    for name, f, x in ad.primitive_suite(seed=0):
        built.clear()
        out = f(Tensor(x.data.copy()))
        assert len(built) > 2, name
        for t in built:
            assert not t.requires_grad, (name, t._op)
            assert t._parents == () and t._backward is None, (name, t._op)
        assert out in built


def test_one_grad_input_keeps_the_tape():
    for name, f, x in ad.primitive_suite(seed=0):
        x = Tensor(x.data.copy(), requires_grad=True)
        out = f(x)
        order = ad.topo_order(out)
        assert out.requires_grad and any(node is x for node in order), name
        for node in order:
            if node.requires_grad and node is not x:
                assert node._parents and node._backward is not None, (name, node._op)
        out.backward()
        assert x.grad is not None and x.grad.shape == x.data.shape, name


def _graph_with_refs(f, x):
    """The root of f(x) and weak references to the data of every interior node below it."""
    out = f(x)
    refs = [weakref.ref(n.data) for n in ad.topo_order(out) if n is not out and n._backward is not None]
    return out, refs


def test_backward_frees_every_intermediate():
    # Tensor has __slots__ and no __weakref__, so the references are to the numpy data
    for name, f, x in ad.primitive_suite(seed=0):
        out, refs = _graph_with_refs(f, x)
        assert refs and all(r() is not None for r in refs), name
        out.backward()
        assert all(r() is None for r in refs), name
        assert out._parents == () and x.grad is not None, name


def test_second_backward_from_the_same_root_raises():
    x = Tensor([0.5, -1.0, 2.0], requires_grad=True)
    out = ad.tsum(ad.mul(ad.exp(x), x))
    out.backward()
    first = x.grad.copy()
    with pytest.raises(ad.TapeConsumedError):
        out.backward()
    assert np.array_equal(x.grad, first)  # the root's stub raised before any adjoint reached x
    assert np.array_equal(out.data, np.sum(np.exp(x.data) * x.data))


def test_backward_through_a_walked_intermediate_raises():
    # without the stub the walked node would look like a leaf, and x's gradient
    # through it would be dropped without a word
    x = Tensor([0.5, -1.0, 2.0], requires_grad=True)
    h = ad.exp(x)
    ad.tsum(h).backward()
    with pytest.raises(ad.TapeConsumedError):
        ad.tsum(ad.mul(h, h)).backward()


def test_tape_linearity_of_independent_subgraphs():
    rng = np.random.default_rng(11)
    xa = rng.normal(size=(3,))
    xb = rng.normal(size=(4,))

    a1, b1 = Tensor(xa, requires_grad=True), Tensor(xb, requires_grad=True)
    ad.add(ad.tsum(ad.mul(a1, a1)), ad.tsum(ad.exp(b1))).backward()

    a2, b2 = Tensor(xa, requires_grad=True), Tensor(xb, requires_grad=True)
    ad.tsum(ad.mul(a2, a2)).backward()
    ad.tsum(ad.exp(b2)).backward()

    assert np.array_equal(a1.grad, a2.grad)
    assert np.array_equal(b1.grad, b2.grad)


def test_backward_populates_each_leaf_exactly_once():
    x = Tensor([2.0], requires_grad=True)
    y = ad.add(ad.mul(x, 3.0), ad.mul(x, x))  # two consumers of x
    ad.tsum(y).backward()
    assert np.allclose(x.grad, [3.0 + 2.0 * 2.0])


def test_topo_order_inputs_precede_consumers():
    x = Tensor([1.0], requires_grad=True)
    y = ad.mul(x, 2.0)
    z = ad.add(y, x)
    out = ad.tsum(ad.mul(z, y))
    order = ad.topo_order(out)
    pos = {id(n): i for i, n in enumerate(order)}
    assert len(pos) == len(order)  # each node exactly once
    for node in order:
        for parent in node._parents:
            assert pos[id(parent)] < pos[id(node)]


def test_gather_scatter_adjoint_accumulates_duplicates():
    x = Tensor(np.arange(6.0).reshape(3, 2), requires_grad=True)
    out = ad.gather(x, np.array([1, 1, 0]))
    ad.tsum(out).backward()
    assert np.array_equal(x.grad, [[1.0, 1.0], [2.0, 2.0], [0.0, 0.0]])


def test_gather_takes_rows_of_a_2d_tensor_only():
    for shape, idx in (((2, 3, 4), [0, 1]), ((4,), [0, 1]), ((3, 2), [[0, 1]])):
        with pytest.raises(ad.ShapeError, match="gather"):
            ad.gather(Tensor(np.zeros(shape)), np.array(idx))


def test_cumsum_forward_and_adjoint():
    x = Tensor([[1.0, 2.0, 3.0]], requires_grad=True)
    out = ad.cumsum(x, axis=1)
    assert np.array_equal(out.data, [[1.0, 3.0, 6.0]])
    ad.tsum(ad.mul(out, Tensor([[1.0, 1.0, 1.0]]))).backward()
    assert np.array_equal(x.grad, [[3.0, 2.0, 1.0]])


def test_layer_norm_normalizes_last_axis():
    rng = np.random.default_rng(2)
    x = Tensor(rng.normal(size=(4, 8)))
    out = ad.layer_norm(x, Tensor(np.ones(8)), Tensor(np.zeros(8)))
    assert np.abs(out.data.mean(axis=-1)).max() < 1e-12
    assert np.abs(out.data.std(axis=-1) - 1.0).max() < 1e-3  # eps-regularized


def _mlp_case(rng, depth, n=9, widths=(5, 7, 4, 3)):
    x = rng.normal(size=(n, widths[0]))
    layers = [(rng.normal(size=(widths[i], widths[i + 1])), rng.normal(size=widths[i + 1])) for i in range(depth)]
    probe = rng.normal(size=(n, widths[depth]))
    return x, layers, probe


def _mlp_run(use_node, x, layers, probe, grad_mask):
    """Forward and gradients of sum(mlp(x) * probe); grad_mask flags x, then each w and b in order."""
    flags = iter(grad_mask)
    xt = Tensor(x, requires_grad=next(flags))
    lt = [(Tensor(w, requires_grad=next(flags)), Tensor(b, requires_grad=next(flags))) for w, b in layers]
    if use_node:
        out = ad.mlp(xt, lt)
    else:
        out = xt
        for i, (w, b) in enumerate(lt):
            out = ad.add_rowvec(ad.matmul(out, w), b)
            if i + 1 < len(lt):
                out = ad.relu(out)
    leaves = [xt] + [t for pair in lt for t in pair]
    if out.requires_grad:
        ad.tsum(ad.mul(out, Tensor(probe))).backward()
    return out.data, [t.grad for t in leaves]


@pytest.mark.parametrize("depth", [1, 2, 3])
def test_mlp_node_is_bit_identical_to_the_composed_chain(depth):
    rng = np.random.default_rng(20 + depth)
    x, layers, probe = _mlp_case(rng, depth)
    n_leaves = 1 + 2 * depth
    masks = [(True,) * n_leaves, (False,) * n_leaves]
    masks += [tuple(j == k for j in range(n_leaves)) for k in range(n_leaves)]  # one grad leaf at a time
    for mask in masks:
        got_out, got_grads = _mlp_run(True, x, layers, probe, mask)
        want_out, want_grads = _mlp_run(False, x, layers, probe, mask)
        assert np.array_equal(got_out, want_out), mask
        for k, (got, want) in enumerate(zip(got_grads, want_grads)):
            assert (got is None) == (want is None), (mask, k)
            assert got is None or np.array_equal(got, want), (mask, k)


def _conv_run(use_node, x, d, w, b, probe, grad_mask):
    """Forward and gradients of sum(conv(x) * probe); grad_mask flags x, w and b."""
    xt, wt, bt = (Tensor(a, requires_grad=flag) for a, flag in zip((x, w, b), grad_mask))
    if use_node:
        out = ad.conv3x3(xt, d, wt, bt)
    else:  # the composed chain: an im2col node's columns, then affine
        cols = Tensor(ad._conv_columns(x, d), requires_grad=xt.requires_grad)
        out = ad.affine(cols, wt, bt)
    if out.requires_grad:
        ad.tsum(ad.mul(out, Tensor(probe))).backward()
    grads = [xt.grad, wt.grad, bt.grad]
    if not use_node and cols.grad is not None:
        grads[0] = ad._conv_fold(cols.grad, d)
    return out.data, grads


@pytest.mark.parametrize("d, g", [(1, 3), (2, 3), (4, 6)])
def test_conv3x3_node_is_bit_identical_to_columns_then_affine(d, g):
    rng = np.random.default_rng(40 + d)
    c, f = 3, 5
    x, w, b = rng.normal(size=(g * d * d, c)), rng.normal(size=(9 * c, f)), rng.normal(size=f)
    probe = rng.normal(size=(g * d * d, f))
    masks = [(True,) * 3, (False,) * 3] + [tuple(j == k for j in range(3)) for k in range(3)]
    for mask in masks:
        got_out, got_grads = _conv_run(True, x, d, w, b, probe, mask)
        want_out, want_grads = _conv_run(False, x, d, w, b, probe, mask)
        assert np.array_equal(got_out, want_out), mask
        for k, (got, want) in enumerate(zip(got_grads, want_grads)):
            assert (got is None) == (want is None), (mask, k)
            assert got is None or np.array_equal(got, want), (mask, k)


@pytest.mark.parametrize("g", [3, 5])
@pytest.mark.parametrize("d", [2, 4])
def test_conv3x3_blocks_of_whole_grids_change_only_rounding(d, g, monkeypatch):
    # blocks of two grids: both g leave a short last block of one grid
    rng = np.random.default_rng(60 + 10 * d + g)
    c, f = 3, 5
    x, w, b = rng.normal(size=(g * d * d, c)), rng.normal(size=(9 * c, f)), rng.normal(size=f)
    probe = rng.normal(size=(g * d * d, f))
    masks = [(True,) * 3] + [tuple(j == k for j in range(3)) for k in range(3)]
    assert g * d * d < ad._CONV_BLOCK_ROWS  # so the reference builds its columns in one block
    want = [_conv_run(True, x, d, w, b, probe, mask) for mask in masks]
    rows, columns = [], ad._conv_columns

    def recording(a, d):
        rows.append(len(a))
        return columns(a, d)

    monkeypatch.setattr(ad, "_CONV_BLOCK_ROWS", 2 * d * d)
    monkeypatch.setattr(ad, "_conv_columns", recording)
    got = [_conv_run(True, x, d, w, b, probe, mask) for mask in masks]
    assert max(rows) == 2 * d * d and min(rows) == d * d

    def close(a, b):
        return np.abs(a - b).max() <= 1e-12 * np.abs(b).max()

    for mask, (got_out, got_grads), (want_out, want_grads) in zip(masks, got, want):
        assert close(got_out, want_out), mask
        for k, (got_k, want_k) in enumerate(zip(got_grads, want_grads)):
            assert (got_k is None) == (want_k is None), (mask, k)
            assert got_k is None or close(got_k, want_k), (mask, k)


def _operands(arg):
    """The tensor (or scalar) operands of a primitive call, in argument order."""
    if isinstance(arg, (list, tuple)):
        return [leaf for a in arg for leaf in _operands(a)]
    return [arg] if isinstance(arg, (Tensor, float)) else []


def _with_operands(arg, fresh):
    if isinstance(arg, (list, tuple)):
        return type(arg)(_with_operands(a, fresh) for a in arg)
    return fresh(arg) if isinstance(arg, (Tensor, float)) else arg


def _adjoints(fn, args, kwargs, grad_mask):
    """Operand index -> adjoints the closure of fn(...) returns when the flagged operands require grad."""
    flags = iter(grad_mask)
    made = []

    def fresh(leaf):
        made.append(Tensor(np.array(leaf.data if isinstance(leaf, Tensor) else leaf), requires_grad=next(flags)))
        return made[-1]

    out = fn(*_with_operands(args, fresh), **kwargs)
    got = {}
    for parent, adjoint in out._backward(np.random.default_rng(0).normal(size=out.data.shape)):
        got.setdefault(next(k for k, t in enumerate(made) if t is parent), []).append(adjoint)
    return got


def test_closures_return_adjoints_only_for_parents_that_require_grad(monkeypatch):
    # every call of a multi-operand primitive the suite makes, plus a 3-layer
    # mlp whose backward must stop below the deepest parent that needs grad
    calls = []

    def recording(fn):
        def wrapper(*args, **kwargs):
            if len(_operands(args)) > 1:
                calls.append((fn, args, kwargs))
            return fn(*args, **kwargs)
        return wrapper

    for name, fn in list(vars(ad).items()):
        code = getattr(fn, "__code__", None)  # a primitive builds its closure, named bwd
        if code is not None and any(getattr(c, "co_name", None) == "bwd" for c in code.co_consts):
            monkeypatch.setattr(ad, name, recording(fn))
    for _, f, x in ad.primitive_suite(seed=0):
        f(x)
    monkeypatch.undo()
    assert {fn.__name__ for fn, _, _ in calls} == {"add", "sub", "mul", "matmul", "concat", "add_rowvec",
                                                     "layer_norm", "mlp", "conv3x3"}
    x, layers, _ = _mlp_case(np.random.default_rng(30), 3)
    calls.append((ad.mlp, (Tensor(x), [(Tensor(w), Tensor(b)) for w, b in layers]), {}))

    for fn, args, kwargs in calls:
        n = len(_operands(args))
        full = _adjoints(fn, args, kwargs, (True,) * n)
        for mask in itertools.product((False, True), repeat=n):
            if not any(mask):
                continue
            got = _adjoints(fn, args, kwargs, mask)
            assert sorted(got) == [k for k in range(n) if mask[k]], (fn.__name__, mask)
            for k, adjoints in got.items():
                assert len(adjoints) == len(full[k]), (fn.__name__, mask, k)
                for a, b in zip(adjoints, full[k]):
                    assert np.array_equal(a, b), (fn.__name__, mask, k)


@pytest.mark.parametrize("bad_layer", [0, 2])
def test_mlp_rejects_a_mis_chained_layer_before_any_matmul(bad_layer):
    calls = []

    class Recording(np.ndarray):
        def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
            calls.append(ufunc.__name__)
            inputs = [np.asarray(a) for a in inputs]
            return getattr(ufunc, method)(*inputs, **kwargs)

    def recorded_layers(bad=None):
        lt = [(Tensor(w), Tensor(b)) for w, b in layers]
        w, b = lt[bad_layer]
        if bad == "width":
            w.data = w.data[:-1]
        elif bad == "bias":
            b.data = b.data[:-1]
        for wt, _ in lt:
            wt.data = wt.data.view(Recording)
        calls.clear()
        return lt

    rng = np.random.default_rng(31)
    x, layers, _ = _mlp_case(rng, 3)
    for bad in ("width", "bias"):
        with pytest.raises(ad.ShapeError, match=f"mlp: layer {bad_layer}"):
            ad.mlp(Tensor(x), recorded_layers(bad))
        assert calls == []
    assert ad.mlp(Tensor(x), recorded_layers()).data.shape == (9, 3)
    assert calls.count("matmul") == 3  # the recorder does see the forward's matmuls
