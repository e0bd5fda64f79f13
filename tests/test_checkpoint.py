"""Checkpoint framing: the byte layout of the README, and a CheckpointError for every bad file."""

import io
import struct

import numpy as np
import pytest

from trifield import checkpoint as ck
from trifield import diffusion as df
from trifield import render as rd
from trifield import triplane as tp
from trifield.autodiff import Tensor
from trifield.checkpoint import CheckpointError
from trifield.triplane import Triplane

TINY_DENOISER = dict(resolution=2, channels=1, hidden=2, d_k=1, d_model=1, timesteps=2)


def tiny_denoiser_bytes(tmp_path):
    den = df.Denoiser(df.DenoiserConfig(**TINY_DENOISER))
    path = tmp_path / "d.ckpt"
    df.save_denoiser(str(path), den)
    return path.read_bytes()


def tiny_fit_bytes(tmp_path, heads=None):
    rng = np.random.default_rng(0)
    tri = tp.random_triplane(rng, 2, 2)
    heads = heads or rd.init_field_heads(rng, 6, hidden=2, depth=2)
    path = tmp_path / "fit.ckpt"
    ck.save_fit_checkpoint(str(path), tri, heads)
    return path.read_bytes()


def fit_shapes(tri, heads):
    layers = [(w.data.shape, b.data.shape) for w, b in heads.s_layers + heads.c_layers]
    return tri.tensor.data.shape, layers, heads.n_freqs


def fit_finite(tri, heads):
    return all(np.isfinite(t.data).all() for t in [tri.tensor] + heads.tensors())


LOADERS = {
    "denoiser": (tiny_denoiser_bytes, df.load_denoiser,
                 lambda den: {n: t.data.shape for n, t in den.params.items()},
                 lambda den: all(np.isfinite(t.data).all() for t in den.params.values())),
    "fit": (tiny_fit_bytes, ck.load_fit_checkpoint,
            lambda loaded: fit_shapes(*loaded), lambda loaded: fit_finite(*loaded)),
}


@pytest.mark.parametrize("kind", ["denoiser", "fit"])
def test_every_prefix_raises_checkpoint_error(tmp_path, kind):
    make, load, _, _ = LOADERS[kind]
    data = make(tmp_path)
    cut = tmp_path / "cut.ckpt"
    cut.write_bytes(data)
    load(str(cut))  # the whole file loads
    for n in range(len(data)):
        cut.write_bytes(data[:n])
        with pytest.raises(CheckpointError):
            load(str(cut))


@pytest.mark.parametrize("kind", ["denoiser", "fit"])
def test_every_byte_flip_loads_or_raises_checkpoint_error(tmp_path, kind):
    make, load, shapes, finite = LOADERS[kind]
    data = make(tmp_path)
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(data)
    want = shapes(load(str(bad)))
    for i in range(len(data)):
        flipped = bytearray(data)
        flipped[i] ^= 0xFF
        bad.write_bytes(bytes(flipped))
        try:
            loaded = load(str(bad))
        except CheckpointError:
            continue
        assert shapes(loaded) == want and finite(loaded), f"byte {i}"


@pytest.mark.parametrize("kind", ["denoiser", "fit"])
def test_trailing_byte_raises_checkpoint_error(tmp_path, kind):
    make, load, _, _ = LOADERS[kind]
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(make(tmp_path) + b"\x00")
    with pytest.raises(CheckpointError, match="^end: 1 trailing byte"):
        load(str(bad))


# ---------------------------------------------------------------------------
# golden layout: the README spec packed by hand
# ---------------------------------------------------------------------------

def spec_floats(arr):
    arr = np.asarray(arr)
    return struct.pack(f"<{arr.size}f", *arr.ravel())


def spec_section(magic, arrays):
    out = magic + struct.pack("<HI", 1, len(arrays))
    for name, arr in arrays.items():
        arr = np.asarray(arr)
        out += struct.pack("<H", len(name)) + name.encode() + struct.pack("<B", arr.ndim)
        out += struct.pack(f"<{arr.ndim}I", *arr.shape) + spec_floats(arr)
    return out


def test_fit_checkpoint_matches_the_spec_byte_for_byte(tmp_path):
    d, c = 2, 2
    planes = [np.arange(d * d * c).reshape(d, d, c) * 0.5 + k for k in range(3)]
    w = [np.arange(r * k).reshape(r, k) * 0.25 for r, k in ((9, 2), (2, 1), (9, 2), (2, 3))]
    b = [np.full(k, 0.125 * (i + 1)) for i, k in enumerate((2, 1, 2, 3))]
    heads = rd.FieldHeads(s_layers=[(Tensor(w[0]), Tensor(b[0])), (Tensor(w[1]), Tensor(b[1]))],
                          c_layers=[(Tensor(w[2]), Tensor(b[2])), (Tensor(w[3]), Tensor(b[3]))], n_freqs=0)
    path = tmp_path / "fit.ckpt"
    ck.save_fit_checkpoint(str(path), Triplane(np.stack(planes)), heads)
    want = b"TRPL" + struct.pack("<HII", 1, d, c) + b"".join(spec_floats(p) for p in planes)
    want += spec_section(b"HEDS", {"meta": [0.0, 2.0], "s0.w": w[0], "s0.b": b[0], "s1.w": w[1], "s1.b": b[1],
                                   "c0.w": w[2], "c0.b": b[2], "c1.w": w[3], "c1.b": b[3]})
    assert path.read_bytes() == want


def test_denoiser_checkpoint_matches_the_spec_byte_for_byte(tmp_path):
    den = df.Denoiser(df.DenoiserConfig(**TINY_DENOISER))
    for i, t in enumerate(den.params.values()):
        t.data = np.arange(t.data.size).reshape(t.data.shape) * 0.5 + i
    path = tmp_path / "d.ckpt"
    df.save_denoiser(str(path), den)
    flags = 0b11  # bit 0 use_adapters, bit 1 adapter_attention
    want = b"DNZR" + struct.pack("<H7I", 1, 2, 1, 2, 1, 1, 2, flags)
    want += spec_section(b"PRMS", {n: t.data for n, t in den.params.items()})
    assert path.read_bytes() == want


# ---------------------------------------------------------------------------
# the TRPL block
# ---------------------------------------------------------------------------

def test_triplane_block_round_trip_is_exact_for_f32_values(tmp_path):
    rng = np.random.default_rng(7)
    tri = Triplane(rng.normal(size=(3, 4, 4, 3)).astype(np.float32).astype(np.float64))
    path = str(tmp_path / "fit.ckpt")
    ck.save_fit_checkpoint(path, tri, rd.init_field_heads(rng, 9, hidden=2))
    back, _ = ck.load_fit_checkpoint(path)
    assert np.array_equal(tri.tensor.data, back.tensor.data)


def test_triplane_block_layout_is_little_endian_u_fastest(tmp_path):
    d, c = 2, 1
    plane = np.array([[[1.0], [2.0]], [[3.0], [4.0]]])  # [v, u, c]
    tri = Triplane(np.stack([plane, np.zeros((d, d, c)), np.zeros((d, d, c))]))
    path = tmp_path / "fit.ckpt"
    ck.save_fit_checkpoint(str(path), tri, rd.init_field_heads(np.random.default_rng(0), 3, hidden=2))
    raw = path.read_bytes()
    assert raw[:4] == b"TRPL"
    payload = np.frombuffer(raw[14:14 + 16], dtype="<f4")
    assert np.array_equal(payload, [1.0, 2.0, 3.0, 4.0])  # u scans fastest


def test_triplane_block_errors_name_failing_field(tmp_path):
    path = tmp_path / "fit.ckpt"
    path.write_bytes(b"NOPE" + b"\x00" * 20)
    with pytest.raises(CheckpointError, match="^magic"):
        ck.load_fit_checkpoint(str(path))
    good = tiny_fit_bytes(tmp_path)
    raw = bytearray(good)
    raw[4] = 9  # version
    path.write_bytes(bytes(raw))
    with pytest.raises(CheckpointError, match="^version"):
        ck.load_fit_checkpoint(str(path))
    path.write_bytes(good[:14 + 4 * 8 * 3 - 4])  # the last float of the planes cut
    with pytest.raises(CheckpointError, match="^payload: plane yz"):
        ck.load_fit_checkpoint(str(path))
    raw = bytearray(good)
    raw[14:18] = struct.pack("<f", np.nan)
    path.write_bytes(bytes(raw))
    with pytest.raises(CheckpointError, match="^payload: plane xy holds a non-finite value"):
        ck.load_fit_checkpoint(str(path))
    raw = bytearray(good)
    raw[6:10] = struct.pack("<I", 0)  # D
    path.write_bytes(bytes(raw))
    with pytest.raises(CheckpointError, match="^header: TRPL needs D >= 1"):
        ck.load_fit_checkpoint(str(path))


# ---------------------------------------------------------------------------
# named-array sections
# ---------------------------------------------------------------------------

def section_bytes(arrays, magic=b"TEST"):
    buf = io.BytesIO()
    ck.write_named_arrays(buf, magic, arrays)
    return buf.getvalue()


def test_named_arrays_field_errors():
    data = section_bytes({"ab": np.zeros((2, 3))})
    shapes = {"ab": (2, 3)}
    # magic 4, version/count 6, name length 2, name 2, ndim 1, dims 8, payload 24
    for n, field in ((5, "header"), (11, "name"), (13, "name"), (14, "ndim"), (16, "dims"), (30, "payload")):
        with pytest.raises(CheckpointError, match=f"^{field}:"):
            ck.Reader(data[:n]).named_arrays(b"TEST", shapes)
    bad = data[:12] + b"\xff\xfe" + data[14:]
    with pytest.raises(CheckpointError, match="UTF-8"):
        ck.Reader(bad).named_arrays(b"TEST", shapes)
    back = ck.Reader(data).named_arrays(b"TEST", shapes)
    assert list(back) == ["ab"] and np.array_equal(back["ab"], np.zeros((2, 3)))


def test_named_arrays_require_exactly_the_expected_names_and_shapes():
    shapes = {"a": (2,), "b": (1, 3)}
    good = {"a": np.zeros(2), "b": np.ones((1, 3))}
    for arrays, message in (
        ({**good, "c": np.zeros(1)}, "^name: unknown array 'c'"),
        ({"a": np.zeros(2)}, "^name: missing array 'b'"),
        ({"a": np.zeros(2), "b": np.ones((3, 1))}, r"^shape: array 'b' is \(3, 1\), expected \(1, 3\)"),
        ({"a": np.zeros(2), "b": np.ones(3)}, r"^shape: array 'b' is \(3,\)"),
        ({"a": np.array([0.0, np.inf]), "b": np.ones((1, 3))}, "^payload: array 'a' holds a non-finite value"),
    ):
        with pytest.raises(CheckpointError, match=message):
            ck.Reader(section_bytes(arrays)).named_arrays(b"TEST", shapes)
    twice = bytearray(section_bytes(good))
    twice[12:13] = b"b"  # rename "a" to "b"
    with pytest.raises(CheckpointError, match="^name: array 'b' appears twice"):
        ck.Reader(bytes(twice)).named_arrays(b"TEST", shapes)
    reader = ck.Reader(section_bytes(good) + b"\x00\x00")
    reader.named_arrays(b"TEST", shapes)
    with pytest.raises(CheckpointError, match="^end: 2 trailing bytes"):
        reader.end()


def test_heads_must_chain(tmp_path):
    rng = np.random.default_rng(1)

    def heads(s_shapes, c_shapes, n_freqs=0):
        def layers(shapes):
            return [(Tensor(rng.normal(size=s)), Tensor(np.zeros(s[1]))) for s in shapes]
        return rd.FieldHeads(s_layers=layers(s_shapes), c_layers=layers(c_shapes), n_freqs=n_freqs)

    path = str(tmp_path / "fit.ckpt")
    tri = tp.random_triplane(rng, 2, 2)  # 6 features
    ck.save_fit_checkpoint(path, tri, heads([(9, 4), (4, 1)], [(9, 5), (5, 3)]))
    assert fit_shapes(*ck.load_fit_checkpoint(path))[1][1] == ((4, 1), (1,))
    ck.save_fit_checkpoint(path, tri, heads([(21, 4), (4, 1)], [(21, 4), (4, 3)], n_freqs=2))
    assert ck.load_fit_checkpoint(path)[1].n_freqs == 2
    for s_shapes, c_shapes, n_freqs, message in (
        ([(8, 4), (4, 1)], [(8, 4), (4, 3)], 0, r"^shape: array 's0.w' is \(8, 4\), expected \(9, 4\)"),
        ([(9, 4), (3, 1)], [(9, 4), (4, 3)], 0, r"^shape: array 's1.w' is \(3, 1\), expected \(4, 1\)"),
        ([(9, 4), (4, 2)], [(9, 4), (4, 3)], 0, r"^shape: array 's1.w' is \(4, 2\), expected \(4, 1\)"),
        ([(9, 4), (4, 1)], [(9, 4), (4, 1)], 0, r"^shape: array 'c1.w' is \(4, 1\), expected \(4, 3\)"),
        ([(9, 4), (4, 1)], [(10, 4), (4, 3)], 0, r"^shape: array 'c0.w' is \(10, 4\), expected \(9, 4\)"),
        ([(9, 4), (4, 1)], [(9, 4), (4, 3)], 1, r"^meta: \(n_freqs, depth\) = \(1.0, 2.0\)"),
    ):
        ck.save_fit_checkpoint(path, tri, heads(s_shapes, c_shapes, n_freqs))
        with pytest.raises(CheckpointError, match=message):
            ck.load_fit_checkpoint(path)


# ---------------------------------------------------------------------------
# the DNZR header
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("offset, value, message", [
    (6, 3, "^header: DNZR resolution must be even, got 3"),
    (6, 0, "^header: DNZR resolution must be >= 1, got 0"),
    (10, 0, "^header: DNZR channels must be >= 1, got 0"),
    (10, 3, r"^shape: array 'stem.w' is \(9, 2\), expected \(27, 2\)"),
    (14, 1 << 30, r"^shape: array 'stem.w' is \(9, 2\), expected \(9, 1073741824\)"),
    (30, 7, "^header: DNZR flags 0x7 set bits other than 0 and 1"),
    (30, 1, "^name: unknown array 'adapter0.oa.wq'"),
])
def test_denoiser_header_fields_are_checked(tmp_path, offset, value, message):
    # header: magic 4, version 2, then resolution, channels, hidden, d_k, d_model, timesteps, flags
    raw = bytearray(tiny_denoiser_bytes(tmp_path))
    raw[offset:offset + 4] = struct.pack("<I", value)
    path = tmp_path / "bad.ckpt"
    path.write_bytes(bytes(raw))
    with pytest.raises(CheckpointError, match=message):
        df.load_denoiser(str(path))
