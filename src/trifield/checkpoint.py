"""Binary checkpoints: the one module that knows the on-disk byte layout.

Every block is a 4-byte magic, a u16 version and fixed u32 fields; arrays are
row-major float32; all little-endian. A ``TRPL`` block holds D, C and the
(3, D, D, C) triplane tensor. A named-array section (``HEDS``, ``PRMS``) holds
an array count, then per array a u16 name length, the utf-8 name, u8 ndim,
the u32 dims and the payload. README "Output formats" has the whole layout.

A reader holds the whole file in memory and checks every read against the
bytes left, so no field can size an allocation past the file's end; every
array must be finite and have the shape its reader expects.
"""

from __future__ import annotations

import math
import struct

import numpy as np

from .autodiff import Tensor
from .render import FieldHeads
from .triplane import PLANE_IDS, Triplane

VERSION = 1
TRIPLANE_MAGIC = b"TRPL"
HEADS_MAGIC = b"HEDS"


class CheckpointError(ValueError):
    """Unreadable or mismatched checkpoint; the message starts with the failing field."""


def write_block(f, magic, fmt, *fields):
    """The magic, the version and `fields` packed by the struct format `fmt`."""
    f.write(magic + struct.pack("<H" + fmt, VERSION, *fields))


def write_array(f, arr):
    f.write(np.ascontiguousarray(arr, dtype="<f4").tobytes())


def write_named_arrays(f, magic, arrays):
    write_block(f, magic, "I", len(arrays))
    for name, arr in arrays.items():
        arr = np.asarray(arr)
        encoded = name.encode("utf-8")
        f.write(struct.pack(f"<H{len(encoded)}sB{arr.ndim}I", len(encoded), encoded, arr.ndim, *arr.shape))
        write_array(f, arr)


def _finite_array(raw, shape, field):
    arr = np.frombuffer(raw, dtype="<f4")
    if not np.isfinite(arr).all():
        raise CheckpointError(f"payload: {field} holds a non-finite value")
    return arr.astype(np.float64).reshape(shape)


class Reader:
    """Bounded reads over a checkpoint held in memory."""

    def __init__(self, data):
        self.data = memoryview(data)
        self.pos = 0

    @classmethod
    def from_file(cls, path):
        with open(path, "rb") as f:
            return cls(f.read())

    def take(self, n, field):
        """The next n bytes, or CheckpointError naming `field` when fewer are left."""
        left = len(self.data) - self.pos
        if n > left:
            raise CheckpointError(f"{field} truncated: {n} bytes needed, {left} left")
        self.pos += n
        return self.data[self.pos - n:self.pos]

    def unpack(self, fmt, field):
        fmt = "<" + fmt
        return struct.unpack(fmt, self.take(struct.calcsize(fmt), field))

    def block(self, magic, fmt):
        """The fixed fields of the block that `write_block(f, magic, fmt, ...)` wrote."""
        got = bytes(self.data[self.pos:self.pos + len(magic)])
        if got != magic:
            raise CheckpointError(f"magic: expected {magic!r}, got {got!r}")
        self.pos += len(magic)
        version, *fields = self.unpack("H" + fmt, f"header: {magic.decode()}")
        if version != VERSION:
            raise CheckpointError(f"version: {magic.decode()} expected {VERSION}, got {version}")
        return fields

    def array(self, shape, field):
        """A finite float32 array of `shape`, widened to float64."""
        return _finite_array(self.take(4 * math.prod(shape), f"payload: {field}"), shape, field)

    def named_arrays(self, magic, shapes):
        """The arrays of one named-array section, which must hold exactly the names and shapes of `shapes`.

        `shapes` maps each name to its shape, or is a function that builds that map
        from the {name: dims} the section declares, for layers whose widths chain.
        No payload is converted before every name and shape has been checked.
        """
        (count,) = self.block(magic, "I")
        declared, payloads = {}, {}
        for i in range(count):
            (name_len,) = self.unpack("H", f"name: array {i}")
            try:
                name = bytes(self.take(name_len, f"name: array {i}")).decode("utf-8")
            except UnicodeDecodeError:
                raise CheckpointError(f"name: array {i} name is not valid UTF-8") from None
            if name in declared:
                raise CheckpointError(f"name: array {name!r} appears twice")
            (ndim,) = self.unpack("B", f"ndim: array {name!r}")
            declared[name] = self.unpack(f"{ndim}I", f"dims: array {name!r}")
            payloads[name] = self.take(4 * math.prod(declared[name]), f"payload: array {name!r}")
        expected = shapes(declared) if callable(shapes) else shapes
        for name in expected:
            if name not in declared:
                raise CheckpointError(f"name: missing array {name!r}")
        for name, dims in declared.items():
            if name not in expected:
                raise CheckpointError(f"name: unknown array {name!r}")
            if dims != tuple(expected[name]):
                raise CheckpointError(f"shape: array {name!r} is {dims}, expected {tuple(expected[name])}")
        return {name: _finite_array(payloads[name], declared[name], f"array {name!r}") for name in declared}

    def end(self):
        left = len(self.data) - self.pos
        if left:
            raise CheckpointError(f"end: {left} trailing bytes after the last section")


def heads_to_arrays(heads):
    out = {"meta": np.array([heads.n_freqs, len(heads.s_layers)], dtype=np.float64)}
    for tag, layers in (("s", heads.s_layers), ("c", heads.c_layers)):
        for i, (w, b) in enumerate(layers):
            out[f"{tag}{i}.w"] = w.data
            out[f"{tag}{i}.b"] = b.data
    return out


def _head_shapes(declared, feat_dim):
    """The {name: shape} map of a heads section, chained through the widths it declares.

    Both MLPs read 3(1 + 2 n_freqs) + feat_dim inputs, each layer's rows are the
    previous layer's columns, and the last layers have 1 (density) and 3 (color)
    columns. The section holds `meta` plus a weight and a bias per layer.
    """
    extra = (declared.get("s0.w") or (0,))[0] - feat_dim - 3
    in_dim = feat_dim + 3 + (extra if extra > 0 and extra % 6 == 0 else 0)
    depth = max(1, (len(declared) - 1) // 4)
    shapes = {"meta": (2,)}
    for tag, n_out in (("s", 1), ("c", 3)):
        rows = in_dim
        for i in range(depth):
            w = declared.get(f"{tag}{i}.w", ())
            cols = n_out if i == depth - 1 else (w[1] if len(w) == 2 else 0)
            shapes[f"{tag}{i}.w"], shapes[f"{tag}{i}.b"] = (rows, cols), (cols,)
            rows = cols
    return shapes


def heads_from_arrays(arrays, feat_dim):
    """FieldHeads from the arrays of a heads section that `_head_shapes` has checked."""
    depth = (len(arrays) - 1) // 4
    n_freqs = (arrays["s0.w"].shape[0] - feat_dim - 3) // 6
    meta = tuple(arrays["meta"].tolist())
    if meta != (n_freqs, depth):
        raise CheckpointError(f"meta: (n_freqs, depth) = {meta}, the layer shapes give {(n_freqs, depth)}")
    s_layers = [(Tensor(arrays[f"s{i}.w"]), Tensor(arrays[f"s{i}.b"])) for i in range(depth)]
    c_layers = [(Tensor(arrays[f"c{i}.w"]), Tensor(arrays[f"c{i}.b"])) for i in range(depth)]
    return FieldHeads(s_layers=s_layers, c_layers=c_layers, n_freqs=n_freqs)


def save_fit_checkpoint(path, tri, heads):
    with open(path, "wb") as f:
        write_block(f, TRIPLANE_MAGIC, "II", tri.resolution, tri.channels)
        write_array(f, tri.tensor.data)
        write_named_arrays(f, HEADS_MAGIC, heads_to_arrays(heads))


def load_fit_checkpoint(path):
    r = Reader.from_file(path)
    d, c = r.block(TRIPLANE_MAGIC, "II")
    if d < 1 or c < 1:
        raise CheckpointError(f"header: TRPL needs D >= 1 and C >= 1, got D={d}, C={c}")
    tri = Triplane(np.stack([r.array((d, d, c), f"plane {pid}") for pid in PLANE_IDS]))
    arrays = r.named_arrays(HEADS_MAGIC, lambda declared: _head_shapes(declared, 3 * c))
    r.end()
    return tri, heads_from_arrays(arrays, 3 * c)
