"""Binary checkpoints: triplane block plus named float32 parameter sections.

Section layout after a 4-byte magic: u16 version, u32 array count, then per
array a u16 name length, utf-8 name, u8 ndim, ndim u32 dims, and the float32
little-endian payload. Everything is fixed-order and platform independent.
"""

from __future__ import annotations

import struct

import numpy as np

from .render import FieldHeads, Tensor
from .triplane import CheckpointError, read_triplane_block, write_triplane_block

SECTION_VERSION = 1
HEADS_MAGIC = b"HEDS"


def write_named_arrays(f, magic, arrays):
    f.write(magic)
    f.write(struct.pack("<HI", SECTION_VERSION, len(arrays)))
    for name, arr in arrays.items():
        arr = np.asarray(arr)
        encoded = name.encode("utf-8")
        f.write(struct.pack("<H", len(encoded)))
        f.write(encoded)
        f.write(struct.pack("<B", arr.ndim))
        f.write(struct.pack(f"<{arr.ndim}I", *arr.shape))
        f.write(np.ascontiguousarray(arr, dtype="<f4").tobytes())


def read_exact(f, n, message):
    """Exactly n bytes from f, or CheckpointError(message) when the file ends first."""
    raw = f.read(n)
    if len(raw) != n:
        raise CheckpointError(message)
    return raw


def read_named_arrays(f, magic):
    got = f.read(4)
    if got != magic:
        raise CheckpointError(f"magic: expected {magic!r}, got {got!r}")
    version, count = struct.unpack("<HI", read_exact(f, 6, "header: truncated before version/count"))
    if version != SECTION_VERSION:
        raise CheckpointError(f"version: expected {SECTION_VERSION}, got {version}")
    arrays = {}
    for i in range(count):
        (name_len,) = struct.unpack("<H", read_exact(f, 2, f"name: array {i} truncated before its name length"))
        try:
            name = read_exact(f, name_len, f"name: array {i} name truncated").decode("utf-8")
        except UnicodeDecodeError:
            raise CheckpointError(f"name: array {i} name is not valid UTF-8") from None
        (ndim,) = struct.unpack("<B", read_exact(f, 1, f"ndim: array {name!r} truncated"))
        shape = struct.unpack(f"<{ndim}I", read_exact(f, 4 * ndim, f"dims: array {name!r} truncated"))
        n_bytes = 4 * int(np.prod(shape, dtype=np.int64)) if ndim else 4
        raw = read_exact(f, n_bytes, f"payload: array {name!r} truncated")
        arrays[name] = np.frombuffer(raw, dtype="<f4").astype(np.float64).reshape(shape)
    return arrays


def heads_to_arrays(heads):
    out = {"meta": np.array([heads.n_freqs, len(heads.s_layers)], dtype=np.float64)}
    for tag, layers in (("s", heads.s_layers), ("c", heads.c_layers)):
        for i, (w, b) in enumerate(layers):
            out[f"{tag}{i}.w"] = w.data
            out[f"{tag}{i}.b"] = b.data
    return out


def heads_from_arrays(arrays):
    try:
        n_freqs, depth = (int(v) for v in arrays["meta"])
        s_layers = [(Tensor(arrays[f"s{i}.w"]), Tensor(arrays[f"s{i}.b"])) for i in range(depth)]
        c_layers = [(Tensor(arrays[f"c{i}.w"]), Tensor(arrays[f"c{i}.b"])) for i in range(depth)]
    except KeyError as exc:
        raise CheckpointError(f"heads section: missing array {exc.args[0]!r}") from None
    return FieldHeads(s_layers=s_layers, c_layers=c_layers, n_freqs=n_freqs)


def save_fit_checkpoint(path, tri, heads):
    with open(path, "wb") as f:
        write_triplane_block(f, tri)
        write_named_arrays(f, HEADS_MAGIC, heads_to_arrays(heads))


def load_fit_checkpoint(path):
    with open(path, "rb") as f:
        tri = read_triplane_block(f)
        heads = heads_from_arrays(read_named_arrays(f, HEADS_MAGIC))
    return tri, heads
