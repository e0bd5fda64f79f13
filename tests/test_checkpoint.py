"""Every strict prefix of a checkpoint is a CheckpointError, never a struct.error."""

import io

import numpy as np
import pytest

from trifield import checkpoint as ck
from trifield import diffusion as df
from trifield import render as rd
from trifield import triplane as tp
from trifield.triplane import CheckpointError


def tiny_denoiser_bytes(tmp_path):
    den = df.Denoiser(df.DenoiserConfig(resolution=2, channels=1, hidden=2, d_k=1, d_model=1, timesteps=2))
    path = tmp_path / "d.ckpt"
    df.save_denoiser(str(path), den)
    return path.read_bytes()


def tiny_fit_bytes(tmp_path):
    rng = np.random.default_rng(0)
    tri = tp.random_triplane(rng, 2, 2)
    heads = rd.init_field_heads(rng, 6, hidden=2, depth=2)
    path = tmp_path / "fit.ckpt"
    ck.save_fit_checkpoint(str(path), tri, heads)
    return path.read_bytes()


@pytest.mark.parametrize("kind", ["denoiser", "fit"])
def test_every_prefix_raises_checkpoint_error(tmp_path, kind):
    data, load = {
        "denoiser": (tiny_denoiser_bytes(tmp_path), df.load_denoiser),
        "fit": (tiny_fit_bytes(tmp_path), ck.load_fit_checkpoint),
    }[kind]
    cut = tmp_path / "cut.ckpt"
    cut.write_bytes(data)
    load(str(cut))  # the whole file loads
    for n in range(len(data)):
        cut.write_bytes(data[:n])
        with pytest.raises(CheckpointError):
            load(str(cut))


def test_named_arrays_field_errors():
    buf = io.BytesIO()
    ck.write_named_arrays(buf, b"TEST", {"ab": np.zeros((2, 3))})
    data = buf.getvalue()
    # magic 4, version/count 6, name length 2, name 2, ndim 1, dims 8, payload 24
    for n, field in ((5, "header"), (11, "name"), (13, "name"), (14, "ndim"), (16, "dims"), (30, "payload")):
        with pytest.raises(CheckpointError, match=f"^{field}:"):
            ck.read_named_arrays(io.BytesIO(data[:n]), b"TEST")
    bad = data[:12] + b"\xff\xfe" + data[14:]
    with pytest.raises(CheckpointError, match="UTF-8"):
        ck.read_named_arrays(io.BytesIO(bad), b"TEST")
    back = ck.read_named_arrays(io.BytesIO(data), b"TEST")
    assert list(back) == ["ab"] and np.array_equal(back["ab"], np.zeros((2, 3)))
