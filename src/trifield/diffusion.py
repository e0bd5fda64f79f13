"""Toy denoising diffusion over triplane latents.

The denoiser is a small per-plane conv encoder/decoder with a timestep
embedding, text cross-attention in the bottleneck, and optional zero-initialized
adapter blocks (one residual block plus one cross-plane attention block per
level) that can be trained with the backbone frozen. Noise prediction is
trained with the epsilon objective summed over the triplane's planes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor, add, affine, broadcast_to, concat, conv3x3, gather, mul, relu, reshape, tmean, transpose
from .attention import VOCABULARY, AttentionParams, cross_attention, stacked_orthogonal_attention
from .checkpoint import CheckpointError, Reader, write_block, write_named_arrays
from .training import AdamW, mse
from .triplane import Triplane, plane_marginal, stack_planes, unstack_planes

DENOISER_MAGIC = b"DNZR"
PARAMS_MAGIC = b"PRMS"
# the DNZR block's u32 fields, then a u32 of flags: bit 0 use_adapters, bit 1 adapter_attention
DENOISER_FIELDS = ("resolution", "channels", "hidden", "d_k", "d_model", "timesteps")
# the schedule's defaults: T steps of betas rising linearly from BETA_START to BETA_END
TIMESTEPS, BETA_START, BETA_END = 100, 1e-4, 0.02


@dataclass
class NoiseSchedule:
    """Linear-beta forward process; alpha_bar[0] follows the 1 - beta_1 convention."""

    timesteps: int
    betas: np.ndarray
    alpha_bars: np.ndarray

    def beta(self, t):
        self._check(t)
        return float(self.betas[t - 1])

    def alpha_bar(self, t):
        self._check(t)
        return float(self.alpha_bars[t - 1])

    def alpha_bar_prev(self, t):
        self._check(t)
        return 1.0 if t == 1 else float(self.alpha_bars[t - 2])

    def _check(self, t):
        if not 1 <= t <= self.timesteps:
            raise ValueError(f"t must be in [1, {self.timesteps}], got {t}")


def make_schedule(timesteps, beta_start=BETA_START, beta_end=BETA_END):
    if timesteps < 1:
        raise ValueError(f"timesteps must be >= 1, got {timesteps}")
    if not (0.0 < beta_start <= beta_end < 1.0):
        raise ValueError(f"need 0 < beta_start <= beta_end < 1, got ({beta_start}, {beta_end})")
    betas = np.linspace(beta_start, beta_end, timesteps)
    return NoiseSchedule(timesteps, betas, np.cumprod(1.0 - betas))


def q_sample(x0, t, eps, sched):
    """Forward-noised triplane sqrt(ab_t) x0 + sqrt(1 - ab_t) eps."""
    ab = sched.alpha_bar(t)
    a, b = np.sqrt(ab), np.sqrt(1.0 - ab)
    return Triplane(a * x0.tensor.data + b * eps.tensor.data)


def noise_like(tri, rng):
    return Triplane(rng.standard_normal(tri.tensor.data.shape))


# ---------------------------------------------------------------------------
# denoiser
# ---------------------------------------------------------------------------

def _pool(x, half):
    """Mean of each 2x2 block of stacked (2*half)^2 grids: (G*4*half*half, F) -> (G*half*half, F)."""
    f = x.data.shape[1]
    blocks = transpose(reshape(x, (-1, half, 2, half, 2, f)), (0, 1, 3, 2, 4, 5))
    return tmean(reshape(blocks, (-1, 4, f)), axis=1)


def _upsample(x, half):
    """Nearest 2x upsampling of stacked half x half grids: (G*half*half, F) -> (G*4*half*half, F)."""
    g, f = x.data.shape[0] // (half * half), x.data.shape[1]
    cells = broadcast_to(reshape(x, (g, half, 1, half, 1, f)), (g, half, 2, half, 2, f))
    return reshape(cells, (4 * x.data.shape[0], f))


def timestep_features(t, dim, timesteps):
    """Sinusoidal features of the normalized timestep."""
    half = dim // 2
    freqs = np.exp(np.linspace(0.0, np.log(1000.0), half))
    phase = freqs * (t / timesteps)
    return np.concatenate([np.sin(phase), np.cos(phase)])


@dataclass
class DenoiserConfig:
    resolution: int = 16
    channels: int = 4
    hidden: int = 16
    d_k: int = 4
    d_model: int = 16
    timesteps: int = TIMESTEPS  # normalizes the timestep embedding
    use_adapters: bool = True
    adapter_attention: bool = True  # cross-plane attention inside each adapter
    seed: int = 0

    def __post_init__(self):
        for name in DENOISER_FIELDS:
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.resolution % 2:
            raise ValueError(f"resolution must be even, got {self.resolution}")
        if self.hidden % 2:
            raise ValueError(f"hidden must be even for the timestep embedding, got {self.hidden}")


def _param_specs(cfg):
    """(name, shape, zero-initialized) of every denoiser parameter, in creation order."""
    c, f, k = cfg.channels, cfg.hidden, cfg.d_k
    yield "vocab", (len(VOCABULARY), cfg.d_model), False
    yield "stem.w", (9 * c, f), False
    yield "stem.b", (f,), True
    for name in ("rb0", "rb1", "rb2"):
        yield f"{name}.c1.w", (9 * f, f), False
        yield f"{name}.c1.b", (f,), True
        yield f"{name}.c2.w", (9 * f, f), False
        yield f"{name}.c2.b", (f,), True
        yield f"{name}.t.w", (f, f), False
        yield f"{name}.t.b", (f,), True
    yield "ca.wq", (f, k), False
    yield "ca.wk", (cfg.d_model, k), False
    yield "ca.wv", (cfg.d_model, k), False
    yield "ca.wo", (k, f), True
    yield "up.w", (9 * 2 * f, f), False
    yield "up.b", (f,), True
    yield "head.w", (9 * f, c), True
    yield "head.b", (c,), True
    if cfg.use_adapters:
        for name in ("adapter0", "adapter1"):
            yield f"{name}.c1.w", (9 * f, f), False
            yield f"{name}.c1.b", (f,), True
            yield f"{name}.c2.w", (9 * f, f), True
            yield f"{name}.c2.b", (f,), True
            if cfg.adapter_attention:
                yield f"{name}.oa.wq", (f, k), False
                yield f"{name}.oa.wk", (f, k), False
                yield f"{name}.oa.wv", (f, k), False
                yield f"{name}.oa.wo", (k, f), True


class Denoiser:
    """Noise predictor over stacked triplane latents."""

    def __init__(self, cfg):
        self.cfg = cfg
        self.params = {}
        rng = np.random.default_rng(cfg.seed)
        for name, shape, zero in _param_specs(cfg):
            data = np.zeros(shape) if zero else rng.normal(scale=np.sqrt(1.0 / shape[0]), size=shape)
            self.params[name] = Tensor(data)

    # parameter access -------------------------------------------------
    def parameters(self):
        return list(self.params.values())

    def adapter_parameters(self):
        return [t for n, t in self.params.items() if n.startswith("adapter")]

    def trainable_parameters(self, freeze_backbone=False):
        return self.adapter_parameters() if freeze_backbone else self.parameters()

    # forward pieces ---------------------------------------------------
    def _conv_named(self, x, name, d):
        return conv3x3(x, d, self.params[f"{name}.w"], self.params[f"{name}.b"])

    def _resblock(self, x, name, temb, d):
        h = self._conv_named(relu(x), f"{name}.c1", d)
        tproj = affine(temb, self.params[f"{name}.t.w"], self.params[f"{name}.t.b"])  # (B, F)
        b, f = tproj.data.shape
        h = add(h, reshape(broadcast_to(reshape(tproj, (b, 1, f)), (b, 3 * d * d, f)), h.data.shape))
        h = self._conv_named(relu(h), f"{name}.c2", d)
        return add(x, h)

    def _attention_params(self, prefix):
        p = self.params
        return AttentionParams(w_q=p[f"{prefix}.wq"], w_k=p[f"{prefix}.wk"], w_v=p[f"{prefix}.wv"],
                               w_o=p[f"{prefix}.wo"], d_k=self.cfg.d_k)

    def _adapter(self, x, name, d, b):
        h = self._conv_named(relu(self._conv_named(relu(x), f"{name}.c1", d)), f"{name}.c2", d)
        x = add(x, h)
        if not self.cfg.adapter_attention:
            return x
        return stacked_orthogonal_attention(x, self._attention_params(f"{name}.oa"), d, d // 2, batch=b)

    def _text_attention(self, x, token_matrix, b):
        """Cross-attention of the (B*3*d*d, F) rows over each example's caption embedding."""
        emb = gather(self.params["vocab"], token_matrix.ravel())  # (B*L, d_model)
        return cross_attention(x, emb, self._attention_params("ca"), batch=b)

    def _forward_stacked(self, x, ts, token_matrix, b):
        """Core pass on plane-stacked features (B*3*D*D, C) -> same shape; checks every input's rows first."""
        cfg = self.cfg
        d, f = cfg.resolution, cfg.hidden
        want = (b * 3 * d * d, cfg.channels)
        if x.data.shape != want or len(ts) != b or len(token_matrix) != b:
            raise ad.ShapeError(
                f"_forward_stacked: need x {want}, {b} timesteps and {b} token rows; "
                f"got x {x.data.shape}, {len(ts)} timesteps and {len(token_matrix)} token rows"
            )
        half = d // 2
        temb = Tensor(np.stack([timestep_features(t, f, cfg.timesteps) for t in ts]))  # (B, F)

        h = self._conv_named(x, "stem", d)
        h = self._resblock(h, "rb0", temb, d)
        if cfg.use_adapters:
            h = self._adapter(h, "adapter0", d, b)
        skip = h

        hd = self._resblock(_pool(h, half), "rb1", temb, half)
        hd = self._text_attention(hd, token_matrix, b)
        if cfg.use_adapters:
            hd = self._adapter(hd, "adapter1", half, b)

        h = self._conv_named(concat([_upsample(hd, half), skip], axis=1), "up", d)
        h = self._resblock(h, "rb2", temb, d)
        return self._conv_named(relu(h), "head", d)


def with_adapters(denoiser, seed=0):
    """Copy of a backbone-only denoiser with fresh zero-initialized adapters."""
    cfg = DenoiserConfig(**{**denoiser.cfg.__dict__, "use_adapters": True, "seed": seed})
    out = Denoiser(cfg)
    for name, tensor in denoiser.params.items():
        out.params[name].data = tensor.data.copy()
    return out


# ---------------------------------------------------------------------------
# objectives, training, sampling
# ---------------------------------------------------------------------------

def epsilon_loss(denoiser, x0s, token_matrix, ts, eps, sched):
    """Noise-prediction MSE of a batch: each example's sum of its three plane MSEs, averaged over the batch.

    Example k is x0s[k] noised with eps[k] to timestep ts[k], captioned by row k of token_matrix.
    """
    x_t = stack_planes([q_sample(x0, t, e, sched) for x0, t, e in zip(x0s, ts, eps)])
    pred = denoiser._forward_stacked(x_t, ts, token_matrix, len(ts))
    # planes are co-sized, so the batch mean of sum-of-plane-means is 3x the mean over all entries
    return mul(mse(pred, stack_planes(eps)), 3.0)


@dataclass
class DiffusionTrainConfig:
    steps: int = 800
    batch: int = 4
    lr: float = 2e-3
    timesteps: int = TIMESTEPS
    beta_start: float = BETA_START
    beta_end: float = BETA_END
    freeze_backbone: bool = False
    seed: int = 0

    def __post_init__(self):
        for name in ("steps", "batch"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        if not self.lr > 0:
            raise ValueError(f"lr must be > 0, got {self.lr}")


@dataclass
class DiffusionTrainResult:
    denoiser: object
    sched: NoiseSchedule
    history: list = field(default_factory=list)
    diverged: bool = False
    adamw_rejected: int = 0  # steps AdamW rejected for a non-finite gradient


def train_denoiser(dataset, cfg, model_cfg=None, denoiser=None):
    """Train (or continue training) a denoiser on (x0, caption-token) examples.

    With freeze_backbone=True only the adapter blocks receive updates, which
    realizes the staged schedule: first train the backbone without adapters,
    then freeze it and train the attention-bearing adapters. Only the trained
    parameters require grad, and only until this returns: a frozen backbone
    builds no tape, and the returned denoiser samples without one.
    """
    if not dataset:
        raise ValueError("dataset must be non-empty")
    rng = np.random.default_rng(cfg.seed)
    sched = make_schedule(cfg.timesteps, cfg.beta_start, cfg.beta_end)
    if denoiser is None:
        d = dataset[0].x0.resolution
        c = dataset[0].x0.channels
        model_cfg = model_cfg or DenoiserConfig()
        model_cfg = DenoiserConfig(**{**model_cfg.__dict__, "resolution": d, "channels": c,
                                      "timesteps": cfg.timesteps})
        denoiser = Denoiser(model_cfg)
    if cfg.freeze_backbone and not denoiser.cfg.use_adapters:
        raise ValueError("freeze_backbone requires a denoiser with adapters")
    trainable = denoiser.trainable_parameters(cfg.freeze_backbone)
    opt = AdamW(trainable, lr=cfg.lr)
    result = DiffusionTrainResult(denoiser, sched)
    snapshot = [p.data.copy() for p in trainable]
    for p in trainable:
        p.requires_grad = True
    try:
        for step in range(1, cfg.steps + 1):
            idx = rng.integers(0, len(dataset), size=cfg.batch)
            x0s, ts, eps = [], [], []
            for i in idx:
                x0s.append(dataset[i].x0)
                ts.append(int(rng.integers(1, cfg.timesteps + 1)))
                eps.append(noise_like(dataset[i].x0, rng))
            loss = epsilon_loss(denoiser, x0s, np.stack([dataset[i].tokens for i in idx]), ts, eps, sched)
            val = float(loss.data)
            if not np.isfinite(val):
                for p, s in zip(trainable, snapshot):
                    p.data = s
                result.diverged = True
                break
            loss.backward()
            opt.step()
            opt.zero_grad()
            result.history.append(val)
            if step % 100 == 0:
                snapshot = [p.data.copy() for p in trainable]
    finally:
        # also on an exception: a passed-in denoiser must not keep building a tape
        for p in trainable:
            p.requires_grad = False
            p.grad = None
    result.adamw_rejected = opt.rejected
    return result


def ddpm_sample_many(denoiser, tokens_list, sched, rng, chunk=8):
    """Run many ancestral chains, batched through the stacked forward pass."""
    if chunk < 1:
        raise ValueError(f"ddpm_sample_many: chunk must be >= 1, got {chunk}")
    d, c = denoiser.cfg.resolution, denoiser.cfg.channels
    out = []
    for lo in range(0, len(tokens_list), chunk):
        group = tokens_list[lo:lo + chunk]
        b = len(group)
        tok = np.stack(group)
        x = rng.standard_normal((b * 3 * d * d, c))
        for t in range(sched.timesteps, 0, -1):
            eps_hat = denoiser._forward_stacked(Tensor(x), [t] * b, tok, b).data
            beta = sched.beta(t)
            ab = sched.alpha_bar(t)
            mean = (x - beta / np.sqrt(1.0 - ab) * eps_hat) / np.sqrt(1.0 - beta)
            if t > 1:
                var = beta * (1.0 - sched.alpha_bar_prev(t)) / (1.0 - ab)
                x = mean + np.sqrt(var) * rng.standard_normal(mean.shape)
            else:
                x = mean
        out.extend(unstack_planes(x, d, c))
    return out


def cross_plane_consistency(tri):
    """Mean L1 disagreement of paired occupancy max-marginals over shared axes."""
    pxy, pxz, pyz = tri.tensor.data

    def prof(plane, reduce_axis):
        return plane_marginal(plane, reduce_axis)[:, 0]

    pairs = [
        (prof(pxy, "v"), prof(pxz, "v")),  # x-marginals
        (prof(pxy, "u"), prof(pyz, "v")),  # y-marginals
        (prof(pxz, "u"), prof(pyz, "u")),  # z-marginals
    ]
    return float(np.mean([np.abs(a - b).mean() for a, b in pairs]))


# ---------------------------------------------------------------------------
# checkpoint
# ---------------------------------------------------------------------------

def save_denoiser(path, denoiser):
    cfg = denoiser.cfg
    flags = int(cfg.use_adapters) | (int(cfg.adapter_attention) << 1)
    with open(path, "wb") as f:
        write_block(f, DENOISER_MAGIC, "7I", *(getattr(cfg, name) for name in DENOISER_FIELDS), flags)
        write_named_arrays(f, PARAMS_MAGIC, {n: t.data for n, t in denoiser.params.items()})


def load_denoiser(path):
    r = Reader.from_file(path)
    *fields, flags = r.block(DENOISER_MAGIC, "7I")
    if flags > 3:
        raise CheckpointError(f"header: DNZR flags {flags:#x} set bits other than 0 and 1")
    try:
        cfg = DenoiserConfig(**dict(zip(DENOISER_FIELDS, fields)), use_adapters=bool(flags & 1),
                             adapter_attention=bool(flags & 2))
    except ValueError as exc:
        raise CheckpointError(f"header: DNZR {exc}") from None
    arrays = r.named_arrays(PARAMS_MAGIC, {name: shape for name, shape, _ in _param_specs(cfg)})
    r.end()
    denoiser = Denoiser(cfg)
    for name, tensor in denoiser.params.items():
        tensor.data = arrays[name]
    return denoiser
