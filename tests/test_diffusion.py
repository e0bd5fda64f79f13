import io
import tracemalloc

import numpy as np
import pytest

from trifield import autodiff as ad
from trifield import diffusion as df
from trifield import scenes as sc
from trifield.autodiff import Tensor
from trifield.triplane import Triplane, stack_planes


def small_dataset(n=4, d=8):
    return sc.make_toy_triplane_dataset(n, d=d, c=4, seed=3)


def small_model(d=8, **kw):
    base = dict(resolution=d, channels=4, hidden=8, d_k=4, d_model=8, timesteps=20, seed=1)
    base.update(kw)
    return df.Denoiser(df.DenoiserConfig(**base))


def test_schedule_single_step():
    sched = df.make_schedule(1, 0.5, 0.5)
    assert np.array_equal(sched.alpha_bars, [0.5])
    assert sched.alpha_bar(1) == 0.5 and sched.alpha_bar_prev(1) == 1.0


def test_schedule_hand_product():
    sched = df.make_schedule(2, 0.1, 0.2)
    assert np.allclose(sched.alpha_bars, [0.9, 0.72], atol=1e-15)


def test_schedule_strictly_decreasing():
    sched = df.make_schedule(100, 1e-4, 0.02)
    assert np.all(np.diff(sched.alpha_bars) < 0.0)


def test_schedule_validation():
    with pytest.raises(ValueError):
        df.make_schedule(0)
    with pytest.raises(ValueError):
        df.make_schedule(10, 0.2, 0.1)
    with pytest.raises(ValueError):
        df.make_schedule(10, 0.0, 0.5)


def test_q_sample_range_check():
    sched = df.make_schedule(10)
    x0 = small_dataset(1)[0].x0
    eps = df.noise_like(x0, np.random.default_rng(0))
    with pytest.raises(ValueError):
        df.q_sample(x0, 0, eps, sched)
    with pytest.raises(ValueError):
        df.q_sample(x0, 11, eps, sched)


def test_q_sample_limits():
    x0 = small_dataset(1)[0].x0
    eps = df.noise_like(x0, np.random.default_rng(0))
    no_noise = df.NoiseSchedule(1, np.array([0.0]), np.array([1.0]))
    xt = df.q_sample(x0, 1, eps, no_noise)
    assert np.array_equal(xt.tensor.data, x0.tensor.data)
    all_noise = df.NoiseSchedule(1, np.array([1.0]), np.array([0.0]))
    xt = df.q_sample(x0, 1, eps, all_noise)
    assert np.array_equal(xt.tensor.data, eps.tensor.data)


def test_q_sample_variance_preserving_monte_carlo():
    # unit-variance x0, ~1e5 scalar draws: Var(x_t) stays within 2%
    rng = np.random.default_rng(7)
    sched = df.make_schedule(50)
    d, c = 4, 2
    per = 3 * d * d * c  # 96 scalars per draw
    draws = 1100
    acc = np.empty((draws, per))
    for i in range(draws):
        x0 = Triplane(rng.standard_normal((3, d, d, c)))
        eps = df.noise_like(x0, rng)
        xt = df.q_sample(x0, 25, eps, sched)
        acc[i] = xt.tensor.data.ravel()
    assert abs(acc.var() - 1.0) < 0.02


class EchoDenoiser:
    """Test stub returning a fixed triplane regardless of input."""

    def __init__(self, out):
        self.out = out

    def _forward_stacked(self, x, ts, token_matrix, b):
        return stack_planes([self.out] * b)


def test_epsilon_loss_zero_for_perfect_stub():
    x0 = small_dataset(1)[0].x0
    eps = df.noise_like(x0, np.random.default_rng(1))
    sched = df.make_schedule(20)
    loss = df.epsilon_loss(EchoDenoiser(eps), [x0], None, [5], [eps], sched)
    assert float(loss.data) == 0.0


def test_epsilon_loss_of_zero_stub_is_noise_power():
    x0 = small_dataset(1, d=16)[0].x0
    eps = df.noise_like(x0, np.random.default_rng(2))
    zero = Triplane(np.zeros_like(x0.tensor.data))
    sched = df.make_schedule(20)
    loss = df.epsilon_loss(EchoDenoiser(zero), [x0], None, [5], [eps], sched)
    # sum over three planes of mean(eps^2), eps standard normal
    assert float(loss.data) == pytest.approx(3.0, rel=0.1)


def test_zero_init_adapters_do_not_change_outputs():
    dataset = small_dataset(1)
    bare = small_model(use_adapters=False, seed=4)
    with_ad = df.with_adapters(bare, seed=9)
    x0 = dataset[0].x0
    eps = df.noise_like(x0, np.random.default_rng(4))
    xt = stack_planes([df.q_sample(x0, 5, eps, df.make_schedule(20))])
    a = bare._forward_stacked(xt, [5], dataset[0].tokens[None], 1)
    b = with_ad._forward_stacked(xt, [5], dataset[0].tokens[None], 1)
    assert np.array_equal(a.data, b.data)


def test_training_loss_decreases():
    dataset = small_dataset(2)
    cfg = df.DiffusionTrainConfig(steps=60, batch=2, lr=3e-3, timesteps=20, seed=0)
    res = df.train_denoiser(dataset, cfg, model_cfg=df.DenoiserConfig(
        hidden=8, d_k=4, d_model=8, use_adapters=False, seed=0))
    assert not res.diverged
    assert np.mean(res.history[-10:]) < np.mean(res.history[:10])


def test_frozen_backbone_stage_leaves_backbone_bit_identical():
    dataset = small_dataset(2)
    cfg1 = df.DiffusionTrainConfig(steps=25, batch=2, lr=3e-3, timesteps=20, seed=0)
    phase1 = df.train_denoiser(dataset, cfg1, model_cfg=df.DenoiserConfig(
        hidden=8, d_k=4, d_model=8, use_adapters=False, seed=0))
    staged = df.with_adapters(phase1.denoiser, seed=2)
    before = {n: t.data.copy() for n, t in staged.params.items() if not n.startswith("adapter")}
    cfg2 = df.DiffusionTrainConfig(steps=25, batch=2, lr=3e-3, timesteps=20, seed=1, freeze_backbone=True)
    phase2 = df.train_denoiser(dataset, cfg2, denoiser=staged)
    after = phase2.denoiser.params
    for name, data in before.items():
        assert np.array_equal(after[name].data, data), name
    moved = any(np.abs(after[n].data).max() > 0 for n in after if n.startswith("adapter") and n.endswith("c2.w"))
    assert moved  # adapters actually trained


def _staged_denoiser(dataset):
    cfg = df.DiffusionTrainConfig(steps=3, batch=2, lr=3e-3, timesteps=20, seed=0)
    phase1 = df.train_denoiser(dataset, cfg, model_cfg=df.DenoiserConfig(
        hidden=8, d_k=4, d_model=8, use_adapters=False, seed=0))
    return df.with_adapters(phase1.denoiser, seed=2)


def test_denoisers_outside_training_build_no_tape(tmp_path, monkeypatch):
    # fails at the parent, where every denoiser parameter always required grad
    dataset = small_dataset(2)
    fresh = small_model(seed=2)
    path = str(tmp_path / "d.ckpt")
    df.save_denoiser(path, fresh)
    loaded = df.load_denoiser(path)
    trained = df.train_denoiser(dataset, df.DiffusionTrainConfig(steps=3, batch=2, timesteps=20),
                                denoiser=small_model(seed=3)).denoiser
    staged = df.train_denoiser(dataset, df.DiffusionTrainConfig(steps=3, batch=2, timesteps=20,
                                                                freeze_backbone=True),
                               denoiser=_staged_denoiser(dataset)).denoiser
    for den in (fresh, loaded, trained, staged):
        assert not any(t.requires_grad for t in den.parameters())
        outs = []
        forward = den._forward_stacked

        def recording(*args, forward=forward, outs=outs):
            outs.append(forward(*args))
            return outs[-1]

        monkeypatch.setattr(den, "_forward_stacked", recording)
        df.ddpm_sample_many(den, [dataset[0].tokens, dataset[1].tokens], df.make_schedule(3),
                            np.random.default_rng(0))
        assert len(outs) == 3
        for out in outs:
            assert not out.requires_grad and out._parents == () and out._backward is None


def test_frozen_backbone_never_gets_a_grad(monkeypatch):
    # fails at the parent, where backward filled (and never cleared) every backbone .grad
    from trifield.training import AdamW

    dataset = small_dataset(2)
    staged = _staged_denoiser(dataset)
    adapters = sorted(n for n in staged.params if n.startswith("adapter"))
    seen = []
    step = AdamW.step

    def checking_step(opt):
        seen.append(sorted(n for n, t in staged.params.items() if t.grad is not None))
        assert sorted(n for n, t in staged.params.items() if t.requires_grad) == adapters
        return step(opt)

    monkeypatch.setattr(AdamW, "step", checking_step)
    cfg = df.DiffusionTrainConfig(steps=4, batch=2, lr=3e-3, timesteps=20, seed=1, freeze_backbone=True)
    df.train_denoiser(dataset, cfg, denoiser=staged)
    assert seen == [adapters] * 4
    assert all(t.grad is None for t in staged.parameters())


def test_frozen_backbone_leaves_adapter_gradients_bit_identical():
    """Pruning the no-grad backbone from the tape keeps the order in which
    every adapter gradient is accumulated."""
    den = small_model(seed=5)
    rng = np.random.default_rng(7)
    for t in den.params.values():  # no zero-initialized block: every path carries gradient
        if not t.data.any():
            t.data = rng.normal(scale=0.3, size=t.data.shape)
    dataset = small_dataset(2)
    b, d, c = 2, den.cfg.resolution, den.cfg.channels
    x = rng.normal(size=(b * 3 * d * d, c))
    target = rng.normal(size=x.shape)
    tokens = np.stack([dataset[i].tokens for i in range(b)])

    def adapter_grads(with_grad):
        for t in den.parameters():
            t.requires_grad = any(t is w for w in with_grad)
            t.grad = None
        diff = ad.sub(den._forward_stacked(Tensor(x), [3, 11], tokens, b), Tensor(target))
        ad.tmean(ad.mul(diff, diff)).backward()
        return {n: t.grad for n, t in den.params.items() if n.startswith("adapter")}

    frozen = adapter_grads(den.adapter_parameters())
    full = adapter_grads(den.parameters())
    assert frozen.keys() == full.keys()
    for name in frozen:
        assert frozen[name] is not None and np.abs(frozen[name]).max() > 0, name
        assert np.array_equal(frozen[name], full[name]), name


def test_freeze_requires_adapters():
    dataset = small_dataset(1)
    cfg = df.DiffusionTrainConfig(steps=5, freeze_backbone=True, timesteps=20)
    with pytest.raises(ValueError):
        df.train_denoiser(dataset, cfg, model_cfg=df.DenoiserConfig(
            hidden=8, d_k=4, d_model=8, use_adapters=False))


def test_train_rejects_empty_dataset():
    with pytest.raises(ValueError):
        df.train_denoiser([], df.DiffusionTrainConfig())


def test_single_step_chain_matches_closed_form():
    dataset = small_dataset(1)
    sched = df.make_schedule(1, 0.3, 0.3)  # beta = 0.3, so alpha_bar_1 = 0.7
    const = Triplane(np.full((3, 8, 8, 4), 0.25))
    den = EchoDenoiser(const)
    den.cfg = small_model().cfg  # resolution/channels for the sampler
    (out,) = df.ddpm_sample_many(den, [dataset[0].tokens], sched, np.random.default_rng(5))
    # regenerate the same initial noise stream
    r2 = np.random.default_rng(5)
    x1 = list(r2.standard_normal((3, 8, 8, 4)))
    beta, ab = 0.3, 0.7
    want = [(p - beta / np.sqrt(1 - ab) * 0.25) / np.sqrt(1 - beta) for p in x1]
    for o, w in zip(out.tensor.data, want):
        assert np.allclose(o, w, atol=1e-12)


class BayesDenoiser:
    """Test stub: the Bayes-optimal noise predictor for data x0 ~ N(mu, s^2 I)."""

    def __init__(self, sched, mu, s, d=8, c=4):
        self.sched, self.mu, self.s2 = sched, mu, s * s
        self.cfg = df.DenoiserConfig(resolution=d, channels=c, timesteps=sched.timesteps)

    def _eps(self, x, t):
        ab = self.sched.alpha_bar(t)
        return np.sqrt(1.0 - ab) * (x - np.sqrt(ab) * self.mu) / (ab * self.s2 + 1.0 - ab)

    def _forward_stacked(self, x, ts, token_matrix, b):
        return Tensor(self._eps(x.data, ts[0]))


@pytest.mark.parametrize("timesteps", [1, 2, 10, 100])
def test_whole_chain_matches_closed_form_moments(timesteps):
    # with the Bayes-optimal predictor each ancestral step is affine in x_t plus
    # Gaussian noise, so every entry's mean and variance follow a scalar recursion
    # from (0, 1) at t = T
    mu, s, chains = 0.3, 0.5, 128
    sched = df.make_schedule(timesteps)
    den = BayesDenoiser(sched, mu, s)
    out = df.ddpm_sample_many(den, [np.zeros(3, dtype=np.int64)] * chains, sched, np.random.default_rng(17), chunk=8)
    x = np.concatenate([tri.tensor.data.ravel() for tri in out])
    mean, var = 0.0, 1.0
    for t in range(timesteps, 0, -1):
        beta, ab = sched.beta(t), sched.alpha_bar(t)
        c = np.sqrt(1.0 - ab) / (ab * s * s + 1.0 - ab)  # eps_hat = c * (x - sqrt(ab) * mu)
        gain = (1.0 - beta * c / np.sqrt(1.0 - ab)) / np.sqrt(1.0 - beta)
        shift = beta * c * np.sqrt(ab) * mu / (np.sqrt(1.0 - ab) * np.sqrt(1.0 - beta))
        noise = beta * (1.0 - sched.alpha_bar_prev(t)) / (1.0 - ab) if t > 1 else 0.0
        mean, var = gain * mean + shift, gain * gain * var + noise
    n = x.size
    assert n == chains * 3 * 8 * 8 * 4
    # entries are independent Gaussians: bound each moment by 4 standard errors
    assert abs(x.mean() - mean) < 4.0 * np.sqrt(var / n), (x.mean(), mean)
    assert abs(x.var(ddof=1) - var) < 4.0 * var * np.sqrt(2.0 / (n - 1)), (x.var(ddof=1), var)


@pytest.mark.parametrize("t", [1, 10, 50, 100])
def test_epsilon_loss_meets_its_closed_form_floor(t):
    # for x0 ~ N(mu, s^2 I) the Bayes-optimal predictor leaves eps_hat - eps ~ N(0, v) per entry, with
    # v = Var(eps | x_t) = ab_t s^2 / (ab_t s^2 + 1 - ab_t); (1 - ab_t) s^2 / (ab_t s^2 + 1 - ab_t) is
    # Var(x0 | x_t), the floor of an x0 objective, which ab_t / (1 - ab_t) scales to v
    mu, s, draws = 0.3, 0.5, 64
    sched = df.make_schedule(100)
    den = BayesDenoiser(sched, mu, s)
    rng = np.random.default_rng(23)
    x0s, eps = [], []
    for _ in range(draws):
        x0s.append(Triplane(mu + s * rng.standard_normal((3, 8, 8, 4))))
        eps.append(df.noise_like(x0s[-1], rng))
    loss = df.epsilon_loss(den, x0s, np.zeros((draws, 3), dtype=np.int64), [t] * draws, eps, sched)
    ab = sched.alpha_bar(t)
    floor = ab * s * s / (ab * s * s + 1.0 - ab)
    n = draws * 3 * 8 * 8 * 4
    per_entry = float(loss.data) / 3.0  # the loss sums three per-plane means
    # a squared N(0, v) entry has variance 2 v^2: bound the mean by 4 standard errors
    assert abs(per_entry - floor) < 4.0 * floor * np.sqrt(2.0 / n), (per_entry, floor)


def test_training_holds_one_tape_at_a_time():
    # the parent kept the walked tape alive while the next step built its own:
    # 15.4 MB at 5 steps against 9.4 MB at 1
    dataset = small_dataset(4)

    def peak(steps):
        tracemalloc.start()
        try:
            df.train_denoiser(dataset, df.DiffusionTrainConfig(steps=steps, batch=2, timesteps=20))
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    one, five = peak(1), peak(5)
    assert five < 1.1 * one, f"5 steps peak at {five / 2 ** 20:.2f} MB, 1 step at {one / 2 ** 20:.2f} MB"


def test_sampling_deterministic_under_seed():
    dataset = small_dataset(2)
    den = small_model(seed=6)
    sched = df.make_schedule(20)
    (a,) = df.ddpm_sample_many(den, [dataset[0].tokens], sched, np.random.default_rng(11))
    (b,) = df.ddpm_sample_many(den, [dataset[0].tokens], sched, np.random.default_rng(11))
    assert np.array_equal(a.tensor.data, b.tensor.data)
    toks = [dataset[i % 2].tokens for i in range(4)]
    many1 = df.ddpm_sample_many(den, toks, sched, np.random.default_rng(12), chunk=2)
    many2 = df.ddpm_sample_many(den, toks, sched, np.random.default_rng(12), chunk=2)
    for ta, tb in zip(many1, many2):
        assert np.array_equal(ta.tensor.data, tb.tensor.data)


def test_consistency_zero_for_exact_projections():
    for ex in small_dataset(3):
        assert df.cross_plane_consistency(ex.x0) == 0.0


def test_consistency_of_shifted_box_matches_enumeration():
    d = 8
    ex = small_dataset(1, d=d)[0]
    planes = ex.x0.tensor.data.copy()
    planes[0] = np.roll(planes[0], 1, axis=1)  # shift P_xy one texel along x (u axis)
    tri = Triplane(planes)
    got = df.cross_plane_consistency(tri)

    # direct enumeration oracle over the three axis pairings
    def prof(plane, reduce_axis):
        ax = 1 if reduce_axis == "u" else 0
        return plane[:, :, 0].max(axis=ax)

    pxy, pxz, pyz = planes
    expected = np.mean([
        np.abs(prof(pxy, "v") - prof(pxz, "v")).mean(),
        np.abs(prof(pxy, "u") - prof(pyz, "v")).mean(),
        np.abs(prof(pxz, "u") - prof(pyz, "u")).mean(),
    ])
    assert got == pytest.approx(expected, abs=1e-15)
    assert got > 0.0


def test_consistency_of_random_planes_bounded_below():
    # occupancy max-marginals of a random plane are iid max-of-D uniforms with
    # cdf x^D; E|A - B| = 2 (1/(D+1) - 1/(2D+1)). Monte-Carlo double check.
    d = 8
    analytic = 2.0 * (1.0 / (d + 1) - 1.0 / (2 * d + 1))
    rng = np.random.default_rng(13)
    mc = np.abs(rng.uniform(size=(200_000, d)).max(axis=1)
                - rng.uniform(size=(200_000, d)).max(axis=1)).mean()
    assert abs(mc - analytic) / analytic < 0.05

    scores = []
    for _ in range(60):
        tri = Triplane(rng.uniform(size=(3, d, d, 4)))
        scores.append(df.cross_plane_consistency(tri))
    assert np.mean(scores) > 0.8 * analytic


def test_denoiser_checkpoint_round_trip():
    den = small_model(seed=8)
    buf = io.BytesIO()
    # save/load via path-based helpers
    import tempfile, os

    with tempfile.TemporaryDirectory() as td:
        path = os.path.join(td, "d.ckpt")
        df.save_denoiser(path, den)
        back = df.load_denoiser(path)
    for field in ("resolution", "channels", "hidden", "d_k", "d_model", "timesteps", "use_adapters"):
        assert getattr(back.cfg, field) == getattr(den.cfg, field)
    for name, t in den.params.items():
        f32 = t.data.astype("<f4").astype(np.float64)
        assert np.array_equal(back.params[name].data, f32), name
    _ = buf


def test_denoiser_checkpoint_magic_error():
    import tempfile, os

    with tempfile.TemporaryDirectory() as td:
        path = os.path.join(td, "bad.ckpt")
        with open(path, "wb") as f:
            f.write(b"XXXX" + b"\x00" * 30)
        with pytest.raises(df.CheckpointError, match="magic"):
            df.load_denoiser(path)
        with open(path, "wb") as f:
            f.write(b"DNZR\x01\x00")  # magic and version, then nothing
        with pytest.raises(df.CheckpointError, match="header"):
            df.load_denoiser(path)


def test_text_attention_is_cross_attention_over_caption_rows():
    from trifield.attention import cross_attention

    den = small_model(seed=3)
    rng = np.random.default_rng(8)
    for name in ("ca.wo", "ca.wv"):  # make the attention path non-trivial
        den.params[name].data = rng.normal(size=den.params[name].data.shape)
    d, b = 4, 2
    tokens = np.stack([small_dataset(2)[i].tokens for i in range(2)])
    x = Tensor(rng.normal(size=(b * 3 * d * d, den.cfg.hidden)))
    got = den._text_attention(x, tokens, b)
    emb = Tensor(den.params["vocab"].data[tokens.ravel()])
    want = cross_attention(x, emb, den._attention_params("ca"), batch=b)
    assert np.array_equal(got.data, want.data)


def test_train_clears_grad_flags_when_an_exception_escapes(monkeypatch):
    # fails at the parent: the passed-in denoiser kept requiring grad and
    # building a tape after an exception escaped the training loop
    from trifield.training import AdamW

    dataset = small_dataset(2)
    den = small_model(seed=4)
    step = AdamW.step

    def failing_step(opt):
        if opt.step_count == 1:
            raise RuntimeError("injected failure on step 2")
        return step(opt)

    monkeypatch.setattr(AdamW, "step", failing_step)
    with pytest.raises(RuntimeError, match="injected"):
        df.train_denoiser(dataset, df.DiffusionTrainConfig(steps=5, batch=2, timesteps=20), denoiser=den)
    for t in den.parameters():
        assert not t.requires_grad and t.grad is None
    out = den._forward_stacked(Tensor(np.zeros((3 * 8 * 8, 4))), [1], dataset[0].tokens[None], 1)
    assert out._parents == () and out._backward is None


def test_train_and_sample_reject_an_empty_batch():
    dataset = small_dataset(1)
    with pytest.raises(ValueError, match="batch"):
        df.train_denoiser(dataset, df.DiffusionTrainConfig(steps=1, batch=0, timesteps=20))
    with pytest.raises(ValueError, match="chunk"):
        df.ddpm_sample_many(small_model(), [dataset[0].tokens], df.make_schedule(3), np.random.default_rng(0), chunk=0)


def test_flipped_resolution_checkpoint_fails_fast(tmp_path):
    # hangs at the parent: the first pass built 3x3 indices for 65296 x 65296 grids in a Python loop
    path = tmp_path / "d16.ckpt"
    df.save_denoiser(str(path), df.Denoiser(df.DenoiserConfig()))
    raw = bytearray(path.read_bytes())
    raw[7] ^= 0xFF  # resolution 16 -> 65296; no parameter shape depends on it
    path.write_bytes(bytes(raw))
    den = df.load_denoiser(str(path))
    assert den.cfg.resolution == 65296
    tokens = small_dataset(1, d=16)[0].tokens[None]
    with pytest.raises(ad.ShapeError, match="_forward_stacked"):
        den._forward_stacked(Tensor(np.zeros((3 * 16 * 16, 4))), [1], tokens, 1)


@pytest.mark.parametrize("rows, channels, n_ts, n_tok", [
    (3 * 8 * 8, 4, 1, 1),  # a resolution-8 triplane: twelve whole 4x4 grids
    (3 * 4 * 4, 3, 1, 1),
    (3 * 4 * 4, 4, 2, 1),
    (3 * 4 * 4, 4, 1, 2),
])
def test_forward_stacked_rejects_mismatched_inputs_at_entry(rows, channels, n_ts, n_tok):
    # the resolution-8 case passed the conv's whole-grid check and ended in a numpy reshape error
    den = small_model(d=4)
    tokens = np.stack([small_dataset(1)[0].tokens] * n_tok)
    with pytest.raises(ad.ShapeError, match="_forward_stacked"):
        den._forward_stacked(Tensor(np.zeros((rows, channels))), [1] * n_ts, tokens, 1)


# nested-loop references for the denoiser's spatial ops, one output row at a time

def _conv_rows_reference(g, d):
    """Source row of every clamp-to-edge 3x3 tap of g stacked d x d grids, taps (dv, du) row-major."""
    rows = []
    for p in range(g):
        for v in range(d):
            for u in range(d):
                for dv in (-1, 0, 1):
                    for du in (-1, 0, 1):
                        rows.append(p * d * d + min(max(v + dv, 0), d - 1) * d + min(max(u + du, 0), d - 1))
    return np.array(rows)


def _pool_reference(x, g, half):
    d = 2 * half
    out = []
    for p in range(g):
        for v in range(half):
            for u in range(half):
                a, b, c, e = (x[p * d * d + (2 * v + dv) * d + 2 * u + du] for dv in (0, 1) for du in (0, 1))
                out.append((a + b + c + e) / 4)
    return np.array(out)


def _upsample_reference(x, g, half):
    d = 2 * half
    return np.array([x[p * half * half + (v // 2) * half + u // 2]
                     for p in range(g) for v in range(d) for u in range(d)])


@pytest.mark.parametrize("g", [1, 3, 6])
@pytest.mark.parametrize("d", [1, 2, 4, 8])
def test_spatial_ops_match_nested_loop_references(d, g):
    # d = 1 is the half-resolution level of a resolution-2 denoiser
    rng = np.random.default_rng(100 * d + g)
    c, f = 3, 5
    x = rng.normal(size=(g * d * d, c))
    rows = _conv_rows_reference(g, d)
    cols = x[rows].reshape(g * d * d, 9 * c)
    assert np.array_equal(ad._conv_columns(x, d), cols)
    w, b = rng.normal(size=(9 * c, f)), rng.normal(size=f)
    assert np.array_equal(ad.conv3x3(Tensor(x), d, Tensor(w), Tensor(b)).data, cols @ w + b)
    fine = rng.normal(size=(g * 4 * d * d, c))
    assert np.array_equal(df._pool(Tensor(fine), d).data, _pool_reference(fine, g, d))
    assert np.array_equal(df._upsample(Tensor(x), d).data, _upsample_reference(x, g, d))

    probe = rng.normal(size=(g * d * d, 9 * c))
    xg = Tensor(x, requires_grad=True)
    ad.tsum(ad.mul(ad.gather(xg, rows), Tensor(probe.reshape(-1, c)))).backward()
    assert np.abs(ad._conv_fold(probe, d) - xg.grad).max() <= 1e-12 * max(1.0, np.abs(xg.grad).max())


def test_conv3x3_rejects_rows_that_are_not_whole_grids():
    for shape, d in (((5, 2), 2), ((8,), 2), ((4, 2), 0)):
        with pytest.raises(ad.ShapeError, match="conv3x3"):
            ad.conv3x3(Tensor(np.zeros(shape)), d, Tensor(np.zeros((18, 3))), Tensor(np.zeros(3)))
    for w, b in (((17, 3), (3,)), ((18,), (3,)), ((18, 3), (2,))):  # weight rows are 9 taps of 2 channels
        with pytest.raises(ad.ShapeError, match="conv3x3"):
            ad.conv3x3(Tensor(np.zeros((8, 2))), 2, Tensor(np.zeros(w)), Tensor(np.zeros(b)))


@pytest.mark.parametrize("d", [1, 2, 4])
def test_conv_columns_are_an_owned_writeable_array(d):
    # at d = 1 a reshape of the window view would be a read-only view of the private padded buffer
    out = ad._conv_columns(np.ones((3 * d * d, 2)), d)
    assert out.flags.writeable and out.flags.owndata and out.flags.c_contiguous


def test_a_training_forward_keeps_no_conv_columns():
    # each conv kept its (rows, 9*C) im2col columns on the tape, half the tape of a training step;
    # a conv node now keeps its input and rebuilds the columns in its backward
    den = small_model(d=4, seed=12)
    for t in den.parameters():
        t.requires_grad = True
    rng = np.random.default_rng(22)
    b, d, c, f = 2, 4, den.cfg.channels, den.cfg.hidden
    tokens = np.stack([ex.tokens for ex in small_dataset(2)])
    out = den._forward_stacked(Tensor(rng.normal(size=(b * 3 * d * d, c))), [3, 17], tokens, b)
    widths = {9 * c, 9 * f, 18 * f}  # the stem's, most convs' and the up conv's columns
    held = []
    for node in ad.topo_order(out):
        held.append(node.data)
        cells = node._backward.__closure__ if node._backward is not None else None
        held += [cell.cell_contents for cell in cells or () if isinstance(cell.cell_contents, np.ndarray)]
    assert [a.shape for a in held if a.ndim == 2 and a.shape[1] in widths] == []
    assert sum(node._op == "conv3x3" for node in ad.topo_order(out)) == 13


def test_no_conv_builds_the_columns_of_more_than_one_block(monkeypatch):
    # at the benchmark's shapes a batch-8 sampling pass built (6144, 288) up-conv
    # columns, 13.5 MB and most of the pass's peak memory
    rows, columns = [], ad._conv_columns

    def recording(x, d):
        rows.append(len(x))
        return columns(x, d)

    monkeypatch.setattr(ad, "_conv_columns", recording)
    den = df.Denoiser(df.DenoiserConfig(seed=5))
    assert (den.cfg.resolution, den.cfg.hidden) == (16, 16)
    dataset = sc.make_toy_triplane_dataset(8, d=16, c=4, seed=5)
    df.ddpm_sample_many(den, [ex.tokens for ex in dataset], df.make_schedule(1), np.random.default_rng(5), chunk=8)
    sampled = len(rows)
    df.train_denoiser(dataset, df.DiffusionTrainConfig(steps=1, batch=4, seed=5), denoiser=den)
    assert sampled and len(rows) > sampled
    assert max(rows) <= ad._CONV_BLOCK_ROWS


def test_whole_denoiser_pass_grad_checks():
    den = small_model(d=4, seed=12)
    assert den.cfg.use_adapters and den.cfg.adapter_attention
    rng = np.random.default_rng(21)
    for t in den.params.values():  # no zero-initialized block: every path carries gradient
        if not t.data.any():
            t.data = rng.normal(scale=0.3, size=t.data.shape)
    b, d, c = 2, 4, den.cfg.channels
    x = rng.normal(size=(b * 3 * d * d, c))
    probe = Tensor(rng.normal(size=x.shape))
    tokens = np.stack([ex.tokens for ex in small_dataset(2)])

    def loss(inp):
        return ad.tsum(ad.mul(den._forward_stacked(inp, [3, 17], tokens, b), probe))

    assert ad.grad_check(loss, Tensor(x.copy())) < 1e-6
    w = den.params["rb1.c1.w"]

    def loss_w(wt):
        den.params["rb1.c1.w"] = wt
        try:
            return loss(Tensor(x))
        finally:
            den.params["rb1.c1.w"] = w

    assert ad.grad_check(loss_w, Tensor(w.data.copy())) < 1e-6
