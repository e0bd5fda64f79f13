"""trifield benchmark: one closed-loop workload per process, end-to-end or traced.

    python3 perfbench/run.py --workload fit_cube --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 15 --trace 1

Run from the root of a trifield checkout; the program is imported from its
``src/``. ``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the
per-layer metrics and the tracing overhead. The last line of standard output
is one JSON object: ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import time

T0 = time.perf_counter()  # process start, before numpy and trifield are imported

import argparse
import ctypes
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from collections import defaultdict

from tracing import Tracer
from workloads import WORKLOADS, BenchStop

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".bench_out")
# set-ups per run: this process plus fresh set-up processes. A cheap set-up is
# dominated by imports and is noisier, so it is sampled more often.
SETUP_SAMPLES = {"fit_cube": 3, "render_view": 5, "denoiser_train": 7, "denoiser_sample": 7}
MB = float(2 ** 20)

END_TO_END = (("setup_s", "s"), ("ops_per_s", "1/s"), ("op_ms_p50", "ms"), ("peak_rss_mb", "MB"))

# autodiff op tags reported one by one; every other tag is printed but not in the JSON
OP_TAGS = ("add", "sub", "mul", "matmul", "concat", "reshape", "broadcast_to", "narrow", "gather", "exp",
           "softplus", "sigmoid", "relu", "clip", "scale_rows", "add_rowvec", "softmax", "sum", "mean", "cumsum")

PER_LAYER = (
    ("autodiff.backward_ms", "ms"), ("autodiff.nodes", "count"), ("autodiff.closures", "count"),
    ("autodiff.tape_mb", "MB"),
    *((f"autodiff.{tag}.{m}", u) for tag in OP_TAGS
      for m, u in (("calls", "count"), ("fwd_ms", "ms"), ("bwd_ms", "ms"), ("out_mb", "MB"))),
    ("triplane.sample_fwd_ms", "ms"), ("triplane.sample_bwd_ms", "ms"), ("triplane.points", "count"),
    ("triplane.clamped", "count"),
    ("render.heads_fwd_ms", "ms"), ("render.heads_bwd_ms", "ms"), ("render.integrate_fwd_ms", "ms"),
    ("render.integrate_bwd_ms", "ms"), ("render.rays", "count"), ("render.weight_sum_max", "ratio"),
    ("attention.oa_fwd_ms", "ms"), ("attention.oa_bwd_ms", "ms"), ("attention.oa_key_rows", "count"),
    ("attention.index_cache_entries", "count"),
    ("diffusion.denoiser_fwd_ms", "ms"), ("diffusion.self_fwd_ms", "ms"), ("diffusion.self_bwd_ms", "ms"),
    ("diffusion.text_fwd_ms", "ms"), ("diffusion.text_bwd_ms", "ms"), ("diffusion.sampler_ms", "ms"),
    ("diffusion.index_cache_entries", "count"),
    ("training.loss_ms", "ms"), ("training.adamw_ms", "ms"), ("training.adamw_accept_ratio", "ratio"),
    ("scenes.oracle_ms", "ms"), ("scenes.dataset_ms", "ms"),
    ("checkpoint.load_ms", "ms"), ("checkpoint.bytes", "count"),
    ("trace.op_ms_p50", "ms"), ("trace.untraced_op_ms_p50", "ms"), ("trace.overhead_pct", "%"),
)

# boundaries that must see calls on each workload, in set-up or in the timed phase
EXPECTED = {
    "fit_cube": ("scenes.oracle", "render.rays", "render.heads", "triplane.sample", "render.integrate",
                 "autodiff.backward", "training.adamw"),
    "render_view": ("checkpoint.load", "render.view", "render.rays", "render.heads", "triplane.sample",
                    "render.integrate"),
    "denoiser_train": ("scenes.dataset", "diffusion.denoiser", "attention.oa", "diffusion.text",
                       "autodiff.backward", "training.adamw"),
    "denoiser_sample": ("checkpoint.load", "scenes.dataset", "diffusion.denoiser", "attention.oa",
                        "diffusion.text"),
}


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # ru_maxrss is KiB on Linux


def minor_faults():
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


class Record:
    """Append-only sequence whose storage is allocated once, in set-up.

    A list grown one op at a time is reallocated on the heap now and then,
    and that moves the program's own heap between states whose steps differ
    by ~25% (README.md, "Spread"). Recording into preallocated slots does not.
    """

    def __init__(self, capacity=1 << 16):
        self._buf = [0.0] * capacity
        self._n = 0

    def append(self, value):
        if self._n == len(self._buf):
            self._buf.extend(self._buf)
        self._buf[self._n] = value
        self._n += 1

    def values(self):
        return self._buf[:self._n]

    def __len__(self):
        return self._n

    def __iter__(self):
        return iter(self.values())


class SetupDone(Exception):
    """Raised at the end of the warm-up op in a set-up probe process."""


class Run:
    """Op clock, failure counts and per-op trace accumulation for one workload run."""

    def __init__(self, workload, seed, seconds, trace, setup_probe):
        self.workload, self.seed, self.seconds = workload, seed, seconds
        self.trace, self.setup_probe = trace, setup_probe
        self.out_dir = OUT_DIR
        self.tracer = Tracer()
        self.phase = "setup"
        self.lat, self.traced, self.faults = Record(), Record(), Record()
        self.last_faults = 0
        self.failed_ops = 0
        self.check_failures = []
        self.errors = []
        self.notes = []
        self.losses = Record()
        self.op_ok = True
        self.totals = defaultdict(float)
        self.setup_acc = {}
        self.setup_end = self.t_timed = self.t_end = self.last_end = None
        self.rss_mb = None
        self.denoisers = {}
        self.ckpt_bytes = 0

    # called by workload hooks -------------------------------------------
    def fail(self, msg):
        if self.phase == "checks":
            self.check_failed(msg)
            return
        self.op_ok = False
        if len(self.errors) < 5:
            self.errors.append(msg)

    def check_failed(self, msg):
        self.check_failures.append(msg)

    def note(self, msg):
        self.notes.append(msg)

    def op_end(self):
        """Close the current op; the first op is the warm-up that ends set-up."""
        now = time.perf_counter()
        tracer = self.tracer
        if self.phase == "setup":
            self.setup_end = now
            if not self.op_ok:
                self.check_failed(f"warm-up op failed: {self.errors}")
            if self.setup_probe:
                raise SetupDone
            self.setup_acc = tracer.take()
            tracer.ops.clear()
            self.phase, self.t_timed = "timed", now
        elif self.phase == "timed":
            self.lat.append(now - self.last_end)
            self.traced.append(tracer.active)
            faults = minor_faults()
            self.faults.append(faults - self.last_faults)
            self.failed_ops += not self.op_ok
            acc = tracer.take()
            if tracer.active:
                for k, v in acc.items():
                    if k == "render.weight_sum_max":
                        self.totals[k] = max(self.totals[k], v)
                    else:
                        self.totals[k] += v
            # a traced run needs one untraced op to measure its overhead against
            if now - self.t_timed >= self.seconds and len(self.lat) >= 1 + 2 * self.trace:
                self.phase, self.t_end = "checks", now
                self.rss_mb = peak_rss_mb()
                tracer.set_active(False)
                raise BenchStop
            if self.trace:
                # traced and untraced ops alternate in pairs: fit steps alternate slow and
                # fast on their own, which a period of two would fold into the overhead
                tracer.set_active(len(self.lat) // 2 % 2 == 0)
        else:
            return
        self.op_ok = True
        self.last_end = now
        self.last_faults = minor_faults()
        tracer.op += 1

    def stop_failed(self, msg):
        """The current op failed and the workload cannot go on: count it as attempted and
        failed, and end the timed phase. In set-up there is no op to count, so it raises."""
        if self.phase != "timed":
            raise RuntimeError(f"{msg} (in {self.phase})")
        now = time.perf_counter()
        self.lat.append(now - self.last_end)
        self.traced.append(self.tracer.active)
        self.faults.append(minor_faults() - self.last_faults)
        self.failed_ops += 1
        self.errors.append(msg)
        self.phase, self.t_end = "checks", now
        self.rss_mb = peak_rss_mb()
        self.tracer.set_active(False)

    # results ---------------------------------------------------------------
    def failed(self):
        return min(len(self.lat), self.failed_ops + len(self.check_failures))

    def end_to_end(self, setup_samples):
        ms = [x * 1e3 for x in self.lat]
        return {
            "setup_s": statistics.median(setup_samples),
            "ops_per_s": len(self.lat) / (self.t_end - self.t_timed),
            "op_ms_p50": statistics.median(ms),
            "peak_rss_mb": self.rss_mb,
        }

    def per_layer(self):
        from trifield import attention

        t = self.totals
        traced_ms = [x * 1e3 for x, on in zip(self.lat, self.traced) if on]
        plain_ms = [x * 1e3 for x, on in zip(self.lat, self.traced) if not on]
        n = len(traced_ms)
        out = {
            "autodiff.backward_ms": t["autodiff.backward.total_ms"] / n,
            "autodiff.nodes": t["autodiff.nodes"] / n,
            "autodiff.closures": t["autodiff.closures"] / n,
            "autodiff.tape_mb": t["autodiff.tape_bytes"] / MB / n,
        }
        for tag in sorted(set(OP_TAGS) | set(self.tracer.ops)):
            st = self.tracer.ops.get(tag)
            out[f"autodiff.{tag}.calls"] = st.calls / n if st else 0.0
            out[f"autodiff.{tag}.fwd_ms"] = st.fwd * 1e3 / n if st else 0.0
            out[f"autodiff.{tag}.bwd_ms"] = st.bwd * 1e3 / n if st else 0.0
            out[f"autodiff.{tag}.out_mb"] = st.out_bytes / MB / n if st else 0.0
        steps = t["training.adamw_steps"]
        oracle_calls = self.tracer.calls["scenes.oracle"]
        denoiser_fwd = t["diffusion.denoiser.total_ms"] / n
        out.update({
            "triplane.sample_fwd_ms": t["triplane.sample.total_ms"] / n,
            "triplane.sample_bwd_ms": t["triplane.sample_bwd_ms"] / n,
            "triplane.points": t["triplane.points"] / n,
            "triplane.clamped": t["triplane.clamped"] / n,
            "render.heads_fwd_ms": t["render.heads.self_ms"] / n,
            "render.heads_bwd_ms": t["render.heads_bwd_ms"] / n,
            "render.integrate_fwd_ms": t["render.integrate.total_ms"] / n,
            "render.integrate_bwd_ms": t["render.integrate_bwd_ms"] / n,
            "render.rays": t["render.rays"] / n,
            "render.weight_sum_max": t["render.weight_sum_max"],
            "attention.oa_fwd_ms": t["attention.oa.total_ms"] / n,
            "attention.oa_bwd_ms": t["attention.oa_bwd_ms"] / n,
            "attention.oa_key_rows": t["attention.oa_key_rows"] / n,
            # private caches: a later design without them has zero entries
            "attention.index_cache_entries": float(sum(len(getattr(attention, name, ()))
                                                       for name in ("_STACKED_IDX_CACHE", "_KEY_MATRIX_CACHE"))),
            "diffusion.denoiser_fwd_ms": denoiser_fwd,
            "diffusion.self_fwd_ms": t["diffusion.denoiser.self_ms"] / n,
            "diffusion.self_bwd_ms": t["diffusion.self_bwd_ms"] / n,
            "diffusion.text_fwd_ms": t["diffusion.text.total_ms"] / n,
            "diffusion.text_bwd_ms": t["diffusion.text_bwd_ms"] / n,
            "diffusion.sampler_ms": (statistics.mean(traced_ms) - denoiser_fwd
                                     if self.workload == "denoiser_sample" else 0.0),
            "diffusion.index_cache_entries": float(sum(len(getattr(d, "_idx_cache", ()))
                                                       for d in self.denoisers.values())),
            "training.loss_ms": t["training.loss_ms"] / n,
            "training.adamw_ms": t["training.adamw.total_ms"] / n,
            "training.adamw_accept_ratio": t["training.adamw_accepted"] / steps if steps else 0.0,
            "scenes.oracle_ms": self.setup_acc.get("scenes.oracle.total_ms", 0.0) / max(oracle_calls, 1),
            "scenes.dataset_ms": self.setup_acc.get("scenes.dataset.total_ms", 0.0),
            "checkpoint.load_ms": self.setup_acc.get("checkpoint.load.total_ms", 0.0),
            "checkpoint.bytes": float(self.ckpt_bytes),
        })
        p_on = statistics.median(traced_ms)
        p_off = statistics.median(plain_ms) if plain_ms else p_on  # only when an early op raised
        out["trace.op_ms_p50"] = p_on
        out["trace.untraced_op_ms_p50"] = p_off
        out["trace.overhead_pct"] = (p_on / p_off - 1.0) * 100.0
        return out


def high_percentile(values):
    """Highest of p90/p95/p99/p99.9 with at least ten samples beyond it, or None."""
    best = None
    for p in (90.0, 95.0, 99.0, 99.9):
        if len(values) * (1.0 - p / 100.0) >= 10.0:
            q = statistics.quantiles(values, n=1000, method="inclusive")[int(round(p * 10)) - 1]
            best = (p, q)
    return best


def blas_threads():
    """Thread count of the OpenBLAS that numpy loaded, or None if it cannot be asked."""
    try:
        with open("/proc/self/maps") as f:
            libs = {line.split()[-1] for line in f if "openblas" in line.lower()}
    except OSError:
        return None
    for lib in sorted(libs):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def git_commit():
    head = read_text(os.path.join(ROOT, ".git", "HEAD"))
    if head and head.startswith("ref: "):
        head = read_text(os.path.join(ROOT, ".git", head[5:]))
    return head or "unavailable (not a git checkout)"


def read_text(path):
    try:
        with open(path) as f:
            return f.read().strip()
    except OSError:
        return None


def run_record(args):
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(), "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}", "blas_threads": blas_threads(),
        **{k: os.environ.get(k) for k in ("TRIFIELD_THREADS", "TRIFIELD_NO_MALLOC_TUNE",
                                          "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
        "transparent_hugepage": read_text("/sys/kernel/mm/transparent_hugepage/enabled"),
        "commit": git_commit(),
    }


def probe_setup(args):
    """Set-up time of a fresh process: start to the end of its warm-up op."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", "0", "--setup-probe"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"set-up probe exited with {proc.returncode}")
    return float(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])


def run_one(args):
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import trifield

    src = os.path.realpath(os.path.join(ROOT, "src"))
    if not os.path.realpath(trifield.__file__).startswith(src + os.sep):
        raise SystemExit(f"trifield imported from {trifield.__file__}, not from {src}")
    t_probes = 0.0
    samples = []
    if not (args.trace or args.setup_probe):
        t = time.perf_counter()
        samples = [probe_setup(args) for _ in range(SETUP_SAMPLES[args.workload] - 1)]
        t_probes = time.perf_counter() - t

    run = Run(args.workload, args.seed, args.seconds, args.trace, args.setup_probe)
    tracer = run.tracer
    tracer.install()
    tracer.hooks["diffusion.denoiser"].append(lambda a, r: run.denoisers.setdefault(id(a[0]), a[0]))
    tracer.hooks["checkpoint.load"].append(lambda a, r: setattr(run, "ckpt_bytes", os.path.getsize(a[0])))
    tracer.set_active(bool(args.trace))
    try:
        WORKLOADS[args.workload](run)
    except SetupDone:
        print(json.dumps({"setup_s": run.setup_end - T0}))
        return 0
    except Exception as exc:
        if run.phase != "timed":
            raise
        traceback.print_exc()
        run.stop_failed(f"op raised {exc!r}")
    finally:
        tracer.uninstall()
    samples.append(run.setup_end - T0 - t_probes)

    missing = [s for s in EXPECTED[args.workload] if tracer.calls[s] == 0]
    if missing:
        raise SystemExit(f"boundaries never reached on {args.workload}: {missing}; the tracer no longer "
                         "wraps what the program calls")

    print(f"# trifield benchmark: workload={args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace}")
    print("# run record: " + json.dumps(run_record(args)))
    for msg in run.notes:
        print(f"# check: {msg}")
    for msg in run.errors + run.check_failures:
        print(f"# FAILED: {msg}")
    ms = [x * 1e3 for x in run.lat]
    attempted, failed = len(run.lat), run.failed()
    os.makedirs(OUT_DIR, exist_ok=True)
    with open(os.path.join(OUT_DIR, f"ops-{args.workload}-seed{args.seed}-trace{args.trace}.json"), "w") as f:
        json.dump({"op_ms": ms, "minor_faults": run.faults.values(), "traced": run.traced.values(),
                   "setup_s": samples}, f)
    if args.trace:
        metrics = run.per_layer()
        spans = os.path.join(OUT_DIR, f"spans-{args.workload}-seed{args.seed}.jsonl")
        tracer.dump_spans(spans)
        print(f"# spans: {len(tracer.spans)} written to {os.path.relpath(spans, ROOT)}")
        print(f"# traced ops {sum(run.traced)}, untraced ops {attempted - sum(run.traced)}; "
              f"tracing overhead {metrics['trace.overhead_pct']:+.1f}% on op_ms_p50")
        units = dict(PER_LAYER)
        for name in sorted(metrics):
            if name not in units and not metrics[name]:
                continue
            print(f"{name:34s} {metrics[name]:14.6g} {units.get(name, '(printed only)')}")
        report = {name: {"value": metrics[name], "unit": unit} for name, unit in PER_LAYER}
    else:
        metrics = run.end_to_end(samples)
        print(f"# setup_s samples (fresh processes): {', '.join(f'{s:.3f}' for s in samples)}")
        for name, unit in END_TO_END:
            extra = f"  (n={attempted} ops)" if name == "op_ms_p50" else ""
            print(f"{name:12s} {metrics[name]:12.4f} {unit}{extra}")
        hp = high_percentile(ms)
        if hp:
            print(f"op_ms_p{hp[0]:g}".ljust(12) + f" {hp[1]:12.4f} ms  ({sum(x > hp[1] for x in ms)} ops beyond)")
        else:
            print("op_ms_p90    n/a  (fewer than 100 ops)")
        print(f"fail_ratio   {failed / attempted:12.4f}  ({failed}/{attempted})")
        if attempted >= 2:  # a heap that trims every other step shows as two unequal halves
            print(f"# op_ms_p50 of odd / even ops: {statistics.median(ms[::2]):.3f} / "
                  f"{statistics.median(ms[1::2]):.3f}; minor page faults per op, median of odd / even ops: "
                  f"{statistics.median(run.faults.values()[::2]):g} / "
                  f"{statistics.median(run.faults.values()[1::2]):g}")
        report = {name: {"value": metrics[name], "unit": unit} for name, unit in END_TO_END}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": report}))
    return 0


def run_all(args):
    """Every workload, each in its own process, then one table."""
    rows, total = [], {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr)
            raise SystemExit(f"{name} exited with {proc.returncode}")
        print("\n".join(lines[:-1]))
        res = json.loads(lines[-1])
        total["correct"] &= res["correct"]
        total["attempted"] += res["attempted"]
        total["failed"] += res["failed"]
        for metric, val in res["metrics"].items():
            total["metrics"][f"{name}.{metric}"] = val
        rows.append((name, res))
    if not args.trace:
        print(f"\n{'workload':16s} {'setup_s':>9s} {'ops_per_s':>10s} {'op_ms_p50':>10s} {'peak_rss_mb':>12s} "
              f"{'fail_ratio':>10s}")
        for name, res in rows:
            m = res["metrics"]
            print(f"{name:16s} {m['setup_s']['value']:9.3f} {m['ops_per_s']['value']:10.3f} "
                  f"{m['op_ms_p50']['value']:10.2f} {m['peak_rss_mb']['value']:12.1f} "
                  f"{res['failed'] / res['attempted']:10.4f}")
    print(json.dumps(total))
    return 0


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True, help="length of the timed phase")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
