"""Self-tests of the benchmark (about a minute; not part of the tier-1 suite).

    python3 -m pytest -q perfbench/tests/check_bench.py

The file is not named ``test_*.py`` so that a plain ``pytest`` at the repo
root does not run the benchmark's smoke runs.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

import numpy as np
import pytest

BENCH_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH_DIR)
sys.path.insert(0, BENCH_DIR)
sys.path.insert(0, os.path.join(ROOT, "src"))

import run  # noqa: E402
import workloads  # noqa: E402

BENCH = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))


def _names(section):
    return [(m["name"], m["unit"]) for m in BENCH[section]]


def test_metric_names_match_benchmark_json():
    assert [w["name"] for w in BENCH["workloads"]] == list(workloads.WORKLOADS)
    assert _names("end_to_end") == list(run.END_TO_END)
    assert _names("per_layer") == list(run.PER_LAYER)
    assert len(BENCH["per_layer"]) <= 128


def _all(trace):
    cmd = [*BENCH["command"], "--workload", "all", "--seed", "7", "--seconds", "1", "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout, json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_every_workload_through_one_command(trace):
    out, res = _all(trace)
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= len(workloads.WORKLOADS)
    expected = run.PER_LAYER if trace else run.END_TO_END
    for name in workloads.WORKLOADS:
        got = [(k.split(".", 1)[1], v["unit"]) for k, v in res["metrics"].items() if k.startswith(name + ".")]
        assert got == list(expected)
        for metric, unit in expected:
            assert np.isfinite(res["metrics"][f"{name}.{metric}"]["value"])
    if trace:
        assert "tracing overhead" in out
    else:
        assert "fail_ratio" in out


def _in_process(workload, monkeypatch, capsys, trace=0):
    monkeypatch.setattr(run, "probe_setup", lambda args: 0.0)
    args = argparse.Namespace(workload=workload, seed=3, seconds=0.5, trace=trace, setup_probe=False)
    assert run.run_one(args) == 0
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


def test_corrupted_denoiser_pass_is_counted_as_failed(monkeypatch, capsys):
    from trifield import diffusion

    real = diffusion.Denoiser._forward_stacked
    calls = []

    def corrupt(self, *args):
        out = real(self, *args)
        calls.append(1)
        if len(calls) == workloads.REMAINDER_STEPS + 3:  # the second timed pass
            out.data[0, 0] = np.nan
        return out

    monkeypatch.setattr(diffusion.Denoiser, "_forward_stacked", corrupt)
    res = _in_process("denoiser_sample", monkeypatch, capsys)
    assert not res["correct"] and res["failed"] >= 1


def test_op_that_raises_is_counted_as_failed(monkeypatch, capsys):
    from trifield import diffusion

    real = diffusion.Denoiser._forward_stacked
    calls = []

    def broken(self, *args):
        calls.append(1)
        if len(calls) == workloads.REMAINDER_STEPS + 3:  # the second timed pass
            raise FloatingPointError("injected")
        return real(self, *args)

    monkeypatch.setattr(diffusion.Denoiser, "_forward_stacked", broken)
    res = _in_process("denoiser_sample", monkeypatch, capsys)
    assert not res["correct"] and res["failed"] == 1 and res["attempted"] == 2


@pytest.mark.parametrize("trace", [0, 1])
def test_diverged_trainer_is_counted_as_failed(monkeypatch, capsys, trace):
    from trifield import diffusion

    real = diffusion.Denoiser._forward_stacked
    calls = []

    def nan_output(self, *args):
        out = real(self, *args)
        calls.append(1)
        if len(calls) == 3:  # the second timed step's loss is NaN, so the trainer stops
            out.data[0, 0] = np.nan
        return out

    monkeypatch.setattr(diffusion.Denoiser, "_forward_stacked", nan_output)
    res = _in_process("denoiser_train", monkeypatch, capsys, trace)
    assert not res["correct"] and res["failed"] == 1 and res["attempted"] == 2


def test_perturbed_frame_fails_the_reference_check(monkeypatch, capsys):
    from trifield import render

    real = render.render_view

    def perturbed(*args, **kwargs):
        out = real(*args, **kwargs)
        out.image[0, 0, 0] += 1e-9
        return out

    monkeypatch.setattr(workloads, "VIEW_SIZE", 16)
    monkeypatch.setattr(render, "render_view", perturbed)
    res = _in_process("render_view", monkeypatch, capsys)
    assert not res["correct"] and res["failed"] == 1


def test_clean_in_process_run_is_correct(monkeypatch, capsys):
    monkeypatch.setattr(workloads, "VIEW_SIZE", 16)
    res = _in_process("render_view", monkeypatch, capsys)
    assert res["correct"] and res["failed"] == 0
