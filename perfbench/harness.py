"""Measurement loop and metric reduction of the benchmark.

One process, one sample at a time (closed loop, no queue), with the BLAS
thread count fixed before numpy loads.  A run repeats the whole pipeline
from a fresh set-up until ``--seconds`` would be exceeded (at least once)
and reports medians over the repetitions.  End-to-end metrics come from
untraced repetitions.  With tracing on, untraced and traced repetitions
alternate: the traced ones give the per-layer metrics, the pair gives the
tracing overhead, and their numerics digests must agree.
"""

from __future__ import annotations

import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import numpy as np

from pipeline import WORKLOADS, Run, Workload, setup
from tracer import Tracer

# set-ups timed in each repetition (the last one feeds the pipeline), so the
# setup_s median rests on several samples even when one repetition fills --seconds
SETUPS = 3
# a whole run, traced or not, ends within this many seconds
RUN_LIMIT_S = 170


def cache_bytes(level: int) -> int | None:
    try:
        out = subprocess.run(["getconf", f"LEVEL{level}_CACHE_SIZE"], capture_output=True,
                             text=True, timeout=10, check=True).stdout.strip()
        return int(out) if out else None
    except (OSError, subprocess.SubprocessError, ValueError):
        return None


def environment(w: Workload, blas_threads: int) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads,
        "nproc": len(os.sched_getaffinity(0)),
        "l2_bytes": cache_bytes(2),
        "l3_bytes": cache_bytes(3),
        "weight_bytes": w.weight_bytes,
    }


def tail(values: list[float]) -> tuple[float, int]:
    """Highest whole percentile with at least ten samples beyond it.

    With fewer than twenty samples no such percentile above the median
    exists, and the median is reported instead (percentile 50).
    """
    n = len(values)
    pct = math.floor(100.0 * (1.0 - 10.0 / n)) if n >= 20 else 50
    return float(np.percentile(values, pct)), pct


def end_to_end(w: Workload, reps: list[dict]) -> dict[str, float]:
    def med(fn):
        return statistics.median(fn(r["times"]) for r in reps)

    return {
        "pipeline_s": med(lambda t: sum(t.values())),
        "lc_train_sps": med(lambda t: w.lc_samples / t["train_lc"]),
        "decoder_train_sps": med(lambda t: w.decoder_samples / t["train_decoder"]),
        "eval_sps": med(lambda t: w.test_size / t["evaluate"]),
        "features_sps": med(lambda t: (w.train_size + w.test_size) / t["features"]),
    }


def per_layer(w: Workload, run: Run, tracer: Tracer) -> dict[str, float]:
    """Per-layer metrics of one traced repetition, totals over the whole pipeline."""
    profile = tracer.stage_profile()
    total: dict[str, list[float]] = {}
    for rows in profile.values():
        for name, (self_s, calls) in rows.items():
            t = total.setdefault(name, [0.0, 0])
            t[0] += self_s
            t[1] += calls

    def self_s(name):
        return total.get(name, [0.0, 0])[0]

    def calls(name):
        return total.get(name, [0.0, 0])[1]

    c = tracer.counts

    def ratio(a, b):
        return c[a] / c[b] if c[b] else 0.0

    m = {
        "encoding.encode.self_s": self_s("encoding.encode"),
        "encoding.input_spikes_per_tick": ratio("encode.spikes", "encode.ticks"),
        "neurons.step.self_s": self_s("neurons.step"),
        "neurons.step.calls": calls("neurons.step"),
        "neurons.lc_spikes_per_tick": ratio("step.lc.spikes", "step.lc.ticks"),
        "neurons.dec_spikes_per_tick": ratio("step.dec.spikes", "step.dec.ticks"),
        "topology.lc_forward.bytes_computed": c["lc_forward.bytes"],
        "topology.dense_forward.bytes_computed": c["dense_forward.bytes"],
        "topology.inhibition.self_s": self_s("topology.inhibition"),
        "topology.inhibition.calls": calls("topology.inhibition"),
        "plasticity.update_traces.self_s": self_s("plasticity.update_traces"),
        "plasticity.eligibility.bytes_computed": c["eligibility.bytes"],
        "plasticity.eligibility.nonzero_ratio": ratio("eligibility.nonzero", "eligibility.size"),
        "plasticity.apply_rstdp.changed_ratio": ratio("apply_rstdp.changed", "apply_rstdp.size"),
        "plasticity.lc_eligibility.nonzero_ratio":
            ratio("lc_eligibility.nonzero", "lc_eligibility.size"),
        "plasticity.apply_stdp.self_s": self_s("plasticity.apply_stdp"),
        "plasticity.normalize.self_s": self_s("plasticity.normalize"),
        "reward.modulate.calls": c["modulate.calls"],
        "engine.self_s": self_s("engine.sample") + sum(
            self_s(f"stage.{s}") for s in ("train_lc", "train_decoder", "evaluate")),
        "engine.decide.tie_ratio": ratio("decide.ties", "decide.calls"),
        "readout.extract.self_s": self_s("readout.extract") + self_s("stage.features"),
        "readout.train_linear_s": run.times["train_linear"],
        "readout.predict_s": run.times["predict"],
        "checkpoint.save_s": run.times["checkpoint_save"],
        "checkpoint.load_s": run.times["checkpoint_load"],
        "checkpoint.bytes": run.results["checkpoint_bytes"],
    }
    for layer in ("lc_forward", "dense_forward"):
        m[f"topology.{layer}.self_s"] = self_s(f"topology.{layer}")
        m[f"topology.{layer}.calls"] = calls(f"topology.{layer}")
    for name in ("eligibility", "apply_rstdp", "lc_eligibility"):
        m[f"plasticity.{name}.self_s"] = self_s(f"plasticity.{name}")
    for stage in ("train_lc", "train_decoder", "evaluate"):
        ms = [d * 1e3 for d in tracer.durations("engine.sample", f"stage.{stage}")]
        m[f"engine.{stage}.sample_ms_p50"] = statistics.median(ms)
        m[f"engine.{stage}.sample_ms_tail"], m[f"engine.{stage}.sample_ms_tail_pct"] = tail(ms)
    return m


def profile_lines(tracer: Tracer, run: Run) -> list[str]:
    """Per-stage self-time table, heaviest spans first."""
    lines = []
    for stage, rows in tracer.stage_profile().items():
        stage_s = run.times[stage.removeprefix("stage.")] if stage.startswith("stage.") else 0.0
        lines.append(f"profile {stage} {stage_s:.4f} s")
        for name, (self_s, n) in sorted(rows.items(), key=lambda kv: -kv[1][0]):
            share = self_s / stage_s if stage_s else 0.0
            lines.append(f"profile   {name:<28} {self_s:10.4f} s {share:6.1%} {n:9d} calls")
    return lines


def repetition(workload: str, seed: int, traced: bool, work_dir: Path) -> dict:
    """One pipeline run after its set-ups; the body of one child process."""
    w = WORKLOADS[workload]
    setups = []
    for i in range(SETUPS):
        if i:
            del s  # one network alive at a time, as in the pipeline run
        s = setup(w, seed)
        setups.append((s.setup_s, s.data_s))
    tracer = Tracer(w.n_lc, w.n_out) if traced else None
    run = Run(w, seed, work_dir, tracer)
    if tracer is None:
        run.execute(s)
    else:
        with tracer.installed():
            run.execute(s)
    out = {
        "times": run.times,
        "error": run.error,
        "failed": run.failed_samples(),
        "setup_s": [t[0] for t in setups],
        "data_s": [t[1] for t in setups],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        **run.results,
    }
    if tracer is not None and not run.error:
        out["layers"] = per_layer(w, run, tracer)
        out["profile"] = profile_lines(tracer, run)
        tracer.write_csv(work_dir / f"spans-{workload}.csv", tracer.spans[0][1])
    return out


def spawn(script: Path, workload: str, seed: int, traced: bool, timeout: float) -> dict:
    """Run one repetition in a fresh interpreter and return its result."""
    cmd = [sys.executable, str(script), "--workload", workload, "--seed", str(seed),
           "--seconds", "1", "--repetition", "traced" if traced else "plain"]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:  # the child is killed and reaped before this returns
        return {"error": f"repetition still running at the {RUN_LIMIT_S} s limit"}
    sys.stderr.write(proc.stderr)
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        return {"error": f"repetition exited with code {proc.returncode} and no result"}


def measure(script: Path, workload: str, seed: int, seconds: float, trace: bool,
            blas_threads: int) -> tuple[dict, list[str]]:
    """Repeat the pipeline for about ``seconds``; returns the result and report lines."""
    w = WORKLOADS[workload]
    start = perf_counter()
    plain: list[dict] = []
    traced: list[dict] = []
    while True:
        round_start = perf_counter()
        plain.append(spawn(script, workload, seed, False, start + RUN_LIMIT_S - round_start))
        if trace and not plain[-1]["error"]:
            traced.append(spawn(script, workload, seed, True,
                                start + RUN_LIMIT_S - perf_counter()))
        now = perf_counter()
        reps = plain + traced
        if any(r["error"] for r in reps) or now + (now - round_start) > start + seconds:
            break

    n_samples = sum(w.samples().values())
    attempted = len(reps) * n_samples
    failed = sum(r.get("failed", n_samples) for r in reps)
    errors = [r["error"] for r in reps if r["error"]]
    if not errors and len({r["digest"] for r in reps}) != 1:
        errors.append("numerics digests differ between repetitions"
                      + (" (traced vs untraced)" if traced else ""))
    report = [f"env {json.dumps(environment(w, blas_threads), sort_keys=True)}"]
    metrics: dict[str, float] = {}
    if not errors:
        first = plain[0]
        if trace:
            layers = [r["layers"] for r in traced]
            metrics = {k: statistics.median(m[k] for m in layers) for k in layers[0]}
            metrics["data.build_s"] = statistics.median(x for r in reps for x in r["data_s"])
            metrics["trace.overhead_ratio"] = (
                statistics.median(sum(r["times"].values()) for r in traced)
                / statistics.median(sum(r["times"].values()) for r in plain))
            metrics["test_accuracy"] = first["test_accuracy"]
            metrics["readout_accuracy"] = first["readout_accuracy"]
            report += traced[-1]["profile"]
        else:
            metrics = end_to_end(w, plain)
            metrics["setup_s"] = statistics.median(x for r in plain for x in r["setup_s"])
            metrics["peak_rss_mb"] = statistics.median(r["peak_rss_mb"] for r in plain)
        report.append(f"accuracy test_accuracy {first['test_accuracy']:.4f} "
                      f"readout_accuracy {first['readout_accuracy']:.4f} "
                      f"on {w.test_size} test samples")
        report.append(f"digest {first['digest']}")
    report.append(f"repetitions {len(plain)} untraced, {len(traced)} traced, "
                  f"each in a fresh process after {SETUPS} set-ups")
    for r in reps:
        report.append("stage_s " + " ".join(f"{k}={v:.4f}" for k, v in r.get("times", {}).items())
                      + (" traced" if "layers" in r else ""))
    report.append(f"failed_share {failed / attempted:.6f} ({failed} of {attempted} samples)")
    report += [f"error {e}" for e in errors]
    return {"correct": not errors, "attempted": attempted, "failed": failed,
            "metrics": metrics}, report
