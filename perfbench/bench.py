"""Run one workload for a time budget, check its outputs, compute metrics.

``execute`` is what ``run.py`` calls; the tests call it on tiny workloads.
Untraced runs give the end-to-end metrics; traced runs alternate untraced
and traced passes and give the per-layer metrics plus the tracing overhead.
"""

from __future__ import annotations

import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from repro.extensions.online import (
    MaxUtilityPolicy,
    OnlineDispatcher,
    UtilityPerEnergyPolicy,
)
from repro.workload.trace import Trace

import checks
import spans
import workloads
from workloads import Prepared, Workload

HERE = Path(__file__).resolve().parent
OUT_DIR = HERE / "out"
SETUP_SAMPLES = 5

END_TO_END_UNITS = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "run_s": "s",
    "op_ms_p50": "ms",
    "op_ms_p90": "ms",
    "tasks_per_s": "1/s",
    "front_hv": "frac",
    "utility": "utility",
    "energy_mj": "MJ",
}


def layer_unit(name: str) -> str:
    """Unit of a per-layer metric, from its name."""
    if name.endswith("_ms") or "_ms_" in name:
        return "ms"
    if name.endswith("_s") or "_s." in name:
        return "s"
    if name.endswith("us_per_row"):
        return "us"
    if name.endswith(("_frac", "_rate")):
        return "frac"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


def measure_setup(name: str, seed: int, samples: int) -> list[float]:
    """Set-up seconds of *samples* fresh interpreters, one after another."""
    probe = HERE / "setup_probe.py"
    times = []
    for _ in range(samples):
        done = subprocess.run(
            [sys.executable, str(probe), name, str(seed)],
            capture_output=True, text=True, check=True, timeout=120,
        )
        times.append(float(done.stdout.strip().splitlines()[-1]))
    return times


def timed_passes(prepared: Prepared, seconds: float, tracer=None):
    """Run passes until the next would overrun *seconds*.

    Without a tracer every pass is untraced and at least one runs.  With
    one, passes alternate untraced/traced and at least one of each runs.
    Returns ``(untraced results, traced results, spans per traced pass,
    peak RSS in MB after the first pass)``.  Later passes are left out of
    the peak: freed arrays stay in the allocator's heap, so the high-water
    mark creeps up with the number of passes, not with the workload.
    """
    deadline = time.perf_counter() + seconds
    untraced, traced, traced_spans, walls = [], [], [], []
    rss_mb = 0.0
    minimum = 1 if tracer is None else 2
    while True:
        start = time.perf_counter()
        if tracer is not None and len(untraced) > len(traced):
            tracer.install()
            try:
                traced.append(workloads.run_pass(prepared))
            finally:
                tracer.uninstall()
            traced_spans.append(tracer.take())
        else:
            untraced.append(workloads.run_pass(prepared))
        walls.append(time.perf_counter() - start)
        if len(walls) == 1:
            rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if len(walls) >= minimum and (
            time.perf_counter() + statistics.median(walls) > deadline
        ):
            return untraced, traced, traced_spans, rss_mb


def op_latencies(results) -> list[float]:
    """Each operation's median latency over the passes, in ms.

    Every pass repeats the same operations (populations or windows) with
    its own seed, so the per-operation median filters out slow moments of
    the machine and single trajectories without mixing operations.
    """
    ops: dict = {}
    for r in results:
        for op, ms in r.op_ms.items():
            ops.setdefault(op, []).append(ms)
    return [statistics.median(v) for v in ops.values()]


def end_to_end(prepared: Prepared, results, setup_s, rss_mb) -> dict:
    box = workloads.reference_box(prepared.dataset)
    op_ms = op_latencies(results) or [0.0]  # every operation failed
    return {
        "setup_s": setup_s,
        "peak_rss_mb": rss_mb,
        "run_s": statistics.median(r.wall_s for r in results),
        "op_ms_p50": float(np.percentile(op_ms, 50)),
        "op_ms_p90": float(np.percentile(op_ms, 90)),
        "tasks_per_s": statistics.median(r.tasks / r.wall_s for r in results),
        "front_hv": statistics.median(
            workloads.normalized_hypervolume(r.front, box) for r in results
        ),
        "utility": statistics.median(r.utility for r in results),
        "energy_mj": statistics.median(r.energy for r in results) / 1e6,
    }


def reference_numbers(prepared: Prepared, run_s: float, result) -> dict:
    """Numbers printed beside the metrics and never gated."""
    w = prepared.workload
    if w.kind == "figure":
        scale = w.paper_generations / w.generations
        return {
            "paper_generations": w.paper_generations,
            "benchmark_generations": w.generations,
            "paper_scale_s": run_s * scale,
            "paper_scale_h": run_s * scale / 3600.0,
        }
    windows = prepared.windows
    trace = Trace(
        task_types=np.concatenate([b.task_types for b in windows]),
        arrival_times=np.concatenate([b.arrival_times for b in windows]),
        window=windows[-1].end,
    )
    dispatcher = OnlineDispatcher(prepared.dataset.system, trace)
    ref = {"service": {"utility": result.utility,
                       "energy_mj": result.energy / 1e6}}
    for name, policy in (
        ("greedy_max_utility", MaxUtilityPolicy()),
        ("greedy_utility_per_energy", UtilityPerEnergyPolicy()),
    ):
        outcome = dispatcher.run(policy)
        ref[name] = {"utility": outcome.utility,
                     "energy_mj": outcome.energy / 1e6}
    return ref


def context(prepared: Prepared, seconds, untraced, traced, setup_times) -> dict:
    w, ds = prepared.workload, prepared.dataset
    inputs = {
        "dataset": w.dataset,
        "tasks": ds.num_tasks,
        "machines": ds.system.num_machines,
    }
    if w.kind == "figure":
        inputs.update(figure=w.figure, population=w.population,
                      checkpoints=list(w.checkpoints), populations=5)
    else:
        busy = sum(1 for b in prepared.windows if b.count)
        svc = prepared.workload.service
        inputs.update(
            window_s=w.window_s, windows=len(prepared.windows),
            busy_windows=busy, population=svc.population_size,
            generations=svc.generations, carryover=svc.carryover,
            compact_every=svc.compact_every,
            loop="closed, one client: the next window is offered when "
            "process_window returns",
        )
    return {
        "workload": w.name,
        "why": w.why,
        "seed": prepared.seed,
        "held_out_seed": workloads.derive(prepared.seed, "held-out"),
        "dataset_seed": workloads.DATASET_SEED,
        "pass_seeds": [prepared.pass_seed(i) for i in range(prepared.passes)],
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "threads": {
            k: v for k, v in sorted(os.environ.items())
            if k.endswith(("_NUM_THREADS", "_MAXIMUM_THREADS"))
        },
        "workers": 0,
        "inputs": inputs,
        "seconds": seconds,
        "passes": len(untraced),
        "traced_passes": len(traced),
        "pass_s": [r.wall_s for r in untraced],
        "traced_pass_s": [r.wall_s for r in traced],
        "operations": len(op_latencies(untraced)),
        "op_samples": sum(len(r.op_ms) for r in untraced),
        "setup_samples": len(setup_times),
    }


def execute(
    workload: Workload,
    seed: int,
    seconds: float,
    trace: bool,
    setup_samples: int = SETUP_SAMPLES,
    out_dir: Path = OUT_DIR,
) -> dict:
    """One benchmark run.  Returns ``{"result", "context", "reference",
    "failures"}``; ``result`` is the object printed as the last line."""
    tracer = spans.Tracer() if trace else None
    setup_times: list[float] = []
    if tracer is None:
        setup_times = measure_setup(workload.name, seed, setup_samples)
        prepared = workloads.setup(workload, seed)
    else:
        tracer.install()
        try:
            prepared = workloads.setup(workload, seed)
        finally:
            tracer.uninstall()
        setup_spans = tracer.take()
    untraced, traced, traced_spans, rss_mb = timed_passes(
        prepared, seconds, tracer
    )

    results = untraced + traced
    failures: dict = {}
    for i, result in enumerate(results):
        for op, reason in checks.check_pass(prepared, result).items():
            failures[f"pass {i} op {op}"] = reason
    attempted = sum(r.attempted for r in results)

    if tracer is None:
        metrics = end_to_end(
            prepared, untraced, statistics.median(setup_times), rss_mb
        )
        units = END_TO_END_UNITS
    else:
        metrics = spans.layer_metrics(
            setup_spans, traced_spans, traced, [r.wall_s for r in untraced]
        )
        units = {name: layer_unit(name) for name in metrics}
        spans.write_spans(
            out_dir / f"spans-{workload.name}-seed{seed}.json", traced_spans
        )
    run_s = statistics.median(r.wall_s for r in untraced)
    return {
        "result": {
            "correct": not failures,
            "attempted": attempted,
            "failed": len(failures),
            "metrics": {
                name: {"value": value, "unit": units[name]}
                for name, value in metrics.items()
            },
        },
        "context": context(prepared, seconds, untraced, traced, setup_times),
        "reference": reference_numbers(prepared, run_s, untraced[0]),
        "failures": failures,
    }
