"""Hot-loop performance benchmark with a regression-tracked report.

Times the NSGA-II generation step at paper scale (population 100 on
data set 1 — the Figure 3 configuration) on the production engine:
O(N log N) sweep sorting with shared per-generation ranks, evaluated by
the population-at-once batch kernel with per-machine queue-state reuse
(``kernel_method="batch"``, docs/performance.md §3).  The kernel is
measured at cache steady state: its reuse rate climbs over the first
~30 generations, so the engine warms up for ``BATCH_WARMUP``
generations before the timed blocks.

Two oracles hold the engine to its results, because every speedup must
be free:

* the batch kernel's fronts are asserted bit-identical to its scalar
  oracle (``kernel_method="batch-reference"``);
* the sweep machinery's populations are asserted bit-identical to the
  O(N²) dominance-matrix engine
  (:class:`~repro.testing.oracles.MatrixNSGA2`).

Results are written to ``BENCH_ga_hotloop.json`` at the repo root next
to a *frozen* pre-optimization baseline (measured at commit bb55ed6,
before the fast path existed) so the speedup is tracked against where
the code started, not against a moving target.

Regression gate: per-stage mean times must stay under ``2 × max(stage
baseline, 20% of the baseline step)`` — tight enough to catch a lost
optimization, loose enough to absorb machine-to-machine variance
(documented in ``docs/performance.md``).  Set ``REPRO_BENCH_SMOKE=1``
(the CI benchmark-smoke job does) for a reduced-step run that keeps
the same population scale and all correctness/regression assertions
but skips the absolute-speedup gate.

Set ``REPRO_BENCH_OBS=1`` (the CI observability job does) to also run
the engine with an **enabled** :class:`~repro.obs.context.RunContext`
streaming to a temporary directory and hold it to the *same* 2×
stage budget — the zero-overhead-by-default contract of
``docs/observability.md``, measured rather than asserted.
"""

from __future__ import annotations

import json
import os
import platform
import time
from pathlib import Path

import numpy as np
import pytest

from conftest import BENCH_SEED, FIG3_POP
from repro.core.algorithm import AlgorithmConfig
from repro.core.nsga2 import NSGA2
from repro.sim.evaluator import ScheduleEvaluator
from repro.testing.oracles import MatrixNSGA2

REPO_ROOT = Path(__file__).parent.parent
SMOKE = os.environ.get("REPRO_BENCH_SMOKE", "") not in ("", "0")
OBS_BENCH = os.environ.get("REPRO_BENCH_OBS", "") not in ("", "0")

STEPS = 5 if SMOKE else 30
BLOCKS = 2 if SMOKE else 3
#: The batch kernel's queue-state tables reach steady-state reuse
#: (~60-75% of elements) after roughly 30 generations; timing it cold
#: would measure table warming, not the kernel.
BATCH_WARMUP = 4 if SMOKE else 35
REPORT = REPO_ROOT / (
    "BENCH_ga_hotloop.smoke.json" if SMOKE else "BENCH_ga_hotloop.json"
)

#: Pre-optimization generation-step timings, frozen at the commit
#: before the fast path landed (same machine, same seed/population/steps
#: protocol as this file, warmup 5).  Never re-measured: the acceptance criterion
#: is a speedup over where the code *was*.
FROZEN_BASELINE = {
    "commit": "bb55ed6",
    "step_ms": 10.3414,
    "stages_ms": {
        "variation": 0.3429,
        "evaluate": 7.1791,
        "nondominated_sort": 2.6288,
        "environmental_selection": 2.8365,
    },
    "population": 100,
    "warmup": 5,
    "steps": 30,
    "seed": 2013,
    "machine": "x86_64",
    "python": "3.11.7",
    "numpy": "2.4.6",
}

#: Minimum acceptable steady-state speedup of the production engine
#: over the frozen baseline (full-scale runs only).  Measured headroom:
#: ~6x on the reference machine; the gate leaves margin for noisier
#: hosts.
MIN_SPEEDUP_BATCH = 2.3

#: Per-stage budget: 2× the frozen stage time, floored at 20% of the
#: frozen step so sub-millisecond stages do not gate on scheduler noise.
_BASE = FROZEN_BASELINE["stages_ms"]
STAGE_BUDGETS_MS = {
    stage: 2.0 * max(base, 0.2 * FROZEN_BASELINE["step_ms"])
    for stage, base in {
        "selection": 0.0,  # folded into sorting in the baseline
        "variation": _BASE["variation"],
        "evaluate": _BASE["evaluate"],
        # The baseline's sorting + environmental selection form one stage.
        "environmental": _BASE["nondominated_sort"]
        + _BASE["environmental_selection"],
    }.items()
}


def build_engine(bundle, *, kernel="batch", engine=NSGA2, obs=None):
    """The production engine, or an oracle: *kernel*
    ``"batch-reference"`` swaps in the scalar evaluation oracle and
    *engine* :class:`MatrixNSGA2` the dominance-matrix selection.  *obs*
    threads an observability context into both the evaluator and the
    engine (the REPRO_BENCH_OBS gate)."""
    evaluator = ScheduleEvaluator(
        bundle.system, bundle.trace, check_feasibility=False,
        kernel_method=kernel, obs=obs,
    )
    config = AlgorithmConfig(population_size=FIG3_POP)
    return engine(
        evaluator, config, rng=BENCH_SEED, label=f"hotloop-{kernel}", obs=obs
    )


def timed_steps(engine, steps):
    """Mean wall-clock per generation step over *steps* generations."""
    t0 = time.perf_counter()
    for _ in range(steps):
        engine.step()
    return (time.perf_counter() - t0) / steps * 1000.0


def measure(engine):
    """Best-of-``BLOCKS`` mean step time plus per-stage means.

    Taking the best block (not the grand mean) filters one-sided
    interference from other processes — the standard noise model for
    wall-clock microbenchmarks: slowdowns are external, speedups are
    not possible.
    """
    timed_steps(engine, BATCH_WARMUP)
    engine.stage_timings.reset()
    step_ms = min(timed_steps(engine, STEPS) for _ in range(BLOCKS))
    stages = {
        stage: engine.stage_timings.mean_ms(stage)
        for stage in ("selection", "variation", "evaluate", "environmental")
    }
    return step_ms, stages


def replay(engine, generations):
    """Step an oracle engine to the production engine's generation."""
    for _ in range(generations):
        engine.step()
    return engine


def assert_within_budget(step_ms, stages, what):
    for stage, measured in stages.items():
        allowed = STAGE_BUDGETS_MS[stage]
        assert measured <= allowed, (
            f"{what}: stage {stage!r} at {measured:.3f} ms exceeds its "
            f"{allowed:.3f} ms budget"
        )
    assert step_ms <= 2.0 * FROZEN_BASELINE["step_ms"]


@pytest.fixture(scope="module")
def hotloop_report(ds1):
    engine = build_engine(ds1)
    step_ms, stages = measure(engine)
    cache = engine.evaluator.cache_stats
    report = {
        "description": (
            "NSGA-II generation-step timings, population "
            f"{FIG3_POP} on dataset1 (Figure 3 scale)"
        ),
        "protocol": {
            "population": FIG3_POP,
            "batch_warmup": BATCH_WARMUP,
            "steps": STEPS,
            "blocks": BLOCKS,
            "seed": BENCH_SEED,
            "smoke": SMOKE,
        },
        "environment": {
            "machine": platform.machine(),
            "python": platform.python_version(),
            "numpy": np.__version__,
        },
        "baseline": FROZEN_BASELINE,
        "batch": {
            "kernel": "batch",
            "step_ms": round(step_ms, 4),
            "stages_ms": {k: round(v, 4) for k, v in stages.items()},
            "cache": {
                k: (round(v, 6) if isinstance(v, float) else v)
                for k, v in cache.items()
            },
            "reuse_rate": round(cache["reuse_rate"], 4),
        },
        "speedup_batch_vs_baseline": round(
            FROZEN_BASELINE["step_ms"] / step_ms, 4
        ),
    }
    REPORT.write_text(json.dumps(report, indent=2) + "\n")
    return report, engine


def test_report_written(hotloop_report):
    report, _ = hotloop_report
    on_disk = json.loads(REPORT.read_text())
    assert on_disk["baseline"]["commit"] == "bb55ed6"
    assert set(on_disk["batch"]["stages_ms"]) == set(STAGE_BUDGETS_MS)
    assert on_disk["batch"]["kernel"] == "batch"
    assert 0.0 <= on_disk["batch"]["reuse_rate"] <= 1.0
    assert (on_disk["speedup_batch_vs_baseline"]
            == report["speedup_batch_vs_baseline"])


def test_batch_front_bit_identical_to_oracle(hotloop_report, ds1):
    """The batch kernel's contract: same seed, same population and
    front, to the bit, as its scalar oracle (``batch-reference`` —
    plain Python left folds per queue) after every warmup + timed
    generation."""
    _, engine = hotloop_report
    check = replay(build_engine(ds1, kernel="batch-reference"),
                   engine.generation)
    np.testing.assert_array_equal(
        engine.population.objectives, check.population.objectives
    )
    np.testing.assert_array_equal(
        engine.current_front()[0], check.current_front()[0]
    )


def test_sweep_and_matrix_fronts_bit_identical(hotloop_report, ds1):
    """The sweep machinery is only a speedup: same seed, same
    population (objectives and chromosomes) and front, to the bit, as
    the O(N²) dominance-matrix engine after every generation run."""
    _, engine = hotloop_report
    check = replay(build_engine(ds1, engine=MatrixNSGA2), engine.generation)
    np.testing.assert_array_equal(
        engine.population.objectives, check.population.objectives
    )
    np.testing.assert_array_equal(
        engine.population.orders, check.population.orders
    )
    np.testing.assert_array_equal(
        engine.current_front()[0], check.current_front()[0]
    )


def test_batch_reuse_is_earning_its_keep(hotloop_report):
    """Queue-state reuse is the batch kernel's whole premise: after the
    steady-state warmup a solid fraction of queue elements must be
    served from the tables (smoke runs warm for only a few
    generations, so its floor only asserts reuse is happening)."""
    report, _ = hotloop_report
    cache = report["batch"]["cache"]
    assert cache["hits"] > 0
    assert cache["elements_reused"] > 0
    floor = 0.02 if SMOKE else 0.35
    assert report["batch"]["reuse_rate"] >= floor, (
        f"batch reuse rate {report['batch']['reuse_rate']:.2%} fell below "
        f"the {floor:.0%} floor"
    )


@pytest.mark.skipif(SMOKE, reason="absolute speedup is gated at full scale")
def test_batch_speedup_vs_frozen_baseline(hotloop_report):
    report, _ = hotloop_report
    assert report["speedup_batch_vs_baseline"] >= MIN_SPEEDUP_BATCH, (
        f"production engine is only "
        f"{report['speedup_batch_vs_baseline']:.2f}x the frozen baseline; "
        f"the floor is {MIN_SPEEDUP_BATCH}x"
    )


def test_stage_regression_gate(hotloop_report):
    """Each stage of the production engine must stay inside its 2×
    frozen-baseline budget."""
    report, _ = hotloop_report
    assert_within_budget(report["batch"]["step_ms"],
                       report["batch"]["stages_ms"], "production engine")


@pytest.mark.skipif(not OBS_BENCH, reason="set REPRO_BENCH_OBS=1 to gate "
                    "observability overhead")
def test_observability_overhead_within_budget(hotloop_report, ds1, tmp_path):
    """An enabled (info-level) RunContext streaming to a directory must
    keep every stage inside the same 2× frozen-baseline budget the dark
    engine is held to — and must not change the optimization results."""
    from repro.obs import RunContext

    obs = RunContext.create(tmp_path / "obs", level="info")
    engine = build_engine(ds1, obs=obs)
    step_ms, stages = measure(engine)
    assert_within_budget(step_ms, stages, "observability")
    # It really was recording.
    assert (tmp_path / "obs" / "trace.jsonl").stat().st_size > 0

    # Same seed, same generations, bit-identical objectives.
    dark = replay(build_engine(ds1), engine.generation)
    np.testing.assert_array_equal(
        engine.population.objectives, dark.population.objectives
    )
