"""Tiny-scale runs of every workload, and the output checks' negative cases.

    python3 -m pytest perfbench/tests -q
"""

import json
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import bench
import checks
import workloads

SPEC = json.loads(
    (Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text()
)
NAMES = [w["name"] for w in SPEC["workloads"]]


def _units(kind):
    return {m["name"]: m["unit"] for m in SPEC[kind]}


def _tiny(name):
    """A seconds-long variant of a workload with the same code paths."""
    workload = workloads.WORKLOADS[name]
    if workload.kind == "figure":
        return replace(workload, population=6, checkpoints=(1, 2))
    return replace(
        workload,
        service=replace(
            workload.service, population_size=6, generations=2, carryover=3,
            compact_every=2,
        ),
        max_windows=5,
    )


def test_spec_names_every_workload():
    assert NAMES == list(workloads.WORKLOADS)


@pytest.mark.parametrize("name", NAMES)
def test_untraced_run_reports_every_end_to_end_metric(name, tmp_path):
    report = bench.execute(_tiny(name), seed=5, seconds=0.1, trace=False,
                           setup_samples=1, out_dir=tmp_path)
    result = report["result"]
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    got = {k: m["unit"] for k, m in result["metrics"].items()}
    assert got == _units("end_to_end")
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("name", NAMES)
def test_traced_run_reports_every_layer_metric_and_reconciles(name, tmp_path):
    report = bench.execute(_tiny(name), seed=5, seconds=0.1, trace=True,
                           out_dir=tmp_path)
    result = report["result"]
    assert result["correct"]
    got = {k: m["unit"] for k, m in result["metrics"].items()}
    assert got == _units("per_layer")
    m = {k: v["value"] for k, v in result["metrics"].items()}
    stages = sum(m[f"core.{s}_ms"] for s in bench.spans.STAGES)
    assert m["core.step_unattributed_ms"] >= 0
    assert stages + m["core.step_unattributed_ms"] == pytest.approx(
        m["core.step_ms_mean"], rel=1e-9
    )
    assert m["core.generations"] > 0 and m["sim.rows"] > 0
    if name.startswith("serve"):
        children = sum(m[k] for k in (
            "ledger.compact_ms", "window.build_ms", "seeding.repair_ms",
            "dispatch.ga_ms", "window.evaluate_full_ms", "ledger.commit_ms",
            "archive.update_ms", "dispatch.unattributed_ms",
        ))
        assert children == pytest.approx(m["dispatch.window_ms"], rel=1e-9)
        assert m["dispatch.unattributed_ms"] >= 0
    else:
        pops = sum(m[f"runner.pop_s.{label}"] for label in
                   workloads.POPULATION_LABELS)
        assert m["runner.unattributed_s"] >= 0
        assert m["heuristics.build_s"] > 0
        assert pops + m["heuristics.build_s"] + m["runner.unattributed_s"] == (
            pytest.approx(m["runner.run_s"], rel=1e-9)
        )
    assert list(tmp_path.glob("spans-*.json"))


def test_corrupted_front_point_fails_exactly_its_population():
    prepared = workloads.setup(_tiny("fig3-ds1"), seed=5)
    result = workloads.run_figure_pass(prepared)
    assert checks.check_figure_pass(prepared, result) == {}
    victim = result.populations[2]
    points = victim.points.copy()
    points[0, 1] = np.nextafter(points[0, 1], np.inf)
    result.populations[2] = replace(victim, points=points)
    failures = checks.check_figure_pass(prepared, result)
    assert list(failures) == [victim.label]


def test_dominated_front_point_is_reported():
    prepared = workloads.setup(_tiny("fig3-ds1"), seed=5)
    result = workloads.run_figure_pass(prepared)
    record = result.populations[0]
    doubled = replace(
        record,
        points=np.vstack([record.points, record.points[:1] + [1.0, -1.0]]),
        assignments=np.vstack([record.assignments, record.assignments[:1]]),
        orders=np.vstack([record.orders, record.orders[:1]]),
    )
    assert checks.dominated(doubled.points)
    result.populations = [doubled]
    assert list(checks.check_figure_pass(prepared, result)) == [record.label]


def test_corrupted_ledger_entry_fails_the_next_window():
    workload = _tiny("serve-ds3")
    clean = workloads.run_serve_pass(workloads.setup(workload, seed=5))
    prepared = workloads.setup(workload, seed=5)
    assert checks.check_serve_pass(prepared, clean) == {}

    def corrupt(service, index):
        if index == 1:
            service.ledger.task_energies[-1] += 1.0

    result = workloads.run_serve_pass(prepared, after_window=corrupt)
    failures = checks.check_serve_pass(prepared, result)
    assert min(failures) == 2
    assert "ledger energy" in failures[2]


def test_corrupted_window_record_fails_exactly_that_window():
    prepared = workloads.setup(_tiny("serve-ds3"), seed=5)
    result = workloads.run_serve_pass(prepared)
    result.windows[3].utilities[0] += 1e-3
    assert list(checks.check_serve_pass(prepared, result)) == [3]


def test_infeasible_commit_is_reported():
    prepared = workloads.setup(_tiny("serve-ds3"), seed=5)
    result = workloads.run_serve_pass(prepared)
    record = result.windows[1]
    feasible = prepared.dataset.system.feasible_task_machine
    bad = np.flatnonzero(~feasible[record.task_types[0]])
    if bad.size == 0:
        pytest.skip("first task type of the window runs everywhere")
    record.machines[0] = bad[0]
    assert list(checks.check_serve_pass(prepared, result)) == [1]


def test_hypervolume_of_one_point_is_its_rectangle():
    box = (10.0, 4.0)
    assert workloads.normalized_hypervolume(np.array([[6.0, 2.0]]), box) == (
        pytest.approx(4.0 * 2.0 / 40.0)
    )
    two = np.array([[6.0, 2.0], [2.0, 1.0], [7.0, 1.0]])
    assert workloads.normalized_hypervolume(two, box) == pytest.approx(
        (4.0 * 1.0 + 4.0 * 2.0) / 40.0
    )
