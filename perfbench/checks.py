"""Output checks, run after the timed region.

Each check returns ``{operation: reason}`` for the operations that failed:
a population label for figure passes, a window index for serve passes.
Operations that raised during the pass are failures too.
"""

from __future__ import annotations

import math

import numpy as np

from repro.sim.evaluator import ScheduleEvaluator

from workloads import PassResult, PopulationRecord, Prepared

#: Ledger totals and per-task sums are summed in different orders.
TOTALS_RTOL = 1e-9


def dominated(points: np.ndarray) -> bool:
    """Whether any (energy, utility) point is dominated by another."""
    pts = np.asarray(points, dtype=np.float64).reshape(-1, 2)
    e, u = pts[:, 0], pts[:, 1]
    no_worse = (e[:, None] <= e[None, :]) & (u[:, None] >= u[None, :])
    better = (e[:, None] < e[None, :]) | (u[:, None] > u[None, :])
    return bool((no_worse & better).any())


def check_figure_pass(prepared: Prepared, result: PassResult) -> dict:
    """Re-evaluate every final front with the scalar oracle kernel."""
    failures = dict(result.errors)
    system, trace = prepared.dataset.system, prepared.dataset.trace
    oracle = ScheduleEvaluator(system, trace, kernel_method="batch-reference")
    feasible = system.feasible_task_machine[trace.task_types]
    for record in result.populations:
        reason = _front_problem(record, oracle, feasible)
        if reason:
            failures[record.label] = reason
    return failures


def _front_problem(
    record: PopulationRecord, oracle: ScheduleEvaluator, feasible: np.ndarray
) -> str:
    points, assignments = record.points, record.assignments
    if points.shape[0] == 0:
        return "empty final front"
    if assignments is None or record.orders is None:
        return "final front carries no chromosomes"
    if assignments.shape[0] != points.shape[0]:
        return "front points and chromosomes differ in number"
    tasks = np.arange(assignments.shape[1])[None, :]
    if not feasible[tasks, assignments].all():
        return "a front chromosome uses an infeasible machine"
    energies, utilities = oracle.evaluate_batch(assignments, record.orders)
    if not (
        np.array_equal(energies, points[:, 0])
        and np.array_equal(utilities, points[:, 1])
    ):
        return "re-evaluated front differs from the reported points"
    if dominated(points):
        return "final front is not mutually nondominated"
    return ""


def check_serve_pass(prepared: Prepared, result: PassResult) -> dict:
    """Per window: feasible commits, causal finishes, reconciled totals."""
    failures = dict(result.errors)
    feasible = prepared.dataset.system.feasible_task_machine
    prev_energy = prev_utility = 0.0
    for record in result.windows:
        problems = []
        if not feasible[record.task_types, record.machines].all():
            problems.append("a task is committed to an infeasible machine")
        if (record.finishes < record.arrivals).any():
            problems.append("a task finishes before it arrives")
        for name, total, prev, parts, chosen in (
            ("energy", record.total_energy, prev_energy, record.energies,
             record.chosen[0]),
            ("utility", record.total_utility, prev_utility, record.utilities,
             record.chosen[1]),
        ):
            tol = TOTALS_RTOL * max(abs(total), 1.0)
            if abs((total - prev) - math.fsum(parts)) > tol:
                problems.append(
                    f"ledger {name} grew by {total - prev!r}, the committed "
                    f"tasks sum to {math.fsum(parts)!r}"
                )
            # An idle window dispatches nothing and reports a zero point.
            if record.task_types.size and abs(total - chosen) > tol:
                problems.append(
                    f"ledger {name} {total!r} differs from the dispatched "
                    f"point {chosen!r}"
                )
        if dominated(record.archive_points):
            problems.append("archive is not mutually nondominated")
        if problems:
            failures[record.index] = "; ".join(problems)
        prev_energy, prev_utility = record.total_energy, record.total_utility
    return failures


def check_pass(prepared: Prepared, result: PassResult) -> dict:
    if prepared.workload.kind == "figure":
        return check_figure_pass(prepared, result)
    return check_serve_pass(prepared, result)
