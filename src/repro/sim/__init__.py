"""Schedule simulation and evaluation (paper Sections IV-B and V).

Given a system, a trace, and a resource allocation (per-task machine
assignment + global scheduling order), this package computes the two
objective values of the paper — total utility earned ``U`` (Eq. 1) and
total energy consumed ``E`` (Eq. 3) — plus auxiliary schedule metrics.

Two implementations of the same queueing semantics:

* :mod:`repro.sim.evaluator` — the evaluator.  The per-machine queue
  recurrence ``f_i = max(f_{i-1}, a_i) + e_i`` is folded per queue,
  whole populations at once, by the compiled batch kernel
  (:mod:`repro.sim.batchkernel`), whose scalar oracle
  ``batch_reference_row`` defines the exact fold order.
* :mod:`repro.sim.events` — a plain sequential event simulator used to
  validate the evaluator (property-tested to agree within float
  rounding).
"""

from repro.sim.evaluator import EvaluationResult, ScheduleEvaluator
from repro.sim.events import simulate_reference
from repro.sim.gantt import machine_timeline, render_gantt
from repro.sim.metrics import ScheduleMetrics, compute_metrics
from repro.sim.schedule import ResourceAllocation

__all__ = [
    "ResourceAllocation",
    "ScheduleEvaluator",
    "EvaluationResult",
    "simulate_reference",
    "ScheduleMetrics",
    "compute_metrics",
    "render_gantt",
    "machine_timeline",
]
