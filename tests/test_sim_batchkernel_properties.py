"""Differential property tests: batch kernel vs. its scalar oracle.

Hypothesis draws small systems (including DVFS-style queue groups that
put several machines on one sequential queue), traces, queue backlogs
(the identity or random fold states every queue starts from) and
sequences of operations on
:class:`~repro.sim.batchkernel.BatchQueueKernel`: evaluations of
batches that reuse, mutate and invent rows with duplicate, negative and
≥2⁴⁰ order keys, interleaved with ``clear()``, ``queue_states()``
reads and inserts into a 16-slot table that is under constant pressure.
After every evaluation the energies, utilities and makespans of a
caching and a non-caching kernel must equal
:func:`~repro.sim.batchkernel.batch_reference_row` row for row, bit for
bit, and so must every queue end state.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.model.system import SystemModel
from repro.sim.batchkernel import (
    STATE_FIELDS,
    BatchQueueKernel,
    batch_reference_row,
    identity_backlog,
)
from repro.sim.evaluator import ScheduleEvaluator
from repro.utility.presets import assign_presets
from repro.workload.trace import Trace

#: Small keys collide (ties break by task index); the wide ones cover
#: negative and ≥2⁴⁰ keys hashed by the same arithmetic mix.
ORDER_KEYS = st.one_of(
    st.integers(-3, 3),
    st.integers(-(2**62), 2**62),
    st.integers(2**40, 2**40 + 3),
)


FOLD_VALUES = st.floats(-1e6, 1e6, allow_nan=False)


@st.composite
def backlogs(draw, num_queues):
    """``None`` (the identity) or a plane of per-queue fold states, each
    queue either empty or carrying arbitrary finite prior work."""
    if draw(st.booleans()):
        return None
    backlog = identity_backlog(num_queues)
    for q in range(num_queues):
        if draw(st.booleans()):
            backlog[:, q] = draw(st.lists(
                FOLD_VALUES, min_size=len(STATE_FIELDS),
                max_size=len(STATE_FIELDS),
            ))
    return backlog


@st.composite
def evaluators(draw):
    n_types = draw(st.integers(1, 3))
    per_type = draw(st.lists(st.integers(1, 2), min_size=1, max_size=3))
    seed = draw(st.integers(0, 2**16))
    rng = np.random.default_rng(seed)
    etc = rng.uniform(1.0, 50.0, size=(n_types, len(per_type)))
    epc = rng.uniform(10.0, 200.0, size=(n_types, len(per_type)))
    system = SystemModel.from_matrices(
        etc, epc, machines_per_type=per_type
    ).with_utility_functions(assign_presets(n_types, 300.0, seed=seed))
    M = system.num_machines
    T = draw(st.integers(1, 40))
    trace = Trace(
        task_types=rng.integers(0, n_types, size=T),
        arrival_times=np.sort(rng.uniform(0.0, 300.0, size=T)),
        window=300.0,
    )
    queue_groups = None
    if draw(st.booleans()):  # DVFS-style: several machines per queue
        queue_groups = draw(
            st.lists(st.integers(0, M - 1), min_size=M, max_size=M)
        )
    num_queues = max(queue_groups) + 1 if queue_groups else M
    return ScheduleEvaluator(
        system, trace, check_feasibility=False, queue_groups=queue_groups,
        kernel_method="batch-reference",
        backlog=draw(backlogs(num_queues)),
    )


def draw_batch(data, ev, pool):
    """1-4 rows: replays and one-gene mutants of earlier rows, or new."""
    T, M = ev.num_tasks, ev.num_machines
    rows = []
    for _ in range(data.draw(st.integers(1, 4))):
        kind = data.draw(st.sampled_from(["new", "replay", "mutant"]))
        if kind == "new" or not pool:
            a = data.draw(st.lists(st.integers(0, M - 1),
                                   min_size=T, max_size=T))
            o = data.draw(st.lists(ORDER_KEYS, min_size=T, max_size=T))
            rows.append((np.array(a), np.array(o)))
            continue
        a, o = pool[data.draw(st.integers(0, len(pool) - 1))]
        a, o = a.copy(), o.copy()
        if kind == "mutant":
            t = data.draw(st.integers(0, T - 1))
            if data.draw(st.booleans()):
                a[t] = data.draw(st.integers(0, M - 1))
            else:
                o[t] = data.draw(ORDER_KEYS)
        rows.append((a, o))
    pool.extend(rows)
    return (np.array([a for a, _ in rows], dtype=np.int64),
            np.array([o for _, o in rows], dtype=np.int64))


def assert_matches_oracle(ev, kernel, assignments, orders, want_finish):
    if want_finish:
        e, u, f = kernel.evaluate_population_with_finish(assignments, orders)
    else:
        e, u = kernel.evaluate_population(assignments, orders)
    for i, (a, o) in enumerate(zip(assignments, orders)):
        energy, utility, _, states, _ = batch_reference_row(ev, a, o)
        assert e[i] == energy
        assert u[i] == utility
        if want_finish:
            # A queue left empty keeps its backlog's last finish.
            assert f[i] == states[4].max()


@settings(max_examples=60, deadline=None)
@given(ev=evaluators(), data=st.data())
def test_kernel_matches_oracle_under_interleaved_operations(ev, data):
    def fresh(use_cache):
        # An 8-entry budget gives the smallest table: 16 slots.
        return BatchQueueKernel(ev, cache_size=8 if use_cache else 0)

    cached, uncached = fresh(True), fresh(False)
    pool: list = []
    for op in data.draw(st.lists(
        st.sampled_from(["eval", "eval", "eval", "clear", "states"]),
        min_size=1, max_size=8,
    )):
        if op == "clear":
            cached.clear()
        elif op == "states":
            assignments, orders = draw_batch(data, ev, pool)
            expected = batch_reference_row(ev, assignments[0], orders[0])[3]
            for kernel in (cached, uncached):
                before = kernel.stats
                states = kernel.queue_states(assignments[0], orders[0])
                np.testing.assert_array_equal(states, expected)
                assert kernel.stats == before
        else:
            assignments, orders = draw_batch(data, ev, pool)
            want_finish = data.draw(st.booleans())
            for kernel in (cached, uncached):
                assert_matches_oracle(
                    ev, kernel, assignments, orders, want_finish
                )
    assert uncached.stats["hits"] == 0
