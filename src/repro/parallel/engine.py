"""The persistent worker-pool engine for experiment-grid cells.

:class:`ParallelEngine` owns one :class:`~concurrent.futures.\
ProcessPoolExecutor` whose workers are initialized **once** with a
:class:`~repro.parallel.descriptors.SharedDatasetHandle` (attached
zero-copy on first use) plus a driver-supplied ``extra`` payload
(heuristic seed allocations, experiment config, fault hooks).  After
that, every grid-cell submission carries only ``(key, attempt,
payload)`` — a few hundred bytes regardless of dataset size.

:meth:`ParallelEngine.run` is the generic retry/collect loop shared by
the seeded-population runner and the repetition-grid driver:

* **as-completed harvesting** — results are collected the moment they
  finish, never in submission order;
* **heap-scheduled backoff** — retries waiting out their backoff sit in
  a :mod:`heapq` priority queue, popped in ready-time order (O(log n)
  per retry instead of a linear scan-and-remove);
* **cell leases for timeouts** — ``Future.cancel`` cannot stop a task
  that is already running, so a timed-out attempt becomes a *zombie*:
  it keeps both its pool slot and its **cell lease** until it actually
  finishes.  A retry of the same cell is held until the lease is
  released, so a timed-out attempt and its retry can never run
  concurrently (they would race on checkpoint files and, previously,
  silently double-consumed pool slots);
* **pool supervision** — a SIGKILL'd/OOM'd worker breaks the
  ``ProcessPoolExecutor`` (every unfinished future fails with
  ``BrokenProcessPool`` at once).  The engine rebuilds the pool — a
  *generation* counter distinguishes futures of the dead pool from the
  fresh one — and separates the break's **victim** (the cell a worker
  was actually executing, attributed via the worker's journaled
  ``running`` heartbeat) from the innocent submissions that were merely
  queued behind it.  Innocents are resubmitted on the same attempt;
  the victim's crash is charged to the cell, and a cell that keeps
  killing workers is **quarantined** after ``quarantine_after`` crashes
  on two or more distinct workers (poison input, not bad luck) instead
  of being retried forever.  Worker-death retries deliberately bypass
  ``policy.max_attempts`` — crashes are the infrastructure's fault, not
  the cell's — only the quarantine rule bounds them.  Without a journal
  there is no attribution, so repeated breaks with no completed cell in
  between fail fast rather than loop;
* **coordinator-side observability** — queue-wait histograms, attach
  counters (first reply from each worker pid), cell counters, and
  timeout/zombie/pool-break events on the driver's
  :class:`~repro.obs.context.RunContext`.  Contexts are not picklable,
  so they never cross the process boundary — instead a picklable
  :class:`~repro.obs.distributed.WorkerTelemetryConfig` ships through
  the initializer and each worker opens its own crash-safe
  :class:`~repro.obs.distributed.WorkerTelemetry` sink: one ``cell.run``
  span per executed cell (on disk as one tree when the cell ends, so a
  SIGKILL loses at most the in-flight cell), per-worker cell/queue-wait
  metrics, and a ``worker_heartbeat_dropped_total`` counter with a
  once-per-worker warning event when a manifest heartbeat append fails
  (previously swallowed silently).  The cell body can reach the
  worker's context via :func:`worker_obs` to nest its own spans under
  the cell span.  With no telemetry config, workers pay one ``is
  None`` branch per cell — the zero-overhead contract, gated by the
  ``REPRO_BENCH_OBS`` parallel benchmark.

The engine is transport-agnostic: it neither publishes nor unlinks
shared memory.  Drivers publish via
:func:`repro.parallel.descriptors.publish_dataset` and pass the
resulting handle in; the pickle-fallback handle works identically.
Likewise it is manifest-agnostic: it journals nothing itself, but
accepts a :class:`~repro.parallel.manifest.WorkerJournal` for worker
heartbeats and ``on_submit``/``on_failure``/``on_quarantine``/
``poll_running`` hooks through which a driver wires the durable grid
manifest in.  With none of them set, behaviour and cost are exactly
the pre-supervision in-memory path.
"""

from __future__ import annotations

import heapq
import itertools
import os
import time
from concurrent.futures import (
    FIRST_COMPLETED,
    BrokenExecutor,
    Future,
    ProcessPoolExecutor,
    wait,
)
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Hashable, Optional, Sequence

from repro.errors import (
    CellTimeoutError,
    ParallelExecutionError,
    WorkerCrashError,
)
from repro.obs.distributed import CELL_SPAN_NAME
from repro.parallel import shm as shm_transport

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.context import RunContext
    from repro.obs.distributed import WorkerTelemetry, WorkerTelemetryConfig
    from repro.parallel.descriptors import RestoredDataset, SharedDatasetHandle
    from repro.parallel.manifest import WorkerJournal

__all__ = ["CellReply", "ParallelEngine", "worker_obs"]

#: Cell wall-time buckets: sub-second unit tests through multi-minute
#: paper-scale GA cells.
_CELL_SECONDS_BUCKETS: tuple[float, ...] = (
    0.01, 0.03, 0.1, 0.3, 1.0, 3.0, 10.0, 30.0, 60.0, 120.0, 300.0, 600.0,
)

#: Queue-wait buckets: from effectively-idle pools to badly oversubscribed.
_QUEUE_WAIT_BUCKETS: tuple[float, ...] = (
    0.001, 0.003, 0.01, 0.03, 0.1, 0.3, 1.0, 3.0, 10.0, 30.0, 60.0,
)


# -- worker side -------------------------------------------------------------

#: Per-worker state installed by the pool initializer.
_WORKER_HANDLE: Optional["SharedDatasetHandle"] = None
_WORKER_EXTRA: object = None
_WORKER_JOURNAL: Optional["WorkerJournal"] = None
_WORKER_TELEMETRY: Optional["WorkerTelemetry"] = None

#: Heartbeat appends that failed in this worker (kept even without
#: telemetry, so the loss is at least countable in tests/debuggers).
_HEARTBEAT_DROPS = 0


def _worker_init(
    handle: Optional["SharedDatasetHandle"],
    extra: object,
    journal: Optional["WorkerJournal"] = None,
    telemetry: Optional["WorkerTelemetryConfig"] = None,
) -> None:
    """Pool initializer: install the dataset handle + driver payload.

    Runs exactly once per worker process.  Under the ``fork`` start
    method the worker may have inherited the coordinator's shared-
    memory ownership registry; that is dropped first so a worker can
    never unlink the coordinator's segments.  The dataset is restored
    (segment attached, views built) eagerly so the first cell pays no
    attach latency.  When a grid journal is configured the worker keeps
    its appender so every cell execution starts with a journaled
    ``running`` heartbeat; when a telemetry config is configured the
    worker opens its own observability sink under the run's
    ``workers/`` directory.
    """
    global _WORKER_HANDLE, _WORKER_EXTRA, _WORKER_JOURNAL, _WORKER_TELEMETRY
    shm_transport.forget_owned()
    _WORKER_HANDLE = handle
    _WORKER_EXTRA = extra
    _WORKER_JOURNAL = journal
    _WORKER_TELEMETRY = telemetry.open() if telemetry is not None else None
    if handle is not None:
        handle.restore()


def worker_obs() -> "RunContext":
    """The executing worker's observability context (for cell bodies).

    Inside a pool worker with telemetry enabled this is the worker's
    own enabled :class:`~repro.obs.context.RunContext` — spans recorded
    through it nest under the current ``cell.run`` span.  Everywhere
    else it is :data:`~repro.obs.context.NULL_CONTEXT`, so cell bodies
    can pass it unconditionally.
    """
    if _WORKER_TELEMETRY is not None:
        return _WORKER_TELEMETRY.obs
    from repro.obs.context import NULL_CONTEXT

    return NULL_CONTEXT


@dataclass(frozen=True)
class CellReply:
    """One completed grid cell, as returned to the coordinator.

    Attributes
    ----------
    key:
        The cell's identity (population label, repetition index, ...).
    attempt:
        Which attempt produced this reply (1-based).
    pid:
        The worker process id — lets the coordinator count distinct
        attaching workers.
    queue_wait:
        Seconds the submission sat in the pool queue before a worker
        picked it up (coordinator/worker monotonic-clock delta; the
        clocks are system-wide on Linux, and the value is clamped to
        ``>= 0`` elsewhere).
    elapsed:
        Seconds the cell body ran in the worker.
    result:
        Whatever the driver's cell function returned.
    """

    key: Hashable
    attempt: int
    pid: int
    queue_wait: float
    elapsed: float
    result: object


def _execute_cell(
    fn: Callable[..., object],
    key: Hashable,
    attempt: int,
    payload: object,
    submitted_at: float,
) -> CellReply:
    """Worker-side cell wrapper: heartbeat, telemetry, restore, run.

    The ``running`` heartbeat is appended *before* the cell body runs,
    so if this worker is SIGKILL'd mid-cell the coordinator can read
    exactly which cell (and which pid) went down with it.  With
    telemetry enabled the body runs inside a ``cell.run`` span, so the
    cell's spans reach the worker sink as one tree when it ends
    (success *and* error paths) — a SIGKILL loses at most the in-flight
    cell.
    """
    global _HEARTBEAT_DROPS
    started = time.monotonic()
    telem = _WORKER_TELEMETRY
    if _WORKER_JOURNAL is not None:
        try:
            _WORKER_JOURNAL.running(key, attempt)
        except OSError as exc:
            # Best-effort: never fail the cell for a heartbeat — but
            # never lose the loss either (satellite of the observability
            # PR: this used to be a bare ``pass``).
            _HEARTBEAT_DROPS += 1
            if telem is not None:
                telem.heartbeat_dropped(key, attempt, exc)
    restored: Optional["RestoredDataset"] = (
        _WORKER_HANDLE.restore() if _WORKER_HANDLE is not None else None
    )
    queue_wait = max(0.0, started - submitted_at)
    if telem is None:
        result = fn(restored, _WORKER_EXTRA, key, attempt, payload)
        elapsed = time.monotonic() - started
    else:
        ctx = telem.cell_context(key, attempt)
        metrics = telem.obs.metrics
        # Metrics are recorded before the cell span closes: closing it
        # appends the cell's span tree and rewrites the metrics snapshot.
        with telem.obs.span(
            CELL_SPAN_NAME, queue_wait_s=queue_wait, **ctx.as_attrs()
        ):
            try:
                result = fn(restored, _WORKER_EXTRA, key, attempt, payload)
            except BaseException:
                metrics.counter(
                    "worker_cell_errors_total",
                    help="cell attempts that raised in this worker",
                ).inc()
                raise
            elapsed = time.monotonic() - started
            metrics.counter(
                "worker_cells_total",
                help="cell attempts completed by this worker",
            ).inc()
            metrics.histogram(
                "worker_cell_seconds",
                buckets=_CELL_SECONDS_BUCKETS,
                help="wall seconds per completed cell "
                "(heartbeat+restore+body)",
                unit="seconds",
            ).observe(elapsed)
            metrics.histogram(
                "worker_queue_wait_seconds",
                buckets=_QUEUE_WAIT_BUCKETS,
                help="seconds a cell sat in the pool queue before pickup",
                unit="seconds",
            ).observe(queue_wait)
    return CellReply(
        key=key,
        attempt=attempt,
        pid=os.getpid(),
        queue_wait=queue_wait,
        elapsed=elapsed,
        result=result,
    )


# -- coordinator side --------------------------------------------------------


class ParallelEngine:
    """A persistent pool of dataset-attached workers plus the retry loop.

    Parameters
    ----------
    workers:
        Pool size (>= 1).
    handle:
        Optional :class:`~repro.parallel.descriptors.SharedDatasetHandle`
        shipped to each worker once via the pool initializer; cells
        receive the restored dataset as their first argument (or
        ``None`` when no handle is given).
    extra:
        Arbitrary picklable payload also shipped once per worker —
        put per-experiment constants here (seed allocations, config,
        hooks), never in per-cell payloads.
    journal:
        Optional :class:`~repro.parallel.manifest.WorkerJournal`; when
        given, every worker appends a ``running`` heartbeat before
        executing a cell body, enabling victim attribution on pool
        breaks.
    telemetry:
        Optional :class:`~repro.obs.distributed.WorkerTelemetryConfig`;
        when given, every worker opens its own crash-safe telemetry
        sink under the run's ``workers/`` directory (spans, metrics,
        events per cell).  Rebuilt pool generations open fresh sinks.
    obs:
        Optional :class:`~repro.obs.context.RunContext` for
        coordinator-side metrics and events.
    mp_context:
        Optional :mod:`multiprocessing` context (e.g.
        ``multiprocessing.get_context("spawn")``); default is the
        platform default (``fork`` on Linux).
    """

    def __init__(
        self,
        workers: int,
        *,
        handle: Optional["SharedDatasetHandle"] = None,
        extra: object = None,
        journal: Optional["WorkerJournal"] = None,
        telemetry: Optional["WorkerTelemetryConfig"] = None,
        obs: Optional["RunContext"] = None,
        mp_context=None,
    ) -> None:
        if workers < 1:
            raise ParallelExecutionError(f"workers must be >= 1, got {workers}")
        self.workers = workers
        self.handle = handle
        self._obs = obs
        self._mp_context = mp_context
        self._initargs = (handle, extra, journal, telemetry)
        self._pool = self._new_pool()
        self._closed = False
        #: Bumped on every pool rebuild; pending futures are tagged with
        #: the generation they were submitted under so one break is
        #: handled exactly once however many futures it shatters.
        self.pool_generation = 0
        #: Worker pids that have sent at least one reply (attach count).
        self.seen_pids: set[int] = set()

    def _new_pool(self) -> ProcessPoolExecutor:
        return ProcessPoolExecutor(
            max_workers=self.workers,
            mp_context=self._mp_context,
            initializer=_worker_init,
            initargs=self._initargs,
        )

    def _rebuild_pool(self) -> None:
        """Replace a broken pool with a fresh generation of workers."""
        old = self._pool
        self.pool_generation += 1
        self._pool = self._new_pool()
        old.shutdown(wait=False, cancel_futures=True)
        obs = self._obs
        if obs is not None and obs.enabled:
            obs.counter(
                "parallel_pool_breaks_total",
                help="worker-pool breaks survived by rebuilding the pool",
            ).inc()
            obs.event(
                "parallel.pool_rebuilt", level="warning",
                generation=self.pool_generation,
            )

    # -- lifecycle ---------------------------------------------------------

    def close(self, *, cancel: bool = False) -> None:
        """Shut the pool down (idempotent).

        ``cancel=True`` drops queued work and does not join running
        workers — the interrupt/fail-fast path.  The default joins
        workers, which waits out any still-running zombie attempts.
        """
        if self._closed:
            return
        self._closed = True
        self._pool.shutdown(wait=not cancel, cancel_futures=cancel)

    def __enter__(self) -> "ParallelEngine":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close(cancel=exc_type is not None)

    # -- the retry/collect loop --------------------------------------------

    def run(
        self,
        fn: Callable[..., object],
        keys: Sequence[Hashable],
        payload_for: Callable[[Hashable, int], object],
        *,
        policy,
        backoff_for: Callable[[Hashable, int], float],
        give_up: Callable[[Hashable, int, BaseException], None],
        on_result: Callable[[CellReply], None],
        sleep: Callable[[float], None] = time.sleep,
        on_submit: Optional[Callable[[Hashable, int], None]] = None,
        on_failure: Optional[
            Callable[[Hashable, int, BaseException, Optional[int]], None]
        ] = None,
        quarantine_after: int = 3,
        on_quarantine: Optional[
            Callable[[Hashable, int, frozenset], None]
        ] = None,
        poll_running: Optional[Callable[[], list]] = None,
    ) -> None:
        """Run every cell in *keys* under the retry *policy*.

        Parameters
        ----------
        fn:
            Module-level (picklable) cell body
            ``fn(restored, extra, key, attempt, payload) -> result``.
        keys:
            Cell identities; each is attempted until it succeeds or
            exhausts ``policy.max_attempts``.
        payload_for:
            ``(key, attempt) -> picklable per-cell payload``.  Keep it
            O(1)-sized — everything large belongs in ``extra`` or the
            shared segment.
        policy:
            A :class:`~repro.experiments.runner.RetryPolicy`-shaped
            object (``max_attempts`` and ``timeout`` are read here;
            backoff delays come from *backoff_for*).
        backoff_for:
            ``(key, failed_attempt) -> delay seconds`` — called exactly
            once per scheduled retry, so drivers can hang determinism
            and telemetry off it.
        give_up:
            Called when a cell exhausts its attempts.  May raise to
            fail fast (the pool is then shut down with queued work
            cancelled).
        on_result:
            Called with each successful :class:`CellReply`, in
            completion order.
        sleep:
            Injectable sleep for the idle branch (tests pass stubs).
        on_submit:
            Optional ``(key, attempt)`` hook called as each attempt is
            submitted — the manifest's ``leased`` transition.
        on_failure:
            Optional ``(key, attempt, exc, owner_pid)`` hook called on
            every failed attempt (timeout, cell exception, worker
            death) before any retry is scheduled — the manifest's
            ``failed`` transition.  ``owner_pid`` is only known for
            worker deaths.
        quarantine_after:
            Crash budget per cell: a cell whose execution has killed a
            worker this many times, across at least two distinct
            workers (or ``quarantine_after + 2`` times on any), is
            quarantined instead of retried.
        on_quarantine:
            Optional ``(key, attempt, owners)`` hook for the
            quarantined transition.  Without it, quarantine falls back
            to *give_up* with a :class:`~repro.errors.WorkerCrashError`.
        poll_running:
            Optional zero-argument callable returning newly observed
            worker heartbeats as ``(key, attempt, pid)`` triples —
            normally :meth:`~repro.parallel.manifest.GridManifest.\
poll_running`.  Without it, pool breaks cannot be attributed to a
            victim cell, so every broken submission is resubmitted
            as-is and repeated breaks with no completed cell in
            between raise :class:`~repro.errors.WorkerCrashError`
            instead of looping forever.
        """
        obs = self._obs
        if self._closed:
            raise ParallelExecutionError("engine is closed")
        #: Future → (key, attempt, deadline | None, pool generation)
        pending: dict[
            Future, tuple[Hashable, int, Optional[float], int]
        ] = {}
        #: Timed-out futures still running — each holds its cell lease.
        zombies: dict[Future, Hashable] = {}
        leased: set[Hashable] = set()
        #: key → attempt for retries whose backoff expired while the
        #: cell lease was still held by a zombie.
        held: dict[Hashable, int] = {}
        #: (ready time, seq, key, attempt) min-heap of pending retries.
        heap: list[tuple[float, int, Hashable, int]] = []
        seq = itertools.count()
        #: (key, attempt) → worker pid, from journaled heartbeats.
        started: dict[tuple[Hashable, int], int] = {}
        #: key → [owner pid, ...] crash charges (quarantine evidence).
        crashes: dict[Hashable, list] = {}
        #: Pool breaks since the last reply or victim attribution —
        #: bounds the unattributed-break resubmission loop.
        blind_breaks = 0

        def submit(key: Hashable, attempt: int) -> None:
            submitted_at = time.monotonic()
            payload = payload_for(key, attempt)
            if on_submit is not None:
                on_submit(key, attempt)
            try:
                future = self._pool.submit(
                    _execute_cell, fn, key, attempt, payload, submitted_at
                )
            except BrokenExecutor:
                # The pool died between harvests; rebuild once and
                # resubmit — the broken futures are handled as they
                # surface from wait().
                self._rebuild_pool()
                future = self._pool.submit(
                    _execute_cell, fn, key, attempt, payload, submitted_at
                )
            deadline = (
                None if policy.timeout is None
                else submitted_at + policy.timeout
            )
            pending[future] = (key, attempt, deadline, self.pool_generation)

        def poll_started() -> None:
            if poll_running is None:
                return
            for key, attempt, pid in poll_running():
                if pid is not None:
                    started[(key, attempt)] = pid

        def handle_failure(
            key: Hashable, attempt: int, exc: BaseException
        ) -> None:
            if on_failure is not None:
                on_failure(key, attempt, exc, None)
            if attempt >= policy.max_attempts:
                give_up(key, attempt, exc)
            else:
                ready = time.monotonic() + backoff_for(key, attempt)
                heapq.heappush(heap, (ready, next(seq), key, attempt + 1))

        def handle_broken(
            key: Hashable, attempt: int, generation: int
        ) -> None:
            """One broken future: attribute, charge or resubmit."""
            nonlocal blind_breaks
            if generation == self.pool_generation:
                # First future of this break to surface: learn which
                # cells had actually started, then turn the pool over.
                poll_started()
                blind_breaks += 1
                self._rebuild_pool()
            owner = started.get((key, attempt))
            if owner is None and poll_running is not None:
                # Journaled grid, no heartbeat for this attempt: the
                # submission was queued, never started — an innocent
                # casualty of someone else's crash.  Same attempt again.
                submit(key, attempt)
                return
            if poll_running is None:
                # No attribution possible.  Resubmit as-is, but a pool
                # that keeps dying with no completed cell in between
                # would loop forever — fail fast past the budget.
                if blind_breaks > quarantine_after:
                    raise WorkerCrashError(
                        f"worker pool broke {blind_breaks} times with no "
                        "completed cell in between and no grid journal to "
                        "attribute a victim; enable a grid directory for "
                        "supervised execution",
                        cell=key, attempt=attempt,
                    )
                submit(key, attempt)
                return
            # Attributed victim: charge the crash to the cell.
            blind_breaks = 0
            owners = crashes.setdefault(key, [])
            owners.append(owner)
            crash = WorkerCrashError(
                f"worker {owner} died executing cell {key!r} "
                f"(attempt {attempt}, crash {len(owners)} for this cell)",
                cell=key, attempt=attempt,
            )
            if obs is not None and obs.enabled:
                obs.counter(
                    "parallel_worker_deaths_total",
                    help="pool workers that died while executing a cell",
                ).inc()
                obs.event(
                    "parallel.worker_death", level="error",
                    key=str(key), attempt=attempt, owner=owner,
                )
            if on_failure is not None:
                on_failure(key, attempt, crash, owner)
            distinct = len(set(owners))
            if len(owners) >= quarantine_after and (
                distinct >= 2 or len(owners) >= quarantine_after + 2
            ):
                if obs is not None and obs.enabled:
                    obs.event(
                        "parallel.quarantine", level="error",
                        key=str(key), crashes=len(owners),
                        distinct_workers=distinct,
                    )
                if on_quarantine is not None:
                    on_quarantine(key, attempt, frozenset(owners))
                else:
                    give_up(key, attempt, crash)
                return
            # Crashes are charged against the quarantine budget, not
            # the cell's retry budget — the input did not fail, the
            # infrastructure did.
            ready = time.monotonic() + backoff_for(key, attempt)
            heapq.heappush(heap, (ready, next(seq), key, attempt + 1))

        def record_reply(reply: CellReply) -> None:
            nonlocal blind_breaks
            blind_breaks = 0
            new_pid = reply.pid not in self.seen_pids
            self.seen_pids.add(reply.pid)
            if obs is None or not obs.enabled:
                return
            if new_pid and self.handle is not None:
                obs.counter(
                    "parallel_attach_total",
                    help="worker processes that attached the published dataset",
                ).inc()
            obs.counter(
                "parallel_cells_total", help="grid cells completed"
            ).inc()
            obs.metrics.histogram(
                "parallel_queue_wait_seconds",
                help="pool queue wait per cell submission",
                unit="seconds",
            ).observe(reply.queue_wait)

        try:
            for key in keys:
                submit(key, 1)
            while pending or zombies or heap or held:
                now = time.monotonic()
                while heap and heap[0][0] <= now:
                    _, _, key, attempt = heapq.heappop(heap)
                    if key in leased:
                        held[key] = attempt
                    else:
                        submit(key, attempt)
                if not pending and not zombies:
                    # Only backoff timers remain; idle until the next one.
                    sleep(max(0.0, heap[0][0] - now))
                    continue
                waits = []
                if heap:
                    waits.append(heap[0][0] - now)
                waits += [
                    d - now
                    for (_, _, d, _) in pending.values()
                    if d is not None
                ]
                wait_for = max(0.0, min(waits)) if waits else None
                done, _ = wait(
                    set(pending) | set(zombies),
                    timeout=wait_for, return_when=FIRST_COMPLETED,
                )
                for future in done:
                    if future in zombies:
                        key = zombies.pop(future)
                        leased.discard(key)
                        future.exception()  # reap; result is discarded
                        if obs is not None and obs.enabled:
                            obs.event(
                                "parallel.zombie_reaped", level="warning",
                                key=str(key),
                            )
                        if key in held:
                            heapq.heappush(
                                heap,
                                (time.monotonic(), next(seq), key,
                                 held.pop(key)),
                            )
                        continue
                    key, attempt, _, generation = pending.pop(future)
                    try:
                        reply = future.result()
                    except BrokenExecutor:
                        handle_broken(key, attempt, generation)
                    except Exception as exc:
                        handle_failure(key, attempt, exc)
                    else:
                        record_reply(reply)
                        on_result(reply)
                now = time.monotonic()
                for future, (key, attempt, deadline, _gen) in list(
                    pending.items()
                ):
                    if deadline is not None and now >= deadline:
                        del pending[future]
                        if not future.cancel():
                            # Already running: cannot be pre-empted.  It
                            # keeps its pool slot and its cell lease
                            # until it finishes, so the retry below can
                            # never run concurrently with it.
                            zombies[future] = key
                            leased.add(key)
                            if obs is not None and obs.enabled:
                                obs.event(
                                    "parallel.timeout", level="warning",
                                    key=str(key), attempt=attempt,
                                    timeout_seconds=policy.timeout,
                                )
                        handle_failure(
                            key, attempt,
                            CellTimeoutError(
                                f"attempt {attempt} exceeded the per-attempt "
                                f"timeout of {policy.timeout}s",
                                cell=key, attempt=attempt,
                            ),
                        )
        except BaseException:
            # Fail-fast exit (strict mode) or KeyboardInterrupt: drop
            # queued work immediately; running workers are abandoned.
            self.close(cancel=True)
            raise
