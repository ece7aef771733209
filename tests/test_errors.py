"""Exception hierarchy contract."""

import pytest

from repro import errors


#: Non-class exports: the parallel failure taxonomy helpers.
HELPERS = {"FAILURE_KINDS", "classify_failure"}


def _error_classes():
    return [getattr(errors, n) for n in errors.__all__ if n not in HELPERS]


def test_all_errors_derive_from_repro_error():
    for cls in _error_classes():
        assert issubclass(cls, errors.ReproError)


def test_only_known_helpers_are_not_classes():
    for name in errors.__all__:
        obj = getattr(errors, name)
        assert isinstance(obj, type) == (name not in HELPERS)


def test_repro_error_is_exception():
    assert issubclass(errors.ReproError, Exception)
    with pytest.raises(errors.ReproError):
        raise errors.ModelError("boom")


#: The deliberate exceptions to the flat partition: refinements that
#: callers must be able to catch under their subsystem base class.
NESTED = {
    "CheckpointError",
    "CorruptArtifactError",
    "ParallelExecutionError",
    "AlgorithmLookupError",
    "WorkerCrashError",
    "CellTimeoutError",
    "CorruptResultError",
    "GridManifestError",
    "KernelBuildError",
}


def test_subsystem_errors_are_distinct():
    names = [
        n for n in errors.__all__
        if n != "ReproError" and n not in NESTED and n not in HELPERS
    ]
    classes = [getattr(errors, n) for n in names]
    assert len(set(classes)) == len(classes)
    # No subsystem error subclasses another (flat partition).
    for a in classes:
        for b in classes:
            if a is not b:
                assert not issubclass(a, b)


def test_io_errors_refine_experiment_error():
    assert issubclass(errors.CheckpointError, errors.ExperimentError)
    assert issubclass(errors.CorruptArtifactError, errors.ExperimentError)
    assert issubclass(errors.ParallelExecutionError, errors.ExperimentError)


def test_kernel_build_error_refines_schedule_error():
    assert issubclass(errors.KernelBuildError, errors.ScheduleError)
    assert errors.KernelBuildError("x", stderr="boom").stderr == "boom"


def test_algorithm_lookup_refines_optimization_error():
    assert issubclass(errors.AlgorithmLookupError, errors.OptimizationError)


def test_failure_taxonomy_contract():
    assert issubclass(errors.WorkerCrashError, errors.ParallelExecutionError)
    assert issubclass(errors.CorruptResultError, errors.ParallelExecutionError)
    assert issubclass(errors.CellTimeoutError, errors.ParallelExecutionError)
    # Pre-taxonomy callers matched the builtin; keep that working.
    assert issubclass(errors.CellTimeoutError, TimeoutError)
    assert issubclass(errors.GridManifestError, errors.ExperimentError)
    assert errors.WorkerCrashError("x").kind == "worker-death"
    assert errors.classify_failure(TimeoutError()) == "timeout"
    assert errors.classify_failure(ValueError("cell blew up")) == "cell-exception"
    assert (
        errors.classify_failure(errors.CorruptArtifactError("bits"))
        == "corrupt-result"
    )
