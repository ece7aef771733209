"""Building, caching and loading the batch kernel's C library."""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import repro
from repro.errors import KernelBuildError
from repro.sim import _native
from repro.sim.evaluator import ScheduleEvaluator

SRC_DIR = str(Path(repro.__file__).resolve().parent.parent)


@pytest.fixture
def cold(monkeypatch, tmp_path):
    """No library loaded in this process and an empty cache directory."""
    monkeypatch.setattr(_native, "_library", None)
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "xdg"))
    return tmp_path / "xdg" / "repro"


def batch_ev(system, trace):
    return ScheduleEvaluator(system, trace, kernel_method="batch")


def test_second_construction_runs_no_compiler(
    monkeypatch, tiny_system, tiny_trace
):
    batch_ev(tiny_system, tiny_trace)

    def no_subprocess(*args, **kwargs):
        raise AssertionError(f"unexpected subprocess: {args}")

    monkeypatch.setattr(_native.subprocess, "run", no_subprocess)
    batch_ev(tiny_system, tiny_trace)


def test_warm_cache_is_loaded_not_rebuilt(
    monkeypatch, cold, tiny_system, tiny_trace
):
    batch_ev(tiny_system, tiny_trace)  # builds into the cold cache
    assert len(list(cold.glob("*.so"))) == 1
    monkeypatch.setattr(_native, "_library", None)  # a "new process"
    calls = []
    real_run = subprocess.run

    def recording_run(cmd, *args, **kwargs):
        calls.append(cmd)
        return real_run(cmd, *args, **kwargs)

    monkeypatch.setattr(_native.subprocess, "run", recording_run)
    batch_ev(tiny_system, tiny_trace)
    assert calls and all("--version" in cmd for cmd in calls)


def test_cache_key_covers_source_flags_and_compiler():
    base = _native.cache_key(b"int x;", _native.CFLAGS, "gcc 12")
    assert base == _native.cache_key(b"int x;", _native.CFLAGS, "gcc 12")
    assert base != _native.cache_key(b"int y;", _native.CFLAGS, "gcc 12")
    assert base != _native.cache_key(
        b"int x;", _native.CFLAGS + ("-O3",), "gcc 12"
    )
    assert base != _native.cache_key(b"int x;", _native.CFLAGS, "gcc 13")


def test_unwritable_cache_dir_falls_back_to_temp(
    monkeypatch, tmp_path, tiny_system, tiny_trace
):
    monkeypatch.setattr(_native, "_library", None)
    blocker = tmp_path / "not-a-dir"
    blocker.write_text("")
    monkeypatch.setenv("XDG_CACHE_HOME", str(blocker))
    temp = tmp_path / "tmp"
    temp.mkdir()
    monkeypatch.setattr(_native.tempfile, "gettempdir", lambda: str(temp))
    ev = batch_ev(tiny_system, tiny_trace)
    built = list(temp.glob("repro-*/*.so"))
    assert len(built) == 1
    assert ev.evaluate_batch([[0] * 6], [list(range(6))])[0].shape == (1,)


def test_missing_compiler_raises_with_hint(
    monkeypatch, cold, tiny_system, tiny_trace
):
    monkeypatch.setattr(_native, "_compiler", lambda: ["/nonexistent/cc"])
    with pytest.raises(KernelBuildError, match="batch-reference") as info:
        batch_ev(tiny_system, tiny_trace)
    assert "/nonexistent/cc" in info.value.stderr


def test_failing_compile_carries_stderr(
    monkeypatch, cold, tmp_path, tiny_system, tiny_trace
):
    fake = tmp_path / "fake-cc"
    fake.write_text(textwrap.dedent("""\
        #!/bin/sh
        if [ "$1" = "--version" ]; then echo "fake-cc 1.0"; exit 0; fi
        echo "fatal: no kernels today" >&2
        exit 1
    """))
    fake.chmod(0o755)
    monkeypatch.setattr(_native, "_compiler", lambda: [str(fake)])
    with pytest.raises(KernelBuildError, match="batch-reference") as info:
        batch_ev(tiny_system, tiny_trace)
    assert "no kernels today" in info.value.stderr
    assert list(cold.iterdir()) == []  # no partial library left behind
    # The oracle kernel needs no compiler.
    ScheduleEvaluator(tiny_system, tiny_trace, kernel_method="batch-reference")


def test_concurrent_cold_builds_both_load(tmp_path):
    script = textwrap.dedent("""\
        import numpy as np
        from repro.model.system import SystemModel
        from repro.sim.makespan import MakespanEnergyEvaluator
        from repro.workload.trace import Trace
        system = SystemModel.from_matrices(np.ones((1, 2)), np.ones((1, 2)))
        trace = Trace(task_types=np.zeros(3, dtype=int),
                      arrival_times=np.zeros(3), window=1.0)
        ev = MakespanEnergyEvaluator(system, trace)
        e, neg_makespan = ev.evaluate_batch([[0, 1, 0]], [[0, 1, 2]])
        print(float(e[0]), float(neg_makespan[0]))
    """)
    env = dict(os.environ, XDG_CACHE_HOME=str(tmp_path / "xdg"))
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC_DIR, env.get("PYTHONPATH")) if p
    )
    procs = [
        subprocess.Popen([sys.executable, "-c", script], env=env,
                         stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                         text=True)
        for _ in range(2)
    ]
    outputs = [p.communicate(timeout=120) for p in procs]
    for proc, (out, err) in zip(procs, outputs):
        assert proc.returncode == 0, err
        assert out.split() == ["3.0", "-2.0"]
    cache = tmp_path / "xdg" / "repro"
    assert len(list(cache.glob("*.so"))) == 1
    assert not list(cache.glob(".*.tmp"))
