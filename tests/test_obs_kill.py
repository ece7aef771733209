"""Crash safety of streamed telemetry: SIGKILL a coordinator and a
``repro serve`` process mid-run and read what they left behind.

Every process persists by one rule — events append as emitted, finished
span trees append when the open-span stack empties, and the small
snapshots are replaced atomically — so a directory read after a SIGKILL
must pass the unchanged ``repro.obs/1`` validators, render with
``repro-analyze trace``, and hold the events of every finished tree.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

import repro
from repro.cli import main as analyze_main
from repro.obs import validate_run_dir
from repro.obs.schema import validate_trace_file

pytestmark = pytest.mark.skipif(
    not hasattr(signal, "SIGKILL"), reason="needs POSIX SIGKILL"
)

_SRC = str(Path(repro.__file__).resolve().parent.parent)


def _spans(obs_dir: Path) -> list[dict]:
    path = obs_dir / "trace.jsonl"
    if not path.exists():
        return []
    return [json.loads(line) for line in path.read_text().splitlines()]


def _polled_spans(obs_dir: Path) -> list[dict]:
    """The spans so far, or none if a read raced an append."""
    try:
        return _spans(obs_dir)
    except ValueError:
        return []


def _events(obs_dir: Path) -> list[dict]:
    return [
        json.loads(line)
        for line in (obs_dir / "events.jsonl").read_text().splitlines()
    ]


def _kill_when(argv: list[str], obs_dir: Path, ready, timeout=120.0):
    """Run ``python -m <argv>``; SIGKILL it once ``ready(spans)`` holds.

    Fails if the process exits on its own first (the run was too short
    to be killed mid-way, so the test would prove nothing).
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = _SRC + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.Popen(
        [sys.executable, "-m", *argv], env=env,
        stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
    )
    try:
        deadline = time.monotonic() + timeout
        while not ready(_polled_spans(obs_dir)):
            if proc.poll() is not None:
                pytest.fail(
                    f"run exited ({proc.returncode}) before it was killed: "
                    f"{proc.stderr.read().decode()[-2000:]}"
                )
            if time.monotonic() > deadline:
                pytest.fail("run produced no trace in time")
            time.sleep(0.02)
        proc.send_signal(signal.SIGKILL)
        proc.wait(timeout=30)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stderr.close()
    assert proc.returncode == -signal.SIGKILL


def _assert_readable(obs_dir: Path, capsys) -> None:
    assert validate_trace_file(obs_dir / "trace.jsonl") == []
    assert validate_run_dir(obs_dir) == []
    assert analyze_main(["trace", str(obs_dir), "--top", "5"]) == 0
    assert "trace summary" in capsys.readouterr().out


def _windows(spans: list[dict]) -> list[dict]:
    return [s for s in spans if s["name"] == "service.window"]


def test_killed_service_leaves_every_finished_window(tmp_path, capsys):
    obs_dir = tmp_path / "obs"
    _kill_when(
        ["repro.service.cli", "serve", "--dataset", "1", "--window", "60",
         "--windows", "100000", "--population", "16", "--generations", "4",
         "--seed", "3", "--obs-dir", str(obs_dir),
         "--output", str(tmp_path / "never.json")],
        obs_dir, lambda spans: len(_windows(spans)) >= 2,
    )
    assert not (tmp_path / "never.json").exists()
    _assert_readable(obs_dir, capsys)

    windows = _windows(_spans(obs_dir))
    assert len(windows) >= 2
    indices = [w["attrs"]["index"] for w in windows]
    assert indices == list(range(len(indices)))
    finished = {
        e["fields"]["label"] for e in _events(obs_dir)
        if e["event"] == "run.finished"
    }
    assert {f"window-{i}" for i in indices} <= finished
    # The metrics snapshot was rewritten when the last window landed.
    metrics = json.loads((obs_dir / "metrics.json").read_text())
    assert metrics["service_dispatch_seconds"]["count"] >= len(windows)


def test_killed_coordinator_leaves_every_finished_run(tmp_path, capsys):
    obs_dir = tmp_path / "obs"
    _kill_when(
        ["repro.cli", "report", "--dataset", "1", "--scale", "0.05",
         "--population", "16", "--seed", "3", "--obs-dir", str(obs_dir)],
        obs_dir,
        lambda spans: any(s["name"] == "ga.run" for s in spans),
    )
    _assert_readable(obs_dir, capsys)
    spans = _spans(obs_dir)
    runs = [s for s in spans if s["name"] == "ga.run"]
    assert runs
    started = [e for e in _events(obs_dir) if e["event"] == "run.started"]
    assert len(started) >= len(runs)
