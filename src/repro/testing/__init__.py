"""Deterministic test harnesses for the framework's recovery paths.

:mod:`repro.testing.faults` injects crashes, hangs, transient failures,
and artifact corruption at well-defined points of the execution layer,
so checkpoint/resume and the retrying experiment runner are exercised
by fast deterministic tests rather than luck.
:mod:`repro.testing.oracles` holds the reference engines that
equivalence tests compare the production ones against.
"""

from repro.testing.faults import (
    FaultPlan,
    FaultRule,
    InjectedFault,
    corrupt_artifact,
)

__all__ = ["FaultPlan", "FaultRule", "InjectedFault", "corrupt_artifact"]
