"""Fault injection for the engine's checkpoint persistence.

:mod:`repro.resilience.faults` is a deterministic, seedable fault-injection
framework (checkpoint flush failures and checkpoint byte corruption) armed
programmatically or through ``REPRO_FAULTS``.  Its consumer is the
checkpoint layer, which verifies section digests and restores from rotated
siblings (:mod:`repro.engine.checkpoint`).
"""

from repro.resilience.faults import (
    FaultPlan,
    FaultSpec,
    active_plan,
    clear_plan,
    fire,
    inject,
    install_plan,
    parse_faults,
)

__all__ = [
    "FaultPlan",
    "FaultSpec",
    "active_plan",
    "clear_plan",
    "fire",
    "inject",
    "install_plan",
    "parse_faults",
]
