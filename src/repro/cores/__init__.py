"""k-core machinery: decomposition with its removal order, and incremental maintenance."""

from repro.cores.decomposition import (
    CoreDecomposition,
    anchored_core_decomposition,
    core_decomposition,
    core_numbers,
    degeneracy,
    k_core,
    k_shell,
)
from repro.cores.maintenance import CoreMaintainer, DeltaEffect

__all__ = [
    "CoreDecomposition",
    "anchored_core_decomposition",
    "core_decomposition",
    "core_numbers",
    "degeneracy",
    "k_core",
    "k_shell",
    "CoreMaintainer",
    "DeltaEffect",
]
