"""Simulated multicore machine substrate.

The hardware substitution documented in DESIGN.md: a parametric machine
model (:mod:`spec`), an LRU model of the shared L3 driven by the real
schedules' access streams (:mod:`cache`, :mod:`streams`, :mod:`measure`
-- the LIKWID counter substitute), a simulated PMU with likwid-style
marker regions and counter groups (:mod:`pmu`), a discrete-event
execution simulator (:mod:`simulator`) and the calibration provenance
(:mod:`calibration`).
"""

from .cache import BatchLRU, CacheStats, LRUCache
from .calibration import CalibrationReport, validate_calibration
from .counters import SUBSTRATE_COUNTERS, SubstrateCounters, timed_section
from .measure import (
    TrafficResult,
    clear_substrate_caches,
    measure_sweep_code_balance,
    measure_tiled_code_balance,
)
from .native import NativeLRU, make_lru, native_available
from .pmu import (
    GLOBAL_PMU,
    PERF_GROUPS,
    PMU,
    PerfGroup,
    PerfRegion,
    PerfSample,
    resolve_groups,
)
from .simulator import SimResult, simulate_sweep, simulate_tiled, tg_efficiency
from .spec import HASWELL_EP, MachineSpec
from .streams import (
    ALL_ARRAYS,
    ARRAY_GROUPS,
    CLASS_RECIPES,
    COMPONENT_RECIPES,
    FUSED,
    PER_COMPONENT,
    AccessOp,
    ArrayGroup,
    BatchStreamEmitter,
    Layout,
    StreamEmitter,
)

__all__ = [
    "ALL_ARRAYS",
    "ARRAY_GROUPS",
    "AccessOp",
    "ArrayGroup",
    "BatchLRU",
    "BatchStreamEmitter",
    "CLASS_RECIPES",
    "COMPONENT_RECIPES",
    "CacheStats",
    "CalibrationReport",
    "FUSED",
    "GLOBAL_PMU",
    "HASWELL_EP",
    "LRUCache",
    "Layout",
    "MachineSpec",
    "NativeLRU",
    "PER_COMPONENT",
    "PERF_GROUPS",
    "PMU",
    "PerfGroup",
    "PerfRegion",
    "PerfSample",
    "SUBSTRATE_COUNTERS",
    "SimResult",
    "StreamEmitter",
    "SubstrateCounters",
    "TrafficResult",
    "clear_substrate_caches",
    "make_lru",
    "measure_sweep_code_balance",
    "measure_tiled_code_balance",
    "native_available",
    "resolve_groups",
    "simulate_sweep",
    "simulate_tiled",
    "tg_efficiency",
    "timed_section",
    "validate_calibration",
]
