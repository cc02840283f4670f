"""View trees: higher-order factorized IVM (Sections 3.2 and 4.1)."""

from .changes import (
    EpochGapError,
    MaterializedView,
    OutputDelta,
    RETAIN_EPOCHS,
)
from .codegen import (
    DeltaKernel,
    EnumKernel,
    compile_delta_kernel,
    compile_enum_kernel,
    shape_cache_size,
)
from .compile import DeltaPlan, compile_delta_plans
from .engine import ViewNode, ViewTreeEngine
from .enumplan import EnumPlan, compile_enum_plan
from .strategies import (
    STRATEGIES,
    EagerFact,
    EagerList,
    LazyFact,
    LazyList,
    MaintenanceStrategy,
    make_strategy,
)

__all__ = [
    "DeltaKernel",
    "DeltaPlan",
    "EagerFact",
    "EnumKernel",
    "EnumPlan",
    "EpochGapError",
    "MaterializedView",
    "OutputDelta",
    "RETAIN_EPOCHS",
    "compile_delta_kernel",
    "compile_delta_plans",
    "compile_enum_kernel",
    "compile_enum_plan",
    "EagerList",
    "LazyFact",
    "LazyList",
    "MaintenanceStrategy",
    "STRATEGIES",
    "ViewNode",
    "ViewTreeEngine",
    "make_strategy",
    "shape_cache_size",
]
