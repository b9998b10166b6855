"""Cycle-level out-of-order core: configuration, pipeline, simulation API."""

from .config import (PredictorConfig, ProcessorConfig, RunRequest,
                     size_models)
from .lsq import LoadStoreQueue
from .pipeline import DeadlockError, Pipeline, build_predictor
from .rename import RenameError, Renamer
from .rob import ReorderBuffer
from .simulator import SimulationResult, simulate
from .stats import (
    D_BP_BRANCH_MPKI_THRESHOLD,
    MEMORY_INTENSIVE_LLC_MPKI_THRESHOLD,
    SimStats,
)
from .uop import NEVER, Uop

__all__ = [
    "PredictorConfig",
    "ProcessorConfig",
    "RunRequest",
    "size_models",
    "LoadStoreQueue",
    "DeadlockError",
    "Pipeline",
    "build_predictor",
    "RenameError",
    "Renamer",
    "ReorderBuffer",
    "SimulationResult",
    "simulate",
    "D_BP_BRANCH_MPKI_THRESHOLD",
    "MEMORY_INTENSIVE_LLC_MPKI_THRESHOLD",
    "SimStats",
    "NEVER",
    "Uop",
]
