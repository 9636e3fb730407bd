"""diffadvect: desk-scale distributed particle advection with diffusive load balancing."""

from .balance import select_particles, synchronous_step
from .config import RunConfig, load_config_file
from .errors import (
    ConfigError,
    DiffAdvectError,
    DomainError,
    InvariantError,
    OutOfBlockError,
    RoundLimitError,
)
from .field import AnalyticField, Block, evaluate_field, rasterize_block, sample_trilinear
from .metrics import lif, speedup
from .runtime import RunResult, Simulator
from .topology import ProcessGrid, decompose, neighbor_table, rank_to_coords

__version__ = "0.1.0"

__all__ = [
    "AnalyticField",
    "Block",
    "ConfigError",
    "DiffAdvectError",
    "DomainError",
    "InvariantError",
    "OutOfBlockError",
    "ProcessGrid",
    "RoundLimitError",
    "RunConfig",
    "RunResult",
    "Simulator",
    "decompose",
    "evaluate_field",
    "lif",
    "load_config_file",
    "neighbor_table",
    "rank_to_coords",
    "rasterize_block",
    "sample_trilinear",
    "select_particles",
    "speedup",
    "synchronous_step",
]
