"""patsolve: minimum tile sets for coloured rectangular patterns.

Given a k-coloured m x n grid, find the smallest deterministic tile
system (temperature 2, L-shaped seed) whose unique terminal assembly
reproduces the colouring.  The package provides exact and anytime
branch-and-bound search, an independent assembly simulator used to
verify every solution, and a brute-force oracle for tiny instances.
"""

from .atam import (
    Assembly,
    Nondeterministic,
    SimulationResult,
    Stuck,
    UniqueTerminal,
    VerificationReport,
    attachable_tiles,
    simulate,
    verify_solution,
)
from .mgta import (
    Constructibility,
    GlueAssignment,
    build_mgta,
    constructibility,
    extract_tas,
    grid_adjacencies,
    merge_tiles,
)
from .oracle import OracleResult, brute_constructible, enumerate_min_tileset, iter_set_partitions
from .partition import (
    Partition,
    canonical_signature,
    cell_coords,
    cell_index,
    initial_partition,
    merge_parts,
    partition_from_labels,
    refines,
)
from .pattern import (
    ColorGrid,
    PatternError,
    color_partition,
    emit_pattern,
    gen_binary_counter,
    gen_random,
    gen_sierpinski,
    parse_pattern,
)
from .rng import SplitMix64
from .search import NodeInfo, SolveConfig, SolveResult, solve
from .tiles import TEMPERATURE, Tile, TileSystem, TilesetError, emit_tileset, glue_strength, parse_tileset

__version__ = "0.1.0"
