"""Golden traces: the full (merges, best) trace of six fixed solves.

Merge counts are deterministic, so any change to the search that moves
one of these traces has changed what the search does, not just how fast
it does it.  The first three were recorded from the program before any
performance work (they are the benchmark's references for the same
solves); counter16 seed 0 (long forced-merge chains) and sierpinski16
seed 1 (many deviating picks) were recorded before the conflict check
moved to the key index; random10 grid 8 (100 cells, 3 colours) was
recorded while the index still left grids under 128 cells to the plain
scan, before its threshold came down to 64 parts.  They are copied here
so the fast tier checks them on every run.

The outputs are pinned too: a SHA-256 over every incumbent's emitted
tile set and partition labels, in adoption order, for each golden solve
and for the exact proofs of ``PROVEN_OPTIMA``.  These digests were
recorded from the program before incumbent adoption was reworked for
speed, so a faster adoption must still hand out byte-identical tile
sets, made of ``Tile`` values.

The nodes an observer sees are pinned as well: a node count and a
SHA-256 over every ``NodeInfo`` field of the observed node stream of two
keyed solves (grids of at least 64 cells), recorded while an observed
solve still built the key index, so an observed solve must visit the
same nodes whether or not it builds one.
"""

import hashlib
from unittest import mock

import pytest

from patsolve import (
    SolveConfig,
    Tile,
    emit_tileset,
    gen_binary_counter,
    gen_random,
    gen_sierpinski,
    solve,
)
import patsolve.search as search_module
from helpers import PROVEN_OPTIMA

SIERPINSKI16_SEED0 = (
    (0, 256), (1, 255), (2, 254), (3, 253), (4, 252), (5, 251), (6, 250),
    (7, 249), (8, 248), (9, 247), (10, 246), (11, 245), (12, 244), (13, 243),
    (14, 242), (15, 241), (30, 227), (31, 226), (32, 225), (47, 212),
    (49, 210), (64, 196), (81, 180), (98, 164), (114, 148), (131, 132),
    (148, 116), (164, 100), (181, 84), (198, 68), (214, 52), (231, 36),
    (247, 20), (263, 4),
)

RANDOM16_GRID100 = (
    (0, 256), (1, 255), (2, 254), (3, 253), (4, 252), (5, 251), (6, 250),
    (7, 249), (8, 248), (9, 247), (10, 246), (11, 245), (12, 244), (13, 243),
    (14, 242), (16, 241), (31, 238), (42, 237), (56, 234), (60, 232),
    (61, 231), (65, 230), (68, 229), (75, 226), (78, 225), (90, 224),
    (103, 222), (127, 219), (136, 218), (151, 216), (161, 215), (163, 213),
    (177, 211), (178, 210), (209, 208), (223, 206), (225, 204), (241, 203),
    (251, 201), (265, 200), (268, 199), (269, 198), (273, 195), (281, 194),
    (320, 192), (328, 191), (343, 189), (352, 188), (353, 187), (398, 184),
    (413, 183), (418, 179), (463, 177), (467, 176), (471, 175), (514, 173),
    (529, 172), (543, 167), (552, 166), (576, 164), (578, 163), (598, 162),
    (617, 161), (658, 160), (680, 159), (746, 156), (748, 155), (782, 154),
    (794, 153), (803, 152), (823, 150), (828, 147), (844, 146), (866, 145),
    (893, 143), (923, 141), (946, 140), (1000, 139), (1034, 137), (1036, 135),
    (1063, 133), (1064, 132), (1104, 131), (1116, 130), (1127, 129),
    (1144, 128), (1175, 126), (1208, 124), (1240, 123), (1244, 120),
    (1276, 118), (1312, 115), (1342, 114), (1343, 113), (1358, 111),
    (1412, 109), (1414, 108), (1445, 106), (1451, 104), (1457, 103),
    (1460, 102), (1483, 100), (1545, 99), (1547, 98), (1587, 96), (1601, 95),
    (1642, 94), (1698, 93), (1736, 92), (1769, 91), (1775, 90), (1809, 88),
    (1848, 84), (1849, 83), (1868, 82), (1883, 80), (1915, 79), (1949, 78),
    (2004, 76), (2006, 75), (2010, 74), (2058, 72), (2901, 71), (3879, 70),
    (6248, 69), (7400, 68),
)

COUNTER16_SEED0 = (
    (0, 256), (1, 255), (2, 254), (3, 253), (4, 252), (5, 251), (6, 250),
    (7, 249), (8, 248), (9, 247), (10, 246), (11, 245), (12, 244), (13, 243),
    (14, 242), (15, 241), (31, 228), (32, 227), (33, 226), (48, 212),
    (65, 196), (82, 180), (89, 179), (104, 167), (105, 166), (112, 165),
    (126, 152), (127, 151), (152, 138), (154, 137), (156, 136), (171, 122),
    (173, 121), (194, 107), (197, 106), (214, 91), (218, 88), (235, 76),
    (243, 73), (244, 72), (257, 59), (274, 58), (297, 46), (298, 45),
    (310, 44), (324, 31), (345, 16), (12618, 15),
)

SIERPINSKI16_SEED1 = (
    (0, 256), (1, 255), (2, 254), (3, 253), (4, 252), (5, 251), (6, 250),
    (7, 249), (8, 248), (9, 247), (10, 246), (11, 245), (12, 244), (13, 243),
    (14, 242), (15, 241), (16, 240), (18, 239), (32, 225), (33, 224),
    (35, 223), (50, 210), (53, 208), (68, 194), (84, 178), (100, 162),
    (117, 146), (134, 130), (150, 114), (166, 98), (200, 85), (201, 84),
    (220, 71), (222, 69), (240, 56), (243, 54), (263, 41), (265, 39),
    (270, 37), (336, 28), (344, 27), (354, 25), (385, 24), (579, 23),
    (1662, 22),
)

RANDOM10_GRID8 = (
    (0, 100), (1, 99), (2, 98), (3, 97), (4, 96), (5, 95), (6, 94), (7, 93),
    (8, 92), (12, 88), (22, 87), (23, 86), (29, 85), (30, 84), (32, 83),
    (33, 82), (37, 81), (41, 80), (44, 79), (45, 78), (65, 77), (68, 76),
    (73, 75), (87, 74), (93, 73), (97, 72), (100, 71), (105, 67), (106, 66),
    (119, 65), (125, 64), (133, 63), (145, 62), (153, 61), (167, 60),
    (170, 58), (172, 57), (173, 56), (188, 55), (193, 53), (205, 52),
    (217, 51), (228, 49), (239, 48), (241, 46), (248, 44), (254, 42),
    (267, 41), (271, 40), (340, 39), (352, 37), (353, 36), (366, 35),
    (428, 34), (11418, 33),
)

EXACT_5X5_GRID1000 = (
    (0, 25), (1, 24), (2, 23), (3, 22), (4, 21), (9, 19), (10, 18), (12, 17),
    (15, 16), (17, 15), (19, 13), (20, 12), (29, 11), (33, 10), (35, 8),
    (55, 7), (2411, 6),
)


# SHA-256 of the incumbents' tile sets and labels (see the module docstring)
OUTPUT_DIGESTS = {
    "counter16/seed0":
        "f7d986aee114c2cc5f4b246e0f8fe3ed5af04939b619a1efce32e8ef654480dc",
    "exact_random/5x5/grid1000":
        "b908031cd6d2cc40c9fc91a68f7e5016162359bd7adfe7e96a1d1e6b5df02738",
    "random10/grid8":
        "9313a3dad00b17b944ad5860a232f97b8ce35b02171351142d9321c940c46316",
    "random16/grid100":
        "d3595942e693160cc2a3f64060393e36b22030eac1a0a511e96947516384e432",
    "sierpinski16/seed0":
        "578ef6a425c417ec183d793eef7fe142762fe1ad521660b2bc37cb4b4a92db77",
    "sierpinski16/seed1":
        "9121273700efd8bdfb9f5bdc08b2231823cddd366d819c80f14ef7cccb156721",
    "proven_optima":
        "dfacf61fc06343682f5a23fcd4007c91bea143cb412d9491f6121f06de8092d0",
}

GOLDEN = {
    "sierpinski16/seed0": (
        lambda: gen_sierpinski(16, 16),
        SolveConfig.anytime(2000, seed=0),
        SIERPINSKI16_SEED0, 2000, 4, False,
    ),
    "sierpinski16/seed1": (
        lambda: gen_sierpinski(16, 16),
        SolveConfig.anytime(20_000, seed=1),
        SIERPINSKI16_SEED1, 20_000, 22, False,
    ),
    "counter16/seed0": (
        lambda: gen_binary_counter(16, 16),
        SolveConfig.anytime(20_000, seed=0),
        COUNTER16_SEED0, 20_000, 15, False,
    ),
    "random16/grid100": (
        lambda: gen_random(16, 16, 2, 100),
        SolveConfig.anytime(7500, seed=100),
        RANDOM16_GRID100, 7500, 68, False,
    ),
    "random10/grid8": (
        lambda: gen_random(10, 10, 3, 8),
        SolveConfig.anytime(20_000, seed=8),
        RANDOM10_GRID8, 20_000, 33, False,
    ),
    "exact_random/5x5/grid1000": (
        lambda: gen_random(5, 5, 2, 1000),
        SolveConfig.exact(seed=1000),
        EXACT_5X5_GRID1000, 8506, 6, True,
    ),
}


def solve_hashing_incumbents(grid, cfg, digest):
    """Solve, feeding every incumbent's tile-set text and partition labels
    to ``digest``; every tile must be a ``Tile``."""

    def record(merges, size, system, partition):
        assert all(type(t) is Tile for t in system.tiles)
        digest.update(emit_tileset(system).encode())
        digest.update((" ".join(map(str, partition.labels)) + "\n").encode())

    return solve(grid, cfg, on_incumbent=record)


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_trace(name):
    make_grid, cfg, trace, merges, best, proven = GOLDEN[name]
    grid = make_grid()
    digest = hashlib.sha256()
    result = solve_hashing_incumbents(grid, cfg, digest)
    assert digest.hexdigest() == OUTPUT_DIGESTS[name]
    assert result.trace == trace
    assert result.merges_performed == merges
    assert result.best_size == best
    assert len(result.best_system.tiles) == best
    assert result.proven_optimal is proven


def test_golden_outputs_of_proven_optima():
    digest = hashlib.sha256()
    for _, make_grid, n, _ in PROVEN_OPTIMA:
        solve_hashing_incumbents(make_grid(n, n), SolveConfig.exact(seed=0), digest)
    assert digest.hexdigest() == OUTPUT_DIGESTS["proven_optima"]


# node count and SHA-256 of the observed node stream (see the module docstring)
OBSERVED_STREAMS = {
    "sierpinski16/seed0": (
        lambda: gen_sierpinski(16, 16), SolveConfig.anytime(2000, seed=0),
        2001, "9ed01c453d01b9a266b7fc75631b54f76570130209024106ca098228a5966854",
    ),
    "random16/grid100": (
        lambda: gen_random(16, 16, 2, 100), SolveConfig.anytime(2000, seed=100),
        2001, "f8370ab24372fb4f35eee106b7c05b4fe148be47df660946de42963373d3d869",
    ),
}


def observed_stream(grid, cfg):
    """The number of nodes an observed solve visits and a SHA-256 over
    every field of each ``NodeInfo`` it is handed, cliques sorted."""
    digest = hashlib.sha256()
    count = [0]

    def record(info):
        count[0] += 1
        digest.update(repr((
            info.signature,
            info.part_anchors,
            tuple(sorted(c) for c in info.cliques),
            info.num_parts,
            info.bound,
            info.constructible,
            info.merges,
        )).encode())

    solve(grid, cfg, observer=record)
    return count[0], digest.hexdigest()


@pytest.mark.parametrize("name", sorted(OBSERVED_STREAMS))
def test_observed_node_stream(name):
    make_grid, cfg, nodes, sha = OBSERVED_STREAMS[name]
    assert observed_stream(make_grid(), cfg) == (nodes, sha)


def test_observed_solves_build_no_key_index():
    # an observed solve makes and scans every child, so even on a grid the
    # key index serves it builds none; a plain solve of the same grid does
    engines = []

    class Engine(search_module._Engine):
        def _run(self):
            engines.append(self)
            return super()._run()

    make_grid, cfg, _, _ = OBSERVED_STREAMS["sierpinski16/seed0"]
    grid = make_grid()
    assert grid.m * grid.n >= search_module._KEYED_PARTS
    with mock.patch.object(search_module, "_Engine", Engine):
        solve(grid, cfg, observer=lambda info: None)
        solve(grid, cfg)
    assert engines[0].keys is None and engines[1].keys is not None
