"""Golden traces: the full (merges, best) trace of three fixed solves.

Merge counts are deterministic, so any change to the search that moves
one of these traces has changed what the search does, not just how fast
it does it.  The values were recorded from the program before any
performance work (they are the benchmark's references for the same
solves) and are copied here so the fast tier checks them on every run.
"""

import pytest

from patsolve import SolveConfig, gen_random, gen_sierpinski, solve

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

EXACT_5X5_GRID1000 = (
    (0, 25), (1, 24), (2, 23), (3, 22), (4, 21), (9, 19), (10, 18), (12, 17),
    (15, 16), (17, 15), (19, 13), (20, 12), (29, 11), (33, 10), (35, 8),
    (55, 7), (2411, 6),
)


GOLDEN = {
    "sierpinski16/seed0": (
        lambda: gen_sierpinski(16, 16),
        SolveConfig.anytime(2000, seed=0),
        SIERPINSKI16_SEED0, 2000, 4, False,
    ),
    "random16/grid100": (
        lambda: gen_random(16, 16, 2, 100),
        SolveConfig.anytime(7500, seed=100),
        RANDOM16_GRID100, 7500, 68, False,
    ),
    "exact_random/5x5/grid1000": (
        lambda: gen_random(5, 5, 2, 1000),
        SolveConfig.exact(seed=1000),
        EXACT_5X5_GRID1000, 8506, 6, True,
    ),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_trace(name):
    make_grid, cfg, trace, merges, best, proven = GOLDEN[name]
    grid = make_grid()
    result = solve(grid, cfg)
    assert result.trace == trace
    assert result.merges_performed == merges
    assert result.best_size == best
    assert len(result.best_system.tiles) == best
    assert result.proven_optimal is proven
