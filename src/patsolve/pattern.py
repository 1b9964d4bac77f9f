"""Coloured rectangular patterns: the solver's input.

A pattern is a k-colouring of an m x n grid.  The file format is plain
text: a header line ``m n k``, then n rows of m space-separated colour
indices.  Rows appear north to south, so the first data line is row
y = n and the last is row y = 1; within a row, x runs 1..m left to
right.  Colour indices lie in [0, k-1] and every colour must occur
somewhere (k reflects the colours actually used, not an upper bound).

Canonical emission uses single spaces, newline-terminated lines and no
trailing whitespace; ``emit_pattern(parse_pattern(t))`` reproduces any
valid input byte for byte once whitespace is canonicalized.
"""

from __future__ import annotations

from dataclasses import dataclass

from .partition import Partition, cell_index
from .rng import SplitMix64

# The largest grid, in cells, that a pattern may have.  Generators and the
# parser check it before they allocate anything, so an oversized request
# is a PatternError (CLI exit 1), not a MemoryError or an out-of-memory
# kill.  2^20 cells is a 1024x1024 grid, far beyond what the search can
# solve, while its cell arrays take only tens of megabytes.
MAX_CELLS = 1 << 20

# gen_random gives up after this many draws that miss a colour: with k
# close to m*n an onto colouring is too rare to wait for (5x5 with k=25
# takes about 5.8e9 draws on average)
_MAX_DRAWS = 1000


class PatternError(ValueError):
    """Malformed pattern text or an invalid grid construction."""


def _check_dims(m: int, n: int) -> None:
    """Raise PatternError unless an m x n grid is nonempty and has at
    most MAX_CELLS cells."""
    if m < 1 or n < 1:
        raise PatternError("grid dimensions must be positive")
    if m * n > MAX_CELLS:
        raise PatternError(
            f"a {m}x{n} grid has {m * n} cells, more than MAX_CELLS={MAX_CELLS}"
        )


def check_random_dims(m: int, n: int, k: int) -> None:
    """Raise PatternError unless gen_random accepts an m x n grid with k
    colours: checks _check_dims and 1 <= k <= m*n, allocating nothing."""
    _check_dims(m, n)
    if not 1 <= k <= m * n:
        raise PatternError(f"need 1 <= k <= {m * n}, got k={k}")


@dataclass(frozen=True)
class ColorGrid:
    """A k-coloured m x n grid.

    ``cells[i]`` is the colour of the cell with flat index i in canonical
    (y ascending, then x ascending) order.
    """

    m: int
    n: int
    k: int
    cells: tuple[int, ...]

    def __post_init__(self):
        if self.m < 1 or self.n < 1:
            raise PatternError("grid dimensions must be positive")
        if self.k < 1:
            raise PatternError("need at least one colour")
        if len(self.cells) != self.m * self.n:
            raise PatternError(
                f"expected {self.m * self.n} cells, got {len(self.cells)}"
            )
        used = set(self.cells)
        if not all(0 <= c < self.k for c in used):
            raise PatternError("colour index out of range")
        # every colour is in range, so the colouring is onto when k colours
        # occur, and otherwise one of the first len(used) + 1 is missing;
        # nothing here is sized by k, which a header may set to anything
        if len(used) != self.k:
            missing = next(c for c in range(len(used) + 1) if c not in used)
            raise PatternError(f"colouring is not onto: colour {missing} unused")

    def color(self, x: int, y: int) -> int:
        return self.cells[cell_index(x, y, self.m)]


def parse_pattern(text: str) -> ColorGrid:
    """Parse the pattern file format.  Raises PatternError on malformed input."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise PatternError("empty pattern file")
    header = lines[0].split()
    if len(header) != 3:
        raise PatternError(f"header must be 'm n k', got {lines[0]!r}")
    try:
        m, n, k = (int(tok) for tok in header)
    except ValueError:
        raise PatternError(f"non-integer in header {lines[0]!r}") from None
    if m < 1 or n < 1 or k < 1:
        raise PatternError("header values must be positive")
    rows = [line.split() for line in lines[1:]]
    if len(rows) != n:
        raise PatternError(f"expected {n} rows, got {len(rows)}")
    # Every width is checked before the cell array exists, so its size is
    # bounded by the text's own length, whatever the header claims, and
    # then by MAX_CELLS.
    for row_no, toks in enumerate(rows):
        if len(toks) != m:
            raise PatternError(
                f"row y={n - row_no}: expected {m} entries, got {len(toks)}"
            )
    _check_dims(m, n)
    cells = [0] * (m * n)
    for row_no, toks in enumerate(rows):
        y = n - row_no  # first data row is the north edge
        for col, tok in enumerate(toks):
            try:
                c = int(tok)
            except ValueError:
                raise PatternError(f"row y={y}: non-integer {tok!r}") from None
            if not 0 <= c < k:
                raise PatternError(f"row y={y}: colour {c} out of range [0,{k - 1}]")
            cells[cell_index(col + 1, y, m)] = c
    return ColorGrid(m, n, k, tuple(cells))


def emit_pattern(grid: ColorGrid) -> str:
    """Canonical text form of a grid (north row first, single spaces)."""
    out = [f"{grid.m} {grid.n} {grid.k}\n"]
    for y in range(grid.n, 0, -1):
        row = " ".join(str(grid.color(x, y)) for x in range(1, grid.m + 1))
        out.append(row + "\n")
    return "".join(out)


def _grid_from_binary(m: int, n: int, bits: list[int]) -> ColorGrid:
    # Degenerate shapes can leave one of the two colours unused; emit those
    # as a 1-colour grid rather than violate the onto invariant.
    if len(set(bits)) == 1:
        return ColorGrid(m, n, 1, (0,) * (m * n))
    return ColorGrid(m, n, 2, tuple(bits))


def gen_sierpinski(m: int, n: int) -> ColorGrid:
    """Sierpinski parity pattern: a(x,1) = a(1,y) = 1 and
    a(x,y) = a(x-1,y) XOR a(x,y-1).  Colour 1 is black, 0 white."""
    _check_dims(m, n)
    bits = [0] * (m * n)
    for y in range(1, n + 1):
        for x in range(1, m + 1):
            if x == 1 or y == 1:
                v = 1
            else:
                v = bits[cell_index(x - 1, y, m)] ^ bits[cell_index(x, y - 1, m)]
            bits[cell_index(x, y, m)] = v
    return _grid_from_binary(m, n, bits)


def gen_binary_counter(m: int, n: int) -> ColorGrid:
    """Binary counter pattern: row y spells the number y in binary with
    the least significant bit at x = 1, so c(x,y) = bit (x-1) of y."""
    _check_dims(m, n)
    bits = [0] * (m * n)
    for y in range(1, n + 1):
        for x in range(1, m + 1):
            bits[cell_index(x, y, m)] = (y >> (x - 1)) & 1
    return _grid_from_binary(m, n, bits)


def gen_random(m: int, n: int, k: int, seed: int) -> ColorGrid:
    """Uniform random k-colouring of the grid, redrawn wholesale until every
    colour occurs.  Driven by SplitMix64(seed), one draw per cell per
    attempt, so equal seeds give equal grids everywhere.  Raises
    PatternError when _MAX_DRAWS attempts all miss a colour."""
    check_random_dims(m, n, k)
    gen = SplitMix64(seed)
    mn = m * n
    for _ in range(_MAX_DRAWS):
        cells = [gen.randrange(k) for _ in range(mn)]
        if len(set(cells)) == k:
            return ColorGrid(m, n, k, tuple(cells))
    raise PatternError(
        f"no random {m}x{n} colouring with all {k} colours in {_MAX_DRAWS} draws"
    )


def color_partition(grid: ColorGrid) -> Partition:
    """The partition of cells by colour; part i is the preimage of colour i."""
    return Partition(grid.m, grid.n, grid.cells)
