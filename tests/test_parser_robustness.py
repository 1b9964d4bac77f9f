"""Character-level edits of valid pattern and tile-set files must give a
parsed value or the format's own error, never another exception."""

from hypothesis import given, settings
from hypothesis import strategies as st

from patsolve import (
    PatternError,
    TilesetError,
    emit_pattern,
    emit_tileset,
    parse_pattern,
    parse_tileset,
)
from helpers import small_grids, tile_systems

# characters the formats are made of, plus a few that often trip parsers
_FORMAT_CHARS = "0123456789 \n\t=-+_.xyNESWtilecorsdmpaW"
_chars = st.sampled_from(_FORMAT_CHARS) | st.characters()


@st.composite
def mangled(draw, text_strategy):
    """A valid file with one to eight random insertions, deletions and
    replacements of single characters."""
    text = draw(text_strategy)
    for _ in range(draw(st.integers(1, 8))):
        i = draw(st.integers(0, len(text)))
        op = draw(st.sampled_from(("insert", "delete", "replace")))
        if op == "insert":
            text = text[:i] + draw(_chars) + text[i:]
        elif op == "delete":
            text = text[:i] + text[i + 1 :]
        else:
            text = text[:i] + draw(_chars) + text[i + 1 :]
    return text


@settings(max_examples=300, deadline=None)
@given(text=mangled(small_grids(max_cells=16, max_colours=4).map(emit_pattern)))
def test_pattern_parser_raises_only_pattern_error(text):
    try:
        parse_pattern(text)
    except PatternError:
        pass


@settings(max_examples=300, deadline=None)
@given(text=mangled(tile_systems(max_glue=20).map(emit_tileset)))
def test_tileset_parser_raises_only_tileset_error(text):
    try:
        parse_tileset(text)
    except TilesetError:
        pass

