import pytest
from hypothesis import given, settings

from patsolve import (
    TEMPERATURE,
    Tile,
    TileSystem,
    TilesetError,
    emit_tileset,
    glue_strength,
    parse_tileset,
)
from helpers import counter_tas, sierpinski_tas, tile_systems


def test_temperature_is_two():
    assert TEMPERATURE == 2
    assert counter_tas(2, 2).temperature == 2


def test_glue_strength_diagonal():
    assert glue_strength(5, 5) == 1
    assert glue_strength(5, 6) == 0
    assert glue_strength(None, 5) == 0
    assert glue_strength(5, None) == 0


class TestTile:
    def test_builds_by_keyword_and_by_position(self):
        by_kw = Tile(north=1, east=2, south=3, west=4, color=5)
        assert Tile(1, 2, 3, 4, 5) == by_kw
        assert (by_kw.north, by_kw.east, by_kw.south, by_kw.west, by_kw.color) == (
            1, 2, 3, 4, 5,
        )

    def test_is_immutable(self):
        t = Tile(1, 2, 3, 4, 5)
        for field in ("north", "east", "south", "west", "color"):
            with pytest.raises(AttributeError):
                setattr(t, field, 0)
        assert t == Tile(1, 2, 3, 4, 5)

    def test_compares_and_hashes_by_fields(self):
        a, b, c = Tile(1, 2, 3, 4, 5), Tile(1, 2, 3, 4, 5), Tile(1, 2, 3, 4, 6)
        assert a == b and hash(a) == hash(b)
        assert a != c
        assert len({a, b, c}) == 2
        # a named tuple: equal to the plain tuple of its fields
        assert a == (1, 2, 3, 4, 5)

    def test_repr(self):
        assert repr(Tile(1, 2, 3, 4, 5)) == "Tile(north=1, east=2, south=3, west=4, color=5)"


def test_system_validation():
    t = Tile(north=0, east=0, south=0, west=0, color=0)
    with pytest.raises(TilesetError):
        TileSystem(m=2, n=2, tiles=(t,), seed_north=(0,), seed_east=(0, 0))
    with pytest.raises(TilesetError):
        TileSystem(m=2, n=2, tiles=(t,), seed_north=(0, 0), seed_east=(0,))
    with pytest.raises(TilesetError):
        TileSystem(m=0, n=2, tiles=(t,), seed_north=(), seed_east=(0, 0))
    with pytest.raises(TilesetError):
        TileSystem(m=2, n=2, tiles=(), seed_north=(0, 0), seed_east=(0, 0))


def test_roundtrip():
    for system in (counter_tas(2, 3), sierpinski_tas(4, 4)):
        assert parse_tileset(emit_tileset(system)) == system


@settings(max_examples=200, deadline=None)
@given(system=tile_systems(max_glue=10**6))
def test_roundtrip_random_systems(system):
    assert parse_tileset(emit_tileset(system)) == system


def test_emit_format_shape():
    text = emit_tileset(counter_tas(2, 2))
    lines = text.strip().splitlines()
    assert lines[0] == "tiles 4 temperature 2"
    assert lines[1].startswith("tile 0 N=")
    assert sum(1 for ln in lines if ln.startswith("seedS")) == 2
    assert sum(1 for ln in lines if ln.startswith("seedW")) == 2
    # south seed listed before west seed
    first_seed = next(i for i, ln in enumerate(lines) if ln.startswith("seed"))
    assert lines[first_seed].startswith("seedS")


@pytest.mark.parametrize(
    "mangle",
    [
        lambda t: t.replace("tiles 4", "tiles 5"),  # count mismatch
        lambda t: t.replace("tile 1", "tile 7"),  # non-sequential ids
        lambda t: t.replace("temperature 2", "temperature 1"),
        lambda t: t.replace("seedS x=1 N=0\n", ""),  # missing seed entry
        lambda t: t.replace("N=0 E=0 S=0 W=0", "N=0 E=0 S=0"),  # short tile line
        lambda t: "",
    ],
)
def test_parse_rejects_mangled(mangle):
    text = emit_tileset(counter_tas(2, 2))
    with pytest.raises(TilesetError):
        parse_tileset(mangle(text))


def test_parse_infers_dims_from_seeds():
    system = parse_tileset(emit_tileset(counter_tas(3, 5)))
    assert (system.m, system.n) == (3, 5)
