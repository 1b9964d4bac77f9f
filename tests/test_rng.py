import pytest
from hypothesis import given, settings, strategies as st

from patsolve import SplitMix64

MASK = (1 << 64) - 1
GAMMA = 0x9E3779B97F4A7C15
MUL1 = 0xBF58476D1CE4E5B9
MUL2 = 0x94D049BB133111EB


class ScalarSplitMix64:
    """The generator one word at a time, as SplitMix64 is defined: the
    reference the block-filling ``SplitMix64`` must match draw for draw."""

    def __init__(self, seed):
        self.state = seed & MASK

    def next_u64(self):
        self.state = (self.state + GAMMA) & MASK
        z = self.state
        z = ((z ^ (z >> 30)) * MUL1) & MASK
        z = ((z ^ (z >> 27)) * MUL2) & MASK
        return z ^ (z >> 31)

    def randrange(self, n):
        limit = (1 << 64) - ((1 << 64) % n)
        while True:
            u = self.next_u64()
            if u < limit:
                return u % n

    def shuffle(self, items):
        for i in range(len(items) - 1, 0, -1):
            j = self.randrange(i + 1)
            items[i], items[j] = items[j], items[i]

    def choice(self, items):
        return items[self.randrange(len(items))]


def _unshift(z, k):
    """Invert ``z ^= z >> k`` on 64-bit words."""
    x = z
    for _ in range(64 // k):
        x = z ^ (x >> k)
    return x


def seed_whose_first_output_is(u):
    """The seed whose stream starts with ``u`` (the mixer is a bijection)."""
    z = _unshift(u, 31)
    z = _unshift((z * pow(MUL2, -1, 1 << 64)) & MASK, 27)
    z = _unshift((z * pow(MUL1, -1, 1 << 64)) & MASK, 30)
    return (z - GAMMA) & MASK


# reference stream for seed 0, as published with the original generator
SEED0_STREAM = [
    0xE220A8397B1DCDAF,
    0x6E789E6AA1B965F4,
    0x06C45D188009454F,
]


def test_reference_stream_seed0():
    r = SplitMix64(0)
    assert [r.next_u64() for _ in range(3)] == SEED0_STREAM


def test_stream_is_deterministic():
    a = SplitMix64(1234567)
    b = SplitMix64(1234567)
    assert [a.next_u64() for _ in range(100)] == [b.next_u64() for _ in range(100)]


def test_outputs_are_64_bit():
    r = SplitMix64(99)
    for _ in range(1000):
        v = r.next_u64()
        assert 0 <= v < 1 << 64


def test_randrange_bounds_and_coverage():
    r = SplitMix64(5)
    seen = set()
    for _ in range(2000):
        v = r.randrange(7)
        assert 0 <= v < 7
        seen.add(v)
    assert seen == set(range(7))


def test_randrange_one():
    r = SplitMix64(5)
    assert all(r.randrange(1) == 0 for _ in range(10))


def test_randrange_rejects_bad_n():
    r = SplitMix64(5)
    with pytest.raises(ValueError):
        r.randrange(0)


def test_shuffle_is_permutation():
    r = SplitMix64(11)
    xs = list(range(20))
    ys = list(xs)
    r.shuffle(ys)
    assert sorted(ys) == xs
    assert ys != xs  # astronomically unlikely to be identity


def test_shuffle_depends_on_seed():
    a, b = list(range(30)), list(range(30))
    SplitMix64(1).shuffle(a)
    SplitMix64(2).shuffle(b)
    assert a != b


def test_choice():
    r = SplitMix64(3)
    xs = ["a", "b", "c"]
    for _ in range(50):
        assert r.choice(xs) in xs


def test_negative_seed_wraps():
    # seeds are taken mod 2^64 so any int is accepted
    a = SplitMix64(-1)
    b = SplitMix64((1 << 64) - 1)
    assert a.next_u64() == b.next_u64()


def test_randrange_rejects_bound_above_two_to_the_64():
    r = SplitMix64(0)
    # every draw would be rejected: the largest multiple of n below 2^64 is 0
    for n in (1 << 64) + 1, 1 << 65:
        with pytest.raises(ValueError):
            r.randrange(n)
    assert r.randrange(1 << 64) == SEED0_STREAM[0]


def test_seed_inversion():
    for u in 0, 1, SEED0_STREAM[0], MASK:
        assert SplitMix64(seed_whose_first_output_is(u)).next_u64() == u
    assert seed_whose_first_output_is(SEED0_STREAM[0]) == 0


@pytest.mark.parametrize("n", [3, 7, 1 << 31, 3 << 30, 1 << 32, (1 << 32) + 1, 3 << 62])
def test_rejection_at_the_top_of_the_range(n):
    # a first draw just below the largest multiple of n is accepted, one at
    # or above it is rejected and the next draw is taken
    limit = (1 << 64) - (1 << 64) % n
    for u in sorted({limit - 2, limit - 1, limit, MASK} - {1 << 64}):
        seed = seed_whose_first_output_is(u)
        got = SplitMix64(seed).randrange(n)
        assert got == ScalarSplitMix64(seed).randrange(n)
        if u < limit:
            assert got == u % n
        else:
            ref = ScalarSplitMix64(seed)
            ref.next_u64()
            assert got == ref.randrange(n)
        if n < 10:
            xs, ys = list(range(n)), list(range(n))
            SplitMix64(seed).shuffle(xs)
            ScalarSplitMix64(seed).shuffle(ys)
            assert xs == ys


BOUNDS = [1, 2, 7, 32, 1 << 32, (1 << 32) + 1, 3 << 62, 1 << 64]
DRAWS = st.one_of(
    st.just(("next_u64",)),
    st.tuples(st.just("randrange"), st.sampled_from(BOUNDS)),
    st.tuples(st.just("shuffle"), st.integers(0, 70)),
    st.tuples(st.just("choice"), st.integers(1, 70)),
)


@settings(max_examples=200, deadline=None)
@given(
    seed=st.one_of(st.sampled_from([-1, 0, (1 << 64) - 1, 1 << 70]), st.integers()),
    draws=st.lists(DRAWS, max_size=40),
)
def test_same_stream_as_the_scalar_generator(seed, draws):
    r, ref = SplitMix64(seed), ScalarSplitMix64(seed)
    for op, *arg in draws:
        if op == "next_u64":
            assert r.next_u64() == ref.next_u64()
        elif op == "randrange":
            assert r.randrange(arg[0]) == ref.randrange(arg[0])
        elif op == "shuffle":
            xs, ys = list(range(arg[0])), list(range(arg[0]))
            r.shuffle(xs)
            ref.shuffle(ys)
            assert xs == ys
        else:
            assert r.choice(range(arg[0])) == ref.choice(range(arg[0]))
    # then past at least three more block boundaries
    assert [r.next_u64() for _ in range(200)] == [ref.next_u64() for _ in range(200)]
