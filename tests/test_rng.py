from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from schedreduce.rng import Stream, fnv1a64

SEEDS = st.integers(min_value=0, max_value=2**64 - 1)
LABELS = st.sampled_from(["", "edges", "homes", "lengths"]) | st.text(max_size=8)
COUNTS = st.integers(0, 40) | st.integers(0, 300)  # both sides of the lane cut-over


def reference_words(seed, label, count):
    """SplitMix64 as published, one word at a time."""
    mask = 2**64 - 1
    state = (seed ^ fnv1a64(label)) & mask
    out = []
    for _ in range(count):
        state = (state + 0x9E3779B97F4A7C15) & mask
        z = (state ^ (state >> 30)) * 0xBF58476D1CE4E5B9 & mask
        z = (z ^ (z >> 27)) * 0x94D049BB133111EB & mask
        out.append(z ^ (z >> 31))
    return out


def test_known_vector_matches_reference_splitmix64():
    # seeding with fnv1a64("") cancels the empty-label offset, so the
    # internal state starts at 0: the published seed-0 output sequence.
    assert Stream(fnv1a64(""), "").words(5) == [
        0xE220A8397B1DCDAF,
        0x6E789E6AA1B965F4,
        0x06C45D188009454F,
        0xF88BB8A8724C81EC,
        0x1B39896A51A8749B,
    ]


@given(SEEDS)
def test_streams_are_reproducible(seed):
    a = Stream(seed, "edges")
    b = Stream(seed, "edges")
    assert a.words(4) == b.words(4)


def test_labels_split_streams():
    a = Stream(12345, "edges")
    b = Stream(12345, "homes")
    assert a.words(4) != b.words(4)


@given(SEEDS, st.integers(min_value=1, max_value=1000))
def test_randrange_bounds(seed, n):
    # a draw from range(n): one of [0, n - 1]
    s = Stream(seed, "r")
    for _ in range(20):
        assert 0 <= s.randints(0, n - 1, 1)[0] < n


@given(SEEDS, st.integers(-50, 50), st.integers(0, 50))
def test_randint_inclusive(seed, lo, width):
    s = Stream(seed, "r")
    values = s.randints(lo, lo + width, 20)
    assert all(lo <= value <= lo + width for value in values)


def test_randrange_rejects_empty():
    with pytest.raises(ValueError, match=r"empty range \[0, -1\]"):
        Stream(0, "r").randints(0, -1, 1)
    with pytest.raises(ValueError, match=r"empty range \[5, 4\]"):
        Stream(0, "r").randints(5, 4, 1)


@given(SEEDS)
def test_bernoulli_endpoints_exact(seed):
    s = Stream(seed, "b")
    assert all(s.bernoullis(Fraction(1), 1)[0] for _ in range(10))
    assert not any(s.bernoullis(Fraction(0), 1)[0] for _ in range(10))


def test_bernoulli_rejects_out_of_range():
    for prob in (Fraction(3, 2), Fraction(-1, 3), 2, "-1/2"):
        with pytest.raises(ValueError, match=f"probability {Fraction(prob)} outside"):
            Stream(0, "b").bernoullis(prob, 1)


@given(SEEDS, st.integers(0, 64), st.integers(1, 64))
def test_bernoulli_is_the_exact_test_for_any_spelling(seed, num, den):
    prob = Fraction(min(num, den), den)
    u = Stream(seed, "b").words(1)[0]
    expected = u * prob.denominator < prob.numerator << 64
    for spelling in (prob, str(prob)):
        assert Stream(seed, "b").bernoullis(spelling, 1) == [expected]


@given(SEEDS, st.lists(st.integers(), min_size=1, max_size=30))
def test_shuffle_is_permutation(seed, items):
    shuffled = Stream(seed, "s").shuffle(list(items))
    assert sorted(shuffled) == sorted(items)


def test_shuffle_depends_on_seed():
    items = list(range(20))
    a = Stream(1, "s").shuffle(list(items))
    b = Stream(2, "s").shuffle(list(items))
    assert a != b  # 1 in 20! chance of collision by accident


@given(st.text(max_size=40))
def test_fnv1a64_is_64_bit(text):
    assert 0 <= fnv1a64(text) < 2**64


# ---------------------------------------------------------------------------
# block draws


@given(SEEDS, LABELS, COUNTS)
def test_word_block_equals_single_words_and_leaves_the_same_state(seed, label, count):
    block, single = Stream(seed, label), Stream(seed, label)
    assert block.words(count) == [single.words(1)[0] for _ in range(count)]
    assert block.words(count) == reference_words(seed, label, 2 * count)[count:]
    assert block.words(3) == single.words(count + 3)[count:]


@given(SEEDS, LABELS, COUNTS, st.integers(-5, 5), st.integers(-1, 70))
def test_randint_block_equals_single_draws(seed, label, count, lo, width):
    hi = lo + width
    block, single = Stream(seed, label), Stream(seed, label)
    if hi < lo:
        with pytest.raises(ValueError, match=rf"empty range \[{lo}, {hi}\]"):
            block.randints(lo, hi, count)
        with pytest.raises(ValueError, match=rf"empty range \[{lo}, {hi}\]"):
            single.randints(lo, hi, 1)
        return
    drawn = block.randints(lo, hi, count)
    assert drawn == [single.randints(lo, hi, 1)[0] for _ in range(count)]
    assert drawn == [lo + (w * (width + 1) >> 64) for w in reference_words(seed, label, count)]
    assert block.words(2) == single.words(2)


@given(SEEDS, LABELS, COUNTS, st.integers(-2, 66), st.integers(1, 64))
def test_bernoulli_block_equals_single_draws(seed, label, count, num, den):
    prob = Fraction(num, den)
    block, single = Stream(seed, label), Stream(seed, label)
    if not 0 <= prob <= 1:
        for draw in (lambda: block.bernoullis(prob, count), lambda: single.bernoullis(prob, 1)):
            with pytest.raises(ValueError, match=f"probability {prob} outside"):
                draw()
        return
    drawn = block.bernoullis(prob, count)
    assert drawn == [single.bernoullis(prob, 1)[0] for _ in range(count)]
    limit = prob.numerator << 64
    assert drawn == [w * prob.denominator < limit for w in reference_words(seed, label, count)]
    assert block.words(2) == single.words(2)


@given(SEEDS, st.integers(0, 30))
def test_shuffle_takes_its_words_in_one_block(seed, size):
    items = list(range(size))
    for i, w in zip(range(size - 1, 0, -1), reference_words(seed, "s", size - 1)):
        j = (w * (i + 1)) >> 64
        items[i], items[j] = items[j], items[i]
    stream = Stream(seed, "s")
    assert stream.shuffle(list(range(size))) == items
    assert stream.words(1) == reference_words(seed, "s", max(size - 1, 0) + 1)[-1:]
