"""Generator determinism, range, and stream independence."""

import pytest

from cadent.rng import RandomState, fmix32, state_from, xs128_next


def test_same_pair_same_stream():
    a = RandomState(42, 3)
    b = RandomState(42, 3)
    assert [a.uniform() for _ in range(100)] == \
           [b.uniform() for _ in range(100)]


def test_distinct_pairs_diverge():
    base = [RandomState(42, 0).uniform() for _ in range(20)]
    other_seed = [RandomState(43, 0).uniform() for _ in range(20)]
    other_stream = [RandomState(42, 1).uniform() for _ in range(20)]
    assert base != other_seed
    assert base != other_stream
    assert other_seed != other_stream


def test_uniform_range_and_resolution():
    rng = RandomState(7)
    draws = [rng.uniform() for _ in range(10000)]
    assert all(0.0 <= u < 1.0 for u in draws)
    # a healthy generator is not stuck in a narrow band
    assert min(draws) < 0.01 and max(draws) > 0.99


def test_uniform_mean_sane():
    rng = RandomState(123)
    mean = sum(rng.uniform() for _ in range(20000)) / 20000
    assert abs(mean - 0.5) < 0.02


def test_randint_bounds_and_coverage():
    rng = RandomState(5)
    draws = [rng.randint(7) for _ in range(5000)]
    assert set(draws) == set(range(7))


def test_randint_rejects_nonpositive():
    rng = RandomState(1)
    with pytest.raises(ValueError):
        rng.randint(0)


def test_negative_seed_rejected():
    with pytest.raises(ValueError):
        state_from(-1)
    with pytest.raises(ValueError):
        state_from(0, -2)


def test_seed_and_stream_beyond_their_bits_rejected():
    # only the low 64 bits of a seed and 32 of a stream reach the state,
    # so a larger value would alias a smaller one
    state_from(2**64 - 1, 2**32 - 1)
    with pytest.raises(ValueError, match=r"seed must be in \[0, 2\*\*64\)"):
        state_from(2**64 + 1)
    with pytest.raises(ValueError, match=r"stream must be in \[0, 2\*\*32\)"):
        state_from(1, 2**32)


def test_state_from_words_pinned():
    # the words every run, env layout and digest starts from
    assert [state_from(s, t).tolist() for s, t in
            ((0, 0), (31, 7), (2**63 - 1, 12345))] == [
        [2462723854, 2612203797, 2605812845, 2349025055],
        [691112075, 2612203797, 2245261314, 2931841062],
        [996586154, 1449802232, 4164370583, 4199907705]]
    assert [fmix32(x) for x in (0, 1, 2**32 - 1, 0x9E3779B9)] == [
        0, 1364076727, 2180083513, 2462723854]


def test_fmix32_bijective_on_sample():
    seen = {fmix32(x) for x in range(20000)}
    assert len(seen) == 20000
    assert all(0 <= h < 2**32 for h in list(seen)[:100])


def test_words_stay_32_bit():
    state = state_from(2**63 - 1, 12345)
    for _ in range(1000):
        w = xs128_next(state)
        assert 0 <= w < 2**32
    assert all(0 <= int(x) < 2**32 for x in state)


def test_next_matches_word_held_in_locals():
    # the training loop holds the four words in locals and takes the
    # xorshift128 step on them, as here; the state array must see the same
    # words
    state = state_from(31, 7)
    r0, r1, r2, r3 = (int(x) for x in state)
    for _ in range(10_000):
        t = (r0 ^ (r0 << 11)) & 0xFFFFFFFF
        w = (r3 ^ (r3 >> 19) ^ t ^ (t >> 8)) & 0xFFFFFFFF
        r0, r1, r2, r3 = r1, r2, r3, w
        assert xs128_next(state) == r3
    assert [int(x) for x in state] == [r0, r1, r2, r3]


def test_zero_state_guard():
    # whatever the seed, the generator never silently starts at all-zero
    for seed in range(200):
        state = state_from(seed)
        assert any(int(x) != 0 for x in state)
