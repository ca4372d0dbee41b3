import numpy as np
import pytest

from iselab import rng

from conftest import uniform_at


def test_same_coordinates_reproduce_exactly():
    a = uniform_at(42, rng.SITE_VALUES, (3, -1))
    b = uniform_at(42, rng.SITE_VALUES, (3, -1))
    assert a == b


def test_purpose_tags_decorrelate():
    idx = (5, 5)
    assert uniform_at(1, rng.SITE_VALUES, idx) != \
        uniform_at(1, rng.TRIAL_STREAM, idx)


def test_negative_indices_are_distinct_sites():
    # two's-complement packing must keep (-3, 2) and (3, 2) apart
    assert uniform_at(7, rng.SITE_VALUES, (-3, 2)) != \
        uniform_at(7, rng.SITE_VALUES, (3, 2))


def test_seed_changes_values():
    assert uniform_at(1, rng.SITE_VALUES, (0, 0)) != \
        uniform_at(2, rng.SITE_VALUES, (0, 0))


def test_stream_is_order_free():
    sites = [(i, j) for i in range(-2, 3) for j in range(-2, 3)]
    forward = {s: uniform_at(9, rng.SITE_VALUES, s) for s in sites}
    backward = {s: uniform_at(9, rng.SITE_VALUES, s)
                for s in reversed(sites)}
    assert forward == backward


def test_index_tuple_limited_to_four_words():
    with pytest.raises(ValueError, match="index tuples of length <= 4"):
        rng.stream(0, rng.SITE_VALUES, (1, 2, 3, 4, 5))


def test_derive_seed_is_deterministic_and_63_bit():
    s1 = rng.derive_seed(11, rng.TRIAL_STREAM, (2, 17))
    s2 = rng.derive_seed(11, rng.TRIAL_STREAM, (2, 17))
    assert s1 == s2
    assert 0 <= s1 < 1 << 63


def test_stream_draws_are_uniform_in_bulk():
    values = rng.stream(3, rng.EVENT_TRIALS, (0,)).random(100_000)
    assert abs(values.mean() - 0.5) < 3 * 0.51 / np.sqrt(100_000)
    assert values.min() >= 0.0 and values.max() < 1.0


class TestUniformsAt:
    """The vectorized Philox pass against the per-site generator, bit for bit."""

    SEED = 20260824

    def oracle(self, coords, seed=SEED):
        return np.array([uniform_at(seed, rng.SITE_VALUES, tuple(c))
                         for c in coords], dtype=float)

    @pytest.mark.parametrize("words", [1, 2, 3, 4])
    def test_matches_uniform_at(self, words):
        coords = np.random.default_rng(words).integers(
            -40, 40, size=(300, words))
        got = rng.uniforms_at(self.SEED, rng.SITE_VALUES, coords)
        assert np.array_equal(got, self.oracle(coords))

    def test_minus_one_wraps_and_carries(self):
        # -1 is the counter word 2^64 - 1: the increment wraps it to 0 and
        # carries into the next word, through all four at (-1, -1, -1, -1)
        coords = np.array([[-1, 0, 0, 0], [-1, -1, 0, 0], [-1, -1, -1, 0],
                           [-1, -1, -1, -1], [0, -1, 0, 0], [-1, 5, -1, 7]])
        for seed in (self.SEED, 0, (1 << 64) - 1):
            got = rng.uniforms_at(seed, rng.SITE_VALUES, coords)
            assert np.array_equal(got, self.oracle(coords, seed))
        pairs = np.array([[-1, -1], [-1, 3], [3, -1]])
        assert np.array_equal(rng.uniforms_at(self.SEED, rng.SITE_VALUES, pairs),
                              self.oracle(pairs))

    def test_coordinates_beyond_32_bits(self):
        coords = np.array([[1 << 32, 0], [-(1 << 32), 1], [(1 << 40) + 3, -7],
                           [-(1 << 62), (1 << 62) + 1], [(1 << 32) - 1, 2]])
        got = rng.uniforms_at(self.SEED, rng.SITE_VALUES, coords)
        assert np.array_equal(got, self.oracle(coords))

    def test_empty_site_arrays(self):
        for coords in ([], np.empty((0, 2), dtype=np.int64)):
            got = rng.uniforms_at(self.SEED, rng.SITE_VALUES, coords)
            assert got.shape == (0,)

    def test_more_than_four_words_rejected(self):
        with pytest.raises(ValueError, match="coords must be an"):
            rng.uniforms_at(0, rng.SITE_VALUES, np.zeros((2, 5), dtype=int))
