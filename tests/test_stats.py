import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rholoss.stats import pearson, rankdata_average, spearman

from oracles import brute_ranks, brute_spearman, paired_one_sided_t


def test_ranks_simple():
    assert np.array_equal(rankdata_average([3.0, 1.0, 2.0]), [3.0, 1.0, 2.0])


def test_ranks_with_ties_average():
    assert np.array_equal(rankdata_average([1.0, 2.0, 2.0, 3.0]), [1.0, 2.5, 2.5, 4.0])


def test_ranks_match_pairwise_oracle():
    rng = np.random.default_rng(0)
    for _ in range(50):
        x = rng.integers(0, 6, size=rng.integers(2, 30)).astype(float)
        assert np.array_equal(rankdata_average(x), brute_ranks(x))


# Half the draws come from a few values, signed zeros among them, so lists hold long runs of ties.
_TIED_FLOATS = st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, 2.0**-1074, 1e300]) | st.floats(
    allow_nan=False, allow_infinity=True
)


@settings(max_examples=200, deadline=None)
@given(st.lists(_TIED_FLOATS, min_size=1, max_size=300))
def test_ranks_are_bitwise_those_of_the_pairwise_oracle(values):
    assert rankdata_average(values).tobytes() == brute_ranks(values).tobytes()


def test_each_nan_gets_a_rank_of_its_own():
    # NaN != NaN, so NaNs are never tied; a stable sort puts them last in input order
    assert np.array_equal(rankdata_average([np.nan, 1.0, np.nan, 1.0]), [3.0, 1.5, 4.0, 1.5])


def test_spearman_identical_and_reversed():
    x = np.array([0.3, -1.0, 2.5, 0.0, 1.1])
    assert spearman(x, x) == pytest.approx(1.0, abs=1e-15)
    assert spearman(x, -x) == pytest.approx(-1.0, abs=1e-15)


def test_spearman_hand_case_with_tie():
    # (1..5) vs (5,6,7,8,7): the tie between positions 3 and 4 costs a bit of rho
    rho = spearman([1, 2, 3, 4, 5], [5, 6, 7, 8, 7])
    assert rho == pytest.approx(brute_spearman([1, 2, 3, 4, 5], [5, 6, 7, 8, 7]), abs=1e-12)


def test_spearman_matches_brute_force_on_random_vectors():
    rng = np.random.default_rng(1)
    for _ in range(1000):
        n = int(rng.integers(2, 25))
        x = rng.integers(0, 8, n).astype(float)  # integer draws produce ties
        y = rng.integers(0, 8, n).astype(float)
        expected = brute_spearman(x, y)
        got = spearman(x, y)
        if expected is None:
            assert got is None
        else:
            assert got == pytest.approx(expected, abs=1e-12)


def test_spearman_constant_vector_is_undefined():
    assert spearman([1.0, 1.0, 1.0], [1.0, 2.0, 3.0]) is None
    assert spearman([1.0, 2.0], [5.0, 5.0]) is None


def test_spearman_invariant_under_monotone_transform():
    rng = np.random.default_rng(2)
    x = rng.standard_normal(30)
    y = rng.standard_normal(30)
    base = spearman(x, y)
    assert spearman(np.exp(x), y) == pytest.approx(base, abs=1e-12)
    assert spearman(x, 3 * y + 10) == pytest.approx(base, abs=1e-12)


def test_spearman_length_checks():
    with pytest.raises(ValueError):
        spearman([1.0], [2.0])
    with pytest.raises(ValueError):
        spearman([1.0, 2.0], [1.0, 2.0, 3.0])


def test_pearson_perfect_line():
    x = np.array([1.0, 2.0, 3.0])
    assert pearson(x, 2 * x + 1) == pytest.approx(1.0, abs=1e-15)


def test_paired_t_detects_consistent_difference():
    a = np.array([0.02, 0.03, 0.025])
    b = np.array([0.10, 0.11, 0.105])
    t, p = paired_one_sided_t(a, b)
    assert t < 0
    assert p < 0.01


def test_paired_t_no_difference():
    a = np.array([0.5, 0.6, 0.4])
    _, p = paired_one_sided_t(a, a[::-1].copy())
    assert p > 0.2


def test_paired_t_degenerate_zero_variance():
    _, p = paired_one_sided_t([1.0, 1.0], [2.0, 2.0])
    assert p == 0.0
    _, p = paired_one_sided_t([2.0, 2.0], [1.0, 1.0])
    assert p == 1.0
