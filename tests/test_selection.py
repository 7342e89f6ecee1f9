import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import chisquare

from rholoss import data, nn, selection
from rholoss.ilmodel import IrreducibleLossTable
from rholoss.selection import (
    SelectionPolicy,
    al_scores_from_samples,
    candidate_chunks,
    chunk_select_count,
    entropy,
    sample_grad_norm_is,
    score_al,
    score_candidates,
    score_grad_norm,
    select_top_k,
    smallest_chunk,
    svp_offline_select,
)

from oracles import brute_top_k, inverse_draw_weights, successive_sampling_set_probs


def table_from(ids, values):
    return IrreducibleLossTable(ids, values)


def score_from_table(kind, losses, ids, table):
    """A loss-based policy's scores with irreducible losses looked up in table."""
    return score_candidates(
        SelectionPolicy(kind=kind), None, None, None, ids, losses, lambda ids, x, y: table.lookup(ids), None
    )


# ---------------------------------------------------------------- scoring


def test_rho_loss_zero_when_loss_equals_il():
    t = table_from([1, 2, 3], [0.5, 1.0, 2.0])
    scores = score_from_table("rho-loss", [0.5, 1.0, 2.0], [1, 2, 3], t)
    assert np.allclose(scores, 0.0)


def test_rho_loss_hand_case_ranks_second_first():
    t = table_from([10, 11], [1.9, 0.1])
    scores = score_from_table("rho-loss", [2.0, 0.5], [10, 11], t)
    assert np.allclose(scores, [0.1, 0.4])
    assert np.argmax(scores) == 1


def test_rho_loss_noisy_below_clean():
    t = table_from([0, 1], [2.3, 0.1])
    noisy, clean = score_from_table("rho-loss", [2.3, 1.0], [0, 1], t)
    assert noisy < clean


def test_rho_loss_can_go_negative_and_shift_invariance():
    t = table_from([0, 1, 2], [1.0, 3.0, 0.2])
    losses = np.array([0.5, 1.0, 0.9])
    scores = score_from_table("rho-loss", losses, [0, 1, 2], t)
    assert scores.min() < 0  # no clamping anywhere
    shifted = score_from_table("rho-loss", losses + 5.0, [0, 1, 2], t)
    assert np.allclose(shifted, scores + 5.0)
    assert np.array_equal(np.argsort(shifted), np.argsort(scores))


def test_rho_loss_missing_id_raises():
    t = table_from([0], [1.0])
    with pytest.raises(KeyError):
        score_from_table("rho-loss", [0.5, 0.5], [0, 99], t)


def test_train_loss_identity():
    assert np.array_equal(score_from_table("train-loss", [3.0, 1.0, 2.0], [0, 1, 2], None), [3.0, 1.0, 2.0])
    assert np.array_equal(score_from_table("train-loss", [1.0, 1.0], [0, 1], None), [1.0, 1.0])


def test_neg_il_reverses_table_order():
    t = table_from([5, 6, 7], [0.1, 2.0, 1.0])
    scores = score_from_table("neg-il", None, [5, 6, 7], t)
    assert np.array_equal(scores, [-0.1, -2.0, -1.0])
    assert np.array_equal(np.argsort(scores), np.argsort([0.1, 2.0, 1.0])[::-1])


@pytest.mark.parametrize("kind", ["rho-loss", "train-loss", "loss-minus-cond-entropy"])
def test_a_policy_that_reads_losses_refuses_none_by_name(kind):
    # np.asarray(None, dtype=float) is NaN, which used to score every candidate NaN and still select
    model = nn.init_mlp((3, 6, 4), seed=1, dropout_rate=0.3)
    x = np.random.default_rng(2).standard_normal((10, 3))
    ids = np.arange(10)
    il = table_from(ids, np.ones(10))
    assert SelectionPolicy(kind=kind).reads_losses
    with pytest.raises(ValueError, match=f"policy '{kind}' scores candidate losses, but none were given"):
        score_candidates(SelectionPolicy(kind=kind), model, x, ids % 4, ids, None,
                         lambda ids, x, y: il.lookup(ids), np.random.default_rng(3))


def test_grad_norm_scores_match_norm_oracle():
    model = nn.init_mlp((4, 6, 3), seed=1)
    rng = np.random.default_rng(2)
    x = rng.standard_normal((5, 4))
    y = rng.integers(0, 3, 5)
    scores = score_grad_norm(model, x, y)
    for i in range(5):
        assert scores[i] == pytest.approx(nn.per_example_grad_norm(model, x[i : i + 1], y[i : i + 1])[0], abs=1e-12)
    assert np.all(scores >= 0)


@pytest.mark.parametrize("n_labels", [6, 3])
def test_grad_norm_needs_one_label_per_candidate(n_labels):
    model = nn.init_mlp((4, 6, 3), seed=1)
    x = np.random.default_rng(2).standard_normal((5, 4))
    with pytest.raises(ValueError, match=rf"got 5 examples but labels of shape \({n_labels},\)"):
        score_grad_norm(model, x, np.zeros(n_labels, dtype=int))


def test_grad_norm_makes_one_kernel_call_per_candidate(monkeypatch):
    # the benchmark's tracer wraps selection.per_example_grad_norm and checks
    # one call per candidate, each on that candidate's one-row batch
    calls = []

    def counted(model, x, y):
        calls.append(np.shape(x))
        return nn.per_example_grad_norm(model, x, y)

    monkeypatch.setattr(selection, "per_example_grad_norm", counted)
    model = nn.init_mlp((4, 6, 3), seed=1)
    rng = np.random.default_rng(2)
    x = rng.standard_normal((7, 4))
    y = rng.integers(0, 3, 7)
    scores = score_grad_norm(model, x, y)
    assert calls == [(1, 4)] * 7
    assert np.array_equal(scores, [nn.per_example_grad_norm(model, x[i : i + 1], y[i : i + 1])[0] for i in range(7)])


def test_grad_norm_saturated_candidates_near_zero():
    model = nn.init_mlp((2, 2), seed=0)
    model.weights[0][:] = np.array([[90.0, -90.0], [-90.0, 90.0]])
    model.biases[0][:] = 0.0
    x = np.array([[1.0, 0.0], [0.0, 1.0]])
    assert np.all(score_grad_norm(model, x, [0, 1]) < 1e-9)


# ---------------------------------------------------------------- candidate schedule


@settings(max_examples=200, deadline=None)
@given(n=st.integers(1, 300), n_B=st.integers(1, 64), share=st.floats(0.0, 1.0), seed=st.integers(0, 2**32 - 1))
def test_candidate_chunks_cover_the_pool_once_with_the_select_counts_and_tie_draws_in_order(n, n_B, share, seed):
    n_b = max(1, round(share * n_B))
    perm_seq, tie_seq = np.random.SeedSequence(seed).spawn(2)
    schedule = list(candidate_chunks(n, n_B, n_b, np.random.default_rng(perm_seq), np.random.default_rng(tie_seq)))
    assert len(schedule) == math.ceil(n / n_B)
    # the chunks cut one permutation from perm_rng in order, so each position appears once
    positions = np.concatenate([chunk for chunk, _, _ in schedule])
    assert np.array_equal(positions, np.random.default_rng(perm_seq).permutation(n))
    assert all(chunk.size == n_B for chunk, _, _ in schedule[:-1])
    assert schedule[-1][0].size == smallest_chunk(n, n_B) == min(chunk.size for chunk, _, _ in schedule)
    tie_rng = np.random.default_rng(tie_seq)
    for chunk, count, tie_seed in schedule:
        assert count == chunk_select_count(chunk.size, n_b, n_B)
        assert tie_seed == int(tie_rng.integers(0, 2**31 - 1))


# ---------------------------------------------------------------- top-k


def test_top_k_simple():
    assert list(select_top_k([0.1, 0.4, 0.2], 1, tie_seed=0)) == [1]


def test_top_k_full_batch_is_identity_set():
    sel = select_top_k([0.3, 0.1, 0.9, 0.5], 4, tie_seed=7)
    assert list(sel) == [0, 1, 2, 3]


def test_top_k_rejects_overdraw():
    with pytest.raises(ValueError):
        select_top_k([1.0, 2.0], 3, tie_seed=0)


def test_top_k_matches_brute_force_on_random_vectors():
    rng = np.random.default_rng(3)
    for trial in range(1000):
        n = int(rng.integers(1, 40))
        k = int(rng.integers(0, n + 1))
        # half the trials use integer scores to force ties
        if trial % 2:
            scores = rng.integers(0, 5, n).astype(float)
        else:
            scores = rng.standard_normal(n)
        tie_seed = int(rng.integers(0, 2**31 - 1))
        got = set(select_top_k(scores, k, tie_seed).tolist())
        assert got == brute_top_k(scores, k, tie_seed)


def test_top_k_invariant_under_monotone_transform():
    rng = np.random.default_rng(4)
    for _ in range(50):
        scores = rng.standard_normal(12)
        a = select_top_k(scores, 4, tie_seed=11)
        b = select_top_k(np.exp(scores), 4, tie_seed=11)
        c = select_top_k(3 * scores - 7, 4, tie_seed=11)
        assert np.array_equal(a, b) and np.array_equal(a, c)


def test_top_k_constant_scores_uniform_over_subsets():
    # all pairs from 5 candidates should appear equally often
    counts = {}
    for seed in range(10_000):
        sel = tuple(select_top_k(np.zeros(5), 2, tie_seed=seed).tolist())
        counts[sel] = counts.get(sel, 0) + 1
    assert len(counts) == 10
    _, p = chisquare(list(counts.values()))
    assert p > 1e-3


# ---------------------------------------------------------------- importance sampling


def test_is_single_nonzero_score_always_selected():
    scores = np.array([0.0, 0.0, 3.0, 0.0])
    for seed in range(20):
        idx, w = sample_grad_norm_is(scores, 1, seed)
        assert list(idx) == [2]
        assert w[0] == pytest.approx(1.0)


def test_is_two_equal_scores_equal_frequency():
    scores = np.array([1.0, 1.0])
    rng = np.random.default_rng(0)
    picks = np.zeros(2)
    for _ in range(4000):
        idx, _ = sample_grad_norm_is(scores, 1, rng)
        picks[idx[0]] += 1
    assert abs(picks[0] - 2000) < 3 * math.sqrt(4000 * 0.25)


def test_is_all_zero_scores_uniform_fallback():
    rng = np.random.default_rng(1)
    idx, w = sample_grad_norm_is(np.zeros(6), 3, rng)
    assert len(idx) == 3 and len(set(idx.tolist())) == 3
    assert np.array_equal(w, np.ones(3))


def test_is_too_few_nonzero_takes_them_all_and_fills_uniformly():
    for seed in range(20):
        idx, w = sample_grad_norm_is([1.0, 0.0, 0.0, 0.0], 2, seed)
        assert idx.size == 2 and idx[0] == 0 and np.all(np.diff(idx) > 0)
        assert np.all(np.isfinite(w)) and w.mean() == pytest.approx(1.0, abs=1e-12)
    # inverse-inclusion weights keep the estimator unbiased: candidate 0 is
    # always in, each zero-score candidate with probability 1/3
    g = np.array([4.0, 1.0, 2.0, 3.0])
    rng = np.random.default_rng(4)
    est = np.mean([(g[idx] * w).mean() for idx, w in (sample_grad_norm_is([1.0, 0, 0, 0], 2, rng) for _ in range(3000))])
    assert est == pytest.approx(g.mean(), abs=0.05)


@pytest.mark.parametrize(
    "scores, n_b, temperature, dominant",
    [
        ([1.7e308, 1.7e308, 0.0, 0.0], 3, 1.0, [0, 1]),  # the sum overflows
        ([1e200, 1.0, 2.0], 2, 0.5, [0]),  # s ** (1/T) overflows
    ],
)
def test_is_takes_the_dominant_candidates_when_the_powers_overflow(scores, n_b, temperature, dominant):
    for seed in range(20):
        idx, w = sample_grad_norm_is(scores, n_b, seed, temperature=temperature)
        assert set(dominant) <= set(idx.tolist()) and idx.size == n_b
        assert np.all(np.isfinite(w)) and w.mean() == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("temperature", [1.0, 0.5])
def test_is_set_frequencies_match_exact_successive_sampling(temperature):
    # 6 candidates, one with zero score, n_b=3: 20 000 draws against the
    # exact probability of each of the 10 reachable sets
    scores = np.array([0.5, 1.0, 0.0, 2.0, 3.0, 1.5])
    exact = successive_sampling_set_probs(scores, 3, temperature)
    rng = np.random.default_rng(6)
    draws = 20_000
    counts = dict.fromkeys(exact, 0)
    for _ in range(draws):
        idx, w = sample_grad_norm_is(scores, 3, rng, temperature=temperature)
        key = tuple(idx.tolist())
        counts[key] += 1
        assert np.allclose(w, inverse_draw_weights(scores, idx, temperature), rtol=1e-12)
    reachable = [key for key, prob in exact.items() if prob > 0]
    assert len(reachable) == 10 and all(counts[key] == 0 for key in exact if exact[key] == 0)
    _, p = chisquare([counts[key] for key in reachable], [draws * exact[key] for key in reachable])
    assert p > 1e-3


def test_is_keeps_the_odds_of_scores_whose_powers_underflow():
    # at T=0.01 the three small scores' powers underflow to 0 in linear
    # space, yet candidate 2 is (3/2)**100 ~ 4e17 times likelier than 1
    scores = [1e-4, 2e-4, 3e-4, 5.0, 6.0]
    for seed in range(2000):
        idx, w = sample_grad_norm_is(scores, 3, seed, temperature=0.01)
        assert idx.tolist() == [2, 3, 4]
        assert np.all(np.isfinite(w)) and w.mean() == pytest.approx(1.0, abs=1e-12)


def test_is_weights_mean_one():
    rng = np.random.default_rng(2)
    scores = rng.uniform(0.1, 5.0, 20)
    for _ in range(50):
        idx, w = sample_grad_norm_is(scores, 6, rng)
        assert w.mean() == pytest.approx(1.0, abs=1e-12)
        assert np.all(np.diff(idx) > 0)


def test_is_rejects_negative_scores():
    with pytest.raises(ValueError):
        sample_grad_norm_is([-1.0, 2.0], 1, 0)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_is_rejects_non_finite_scores(bad):
    with pytest.raises(ValueError, match="finite nonnegative"):
        sample_grad_norm_is([bad, 2.0], 1, 0)


def test_is_equal_scores_reduce_to_uniform_unit_weights():
    rng = np.random.default_rng(3)
    idx, w = sample_grad_norm_is(np.full(8, 2.5), 4, rng)
    assert np.allclose(w, 1.0)


def test_is_debias_expectation_tracks_candidate_mean_gradient():
    # fixed tiny model, 32 candidates: the weighted selected-gradient
    # estimator should match the full candidate-mean gradient in expectation
    model = nn.init_mlp((3, 5, 2), seed=5)
    rng = np.random.default_rng(6)
    x = rng.standard_normal((32, 3))
    y = rng.integers(0, 2, 32)
    scores = score_grad_norm(model, x, y)
    per_example = [nn.backward(model, x[i : i + 1], [y[i]], mode="eval", bn_stat_source="running") for i in range(32)]
    flat = np.stack(per_example)
    exact = flat.mean(axis=0)
    accum = np.zeros_like(exact)
    draws = 10_000
    draw_rng = np.random.default_rng(7)
    for _ in range(draws):
        idx, w = sample_grad_norm_is(scores, 8, draw_rng)
        accum += (flat[idx] * w[:, None]).mean(axis=0)
    rel = np.linalg.norm(accum / draws - exact) / np.linalg.norm(exact)
    assert rel < 0.05


@settings(max_examples=300, deadline=None)
@given(
    scores=st.lists(st.floats(min_value=0.0, allow_nan=False, allow_infinity=False), min_size=1, max_size=40),
    frac=st.floats(0.0, 1.0),
    seed=st.integers(0, 2**32 - 1),
    # any temperature the config accepts, tiny and subnormal ones included
    temperature=st.one_of(
        st.floats(min_value=0.0, max_value=1e300, exclude_min=True),
        st.sampled_from([5e-324, 1e-310, 1e-300, 1e-3]),
    ),
)
def test_top_k_and_is_give_distinct_sorted_indices_and_mean_one_weights(scores, frac, seed, temperature):
    n_b = int(round(frac * len(scores)))
    for idx in (select_top_k(scores, n_b, seed), sample_grad_norm_is(scores, n_b, seed, temperature)[0]):
        assert idx.size == n_b
        assert np.all(np.diff(idx) > 0)
        assert n_b == 0 or 0 <= idx[0] <= idx[-1] < len(scores)
    if n_b:
        _, w = sample_grad_norm_is(scores, n_b, seed, temperature)
        assert np.all(np.isfinite(w)) and np.all(w >= 0)
        assert w.mean() == pytest.approx(1.0, rel=1e-12)


# ---------------------------------------------------------------- acquisition scores


def test_entropy_uniform_distribution():
    assert entropy(np.full((1, 10), 0.1))[0] == pytest.approx(math.log(10), abs=1e-12)


def test_bald_hand_case():
    samples = np.array([[[0.9, 0.1]], [[0.1, 0.9]]])
    pred_ent = entropy(samples.mean(axis=0))[0]
    assert pred_ent == pytest.approx(math.log(2), abs=1e-12)
    cond = al_scores_from_samples("cond-entropy", samples)[0]
    assert cond == pytest.approx(0.325083, abs=1e-6)
    bald = al_scores_from_samples("bald", samples)[0]
    assert bald == pytest.approx(0.368064, abs=1e-6)


def test_bald_zero_for_deterministic_model():
    model = nn.init_mlp((3, 6, 4), seed=1, dropout_rate=0.0)
    x = np.random.default_rng(2).standard_normal((5, 3))
    scores = score_al("bald", model, x, mc_samples=8, rng=np.random.default_rng(0))
    assert np.all(np.abs(scores) < 1e-9)


def test_bald_nonnegative_numerically():
    model = nn.init_mlp((3, 8, 4), seed=3, dropout_rate=0.5)
    x = np.random.default_rng(4).standard_normal((20, 3))
    scores = score_al("bald", model, x, mc_samples=32, rng=np.random.default_rng(1))
    assert np.all(scores >= -1e-12)


def test_bald_requires_two_samples():
    model = nn.init_mlp((3, 6, 4), seed=1, dropout_rate=0.5)
    with pytest.raises(ValueError):
        score_al("bald", model, np.zeros((2, 3)), mc_samples=1)
    with pytest.raises(ValueError):
        SelectionPolicy(kind="bald", mc_samples=1)


def test_loss_minus_cond_entropy_uses_labels():
    model = nn.init_mlp((3, 6, 4), seed=5, dropout_rate=0.3)
    x = np.random.default_rng(6).standard_normal((4, 3))
    y = [0, 1, 2, 3]
    losses = nn.cross_entropy(nn.forward(model, x), y)
    scores = score_al("loss-minus-cond-entropy", model, x, losses=losses, mc_samples=16, rng=np.random.default_rng(2))
    cond = score_al("cond-entropy", model, x, mc_samples=16, rng=np.random.default_rng(2))
    assert np.allclose(scores, losses - cond, atol=1e-12)
    with pytest.raises(ValueError):
        score_al("loss-minus-cond-entropy", model, x, mc_samples=4)


# ---------------------------------------------------------------- offline proxy


def test_svp_keep_all():
    pool = data.gen_synthetic(3, 10, 4, 1.0, seed=0)
    proxy = nn.init_mlp((4, 6, 3), seed=1)
    kept = svp_offline_select(proxy, pool, keep_fraction=1.0)
    assert set(kept.tolist()) == set(pool.ids.tolist())


def test_svp_uniform_proxy_random_subset():
    pool = data.gen_synthetic(3, 10, 4, 1.0, seed=0)
    proxy = nn.init_mlp((4, 3), seed=1)
    proxy.weights[0][:] = 0.0
    proxy.biases[0][:] = 0.0
    a = svp_offline_select(proxy, pool, keep_fraction=0.5, seed=11)
    b = svp_offline_select(proxy, pool, keep_fraction=0.5, seed=11)
    c = svp_offline_select(proxy, pool, keep_fraction=0.5, seed=12)
    assert np.array_equal(a, b)
    assert set(a.tolist()) != set(c.tolist())
    assert len(a) == 15


def test_svp_ranks_match_entropy_oracle():
    pool = data.gen_synthetic(3, 20, 4, 1.0, seed=2)
    proxy = nn.init_mlp((4, 8, 3), seed=3)
    kept = svp_offline_select(proxy, pool, keep_fraction=0.25)
    ent = entropy(nn.softmax(nn.forward(proxy, pool.features)))
    threshold = np.sort(ent)[::-1][len(kept) - 1]
    assert np.all(ent[np.isin(pool.ids, kept)] >= threshold - 1e-12)


def test_policy_validation():
    with pytest.raises(ValueError):
        SelectionPolicy(kind="mystery")
    for temperature in (0.0, np.inf, np.nan):
        with pytest.raises(ValueError):
            SelectionPolicy(kind="grad-norm-is", temperature=temperature)
    with pytest.raises(ValueError):
        SelectionPolicy(kind="svp-entropy", keep_fraction=0.0)
    assert SelectionPolicy(kind="rho-loss").needs_il
    assert not SelectionPolicy(kind="train-loss").needs_il


def test_rho_loss_redundant_point_never_beats_positive_candidate():
    # a learnt point (train loss ~0) scores <= 0, so it never outranks any
    # candidate with positive reducible loss
    t = table_from([0, 1], [0.8, 1.5])
    redundant, informative = score_from_table("rho-loss", [1e-9, 2.0], [0, 1], t)
    assert redundant <= 0.0
    assert informative > 0.0 > redundant
