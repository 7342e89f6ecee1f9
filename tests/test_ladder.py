import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rholoss import data, ladder, nn
from rholoss.config import OptimizerSettings
from rholoss.ladder import (
    REFERENCE_RANK_CORRELATION,
    RUNG_NAMES,
    LadderConfig,
    run_ladder,
    train_to_convergence,
)
from rholoss.optim import make_optimizer
from rholoss.selection import select_top_k
from rholoss.stats import spearman

from oracles import LoopOptimizer, ladder_rung_by_rung, train_members_one_at_a_time


def toy_xy(seed=0, n=60, dim=4, classes=3, spread=0.4):
    ds = data.gen_synthetic(classes, n // classes, dim, spread, seed=seed, radius=2.5)
    return ds.features, ds.labels


def single_stack(sizes, seed):
    return nn.stack_models([nn.init_mlp(sizes, seed=seed)])


def test_train_to_convergence_zero_budget_noop():
    x, y = toy_xy()
    model = single_stack((4, 8, 3), seed=1)
    before = [w.copy() for w in model.weights]
    train_to_convergence(model, x, y, make_optimizer("adamw", 1e-3), 0, 1e-3, 32, [np.random.default_rng(0)])
    for a, b in zip(before, model.weights):
        assert np.array_equal(a, b)


def test_train_to_convergence_fits_separable_toy():
    x, y = toy_xy(spread=0.15)
    model = single_stack((4, 32, 3), seed=2)
    opt = make_optimizer("adamw", 5e-3)
    train_to_convergence(model, x, y, opt, 200, 1e-9, 16, [np.random.default_rng(0)])
    loss = float(nn.cross_entropy(nn.forward(model, x), y).mean())
    assert loss < 0.01


def test_train_to_convergence_deterministic():
    x, y = toy_xy()

    def run():
        model = single_stack((4, 8, 3), seed=3)
        train_to_convergence(model, x, y, make_optimizer("adamw", 1e-3), 3, 1e-3, 32, [np.random.default_rng(5)])
        return model

    a, b = run(), run()
    for pa, pb in zip(nn.parameters(a).values(), nn.parameters(b).values()):
        assert np.array_equal(pa, pb)


def test_train_to_convergence_stops_on_plateau():
    x, y = toy_xy(spread=0.15)
    model = single_stack((4, 32, 3), seed=4)
    opt = make_optimizer("adamw", 5e-3)
    # huge budget but loose tolerance: must bail out early via the plateau check
    train_to_convergence(model, x, y, opt, 10_000, 0.5, 16, [np.random.default_rng(1)])
    assert opt.step_count[0] < 100


def test_train_to_convergence_ensemble_members_trained():
    x, y = toy_xy()
    stack = nn.stack_models(nn.init_mlp((4, 8, 3), seed=s) for s in (5, 6, 7))
    before = stack.weights[0].copy()
    cfg = LadderConfig(convergence_epochs=2)
    rngs = [np.random.default_rng(s) for s in (2, 3, 4)]
    opt = make_optimizer("adamw", 1e-3)
    train_to_convergence(stack, x, y, opt, cfg.convergence_epochs, cfg.convergence_tol, cfg.batch_size, rngs)
    for j in range(3):
        assert not np.array_equal(before[j], stack.weights[0][j])


def test_train_to_convergence_needs_one_generator_per_member():
    x, y = toy_xy()
    plain, stack = nn.init_mlp((4, 8, 3), seed=1), single_stack((4, 8, 3), seed=1)
    for model, rngs in ((plain, [np.random.default_rng(0)]), (stack, [])):
        with pytest.raises(ValueError, match="one generator per member"):
            train_to_convergence(model, x, y, make_optimizer("adamw", 1e-3), 1, 1e-3, 32, rngs)


def lockstep_against_one_at_a_time(k, n, batch_size, budget, tol, kind, seed, sets=0):
    """Train k members as one stack and, separately, one at a time from the
    same init and streams, in two calls as two acquisitions would; both must
    agree bit for bit. Every member trains on all n rows, or with sets > 0,
    member j on set j % sets, n rows of a shared array of n + 5 given as row
    indices. Returns the step counts."""
    rng = np.random.default_rng(seed)
    total = n + 5 if sets else n
    x, y = rng.standard_normal((total, 3)), rng.integers(0, 3, total)
    rows = None
    if sets:
        picks = [rng.permutation(total)[:n] for _ in range(sets)]
        rows = np.stack([picks[j % sets] for j in range(k)])
    lr = 0.05 if kind == "adamw" else 0.2
    models = [nn.init_mlp((3, 6, 3), seed=seed + j) for j in range(k)]
    stack, opt = nn.stack_models(models), make_optimizer(kind, lr, weight_decay=0.01)
    loops = [LoopOptimizer(kind, lr, weight_decay=0.01) for _ in models]
    streams = np.random.SeedSequence(seed).spawn(k)
    stack_rngs, loop_rngs = ([np.random.default_rng(s) for s in streams] for _ in range(2))
    for _ in range(2):  # a member that stopped early in the first call must have drawn nothing more
        train_to_convergence(stack, x, y, opt, budget, tol, batch_size, stack_rngs, rows)
        train_members_one_at_a_time(models, loops, x, y, budget, tol, batch_size, loop_rngs, rows)
    counts = np.broadcast_to(opt.step_count, (k,))
    for j, (model, loop) in enumerate(zip(models, loops)):
        assert counts[j] == loop.step_count
        for name, p in nn.parameters(model).items():
            assert np.array_equal(nn.parameters(stack)[name][j], p), name
            if loop.exp_avg:
                assert np.array_equal(nn.param_views(stack, opt.flat_exp_avg)[name][j], loop.exp_avg[name]), name
                assert np.array_equal(nn.param_views(stack, opt.flat_exp_avg_sq)[name][j], loop.exp_avg_sq[name]), name
    return counts


@settings(max_examples=40, deadline=None)
@given(
    k=st.integers(1, 4),
    n=st.integers(1, 24),
    batch_size=st.integers(1, 8),
    budget=st.integers(0, 6),
    tol=st.sampled_from([0.0, 0.01, 0.05, 0.2]),
    kind=st.sampled_from(["adamw", "sgd"]),
    seed=st.integers(0, 2**16),
    sets=st.integers(0, 4),
)
@example(k=3, n=9, batch_size=4, budget=0, tol=0.05, kind="adamw", seed=0, sets=0)
@example(k=4, n=13, batch_size=4, budget=6, tol=0.05, kind="adamw", seed=3, sets=0)
@example(k=4, n=13, batch_size=4, budget=6, tol=0.05, kind="adamw", seed=3, sets=2)
def test_lockstep_training_matches_members_trained_one_at_a_time(k, n, batch_size, budget, tol, kind, seed, sets):
    lockstep_against_one_at_a_time(k, n, batch_size, budget, tol, kind, seed, sets)


def test_lockstep_members_stop_at_different_epochs():
    # 13 % 4 == 1: every epoch ends on a one-row minibatch
    counts = lockstep_against_one_at_a_time(4, 13, 4, 6, 0.05, "adamw", 3)
    assert len(set(counts.tolist())) > 1


def test_lockstep_members_on_their_own_sets_stop_at_different_epochs():
    counts = lockstep_against_one_at_a_time(4, 13, 4, 6, 0.05, "adamw", 3, sets=3)
    assert len(set(counts.tolist())) > 1


@pytest.mark.parametrize("budget", [1, 2, 3, 5])
@pytest.mark.parametrize("shared", [True, False])
def test_train_to_convergence_computes_only_the_losses_a_stop_reads(budget, shared, monkeypatch):
    # tol = -inf never stops a member, so every budget epoch runs; the loss
    # after the last one has no use, so a budget of B takes B passes per
    # member (B - 1 decisions need B losses), and a budget of 1 none
    x, y = toy_xy()
    rows = None if shared else np.stack([np.arange(0, 60, 2), np.arange(1, 60, 2)])
    passes = []
    real = ladder.forward
    monkeypatch.setattr(ladder, "forward", lambda model, xs: passes.append(len(xs)) or real(model, xs))
    stack = nn.stack_models(nn.init_mlp((4, 8, 3), seed=s) for s in (1, 2))
    opt = make_optimizer("adamw", 1e-3)
    train_to_convergence(stack, x, y, opt, budget, -np.inf, 16, [np.random.default_rng(s) for s in (3, 4)], rows)
    assert opt.step_count == [budget * (4 if shared else 2)] * 2  # 60 or 30 rows in minibatches of 16
    assert passes == [60 if shared else 30] * (0 if budget == 1 else 2 * budget)


@pytest.mark.parametrize("budget", [1, 3])
def test_train_to_convergence_refuses_what_its_last_epoch_left_non_finite(budget, monkeypatch):
    # no loss pass follows the last epoch, so nothing would run the forward
    # pass that raises; the parameters are checked instead
    x, y = toy_xy()
    epochs = []
    real = ladder.train_epoch

    def poisoned(model, *args):
        real(model, *args)
        epochs.append(None)
        if len(epochs) == budget:
            model.params[-1, 0] = np.nan

    monkeypatch.setattr(ladder, "train_epoch", poisoned)
    stack = nn.stack_models(nn.init_mlp((4, 8, 3), seed=s) for s in (1, 2))
    with pytest.raises(nn.NonFiniteLogitsError, match="^training left non-finite parameters$"):
        train_to_convergence(stack, x, y, make_optimizer("adamw", 1e-3), budget, -np.inf, 16,
                             [np.random.default_rng(s) for s in (3, 4)])


def test_a_shared_update_whose_last_epoch_diverges_names_both_rungs(monkeypatch):
    real = ladder.train_epoch

    def poisoned(model, *args):
        real(model, *args)
        model.params[0, 0] = np.nan

    monkeypatch.setattr(ladder, "train_epoch", poisoned)  # the IL pre-fit trains no epoch at a budget of 0
    pool, holdout = ladder_task()
    cfg = LadderConfig(n_b=4, n_B=40, ensemble_size=2, convergence_epochs=1, il_pretrain_epochs=0, hidden=(8,),
                       small_hidden=(4,), batch_size=16, seed=3)
    with pytest.raises(nn.NonFiniteLogitsError) as info:
        run_ladder(pool, holdout, cfg)
    want = "ladder rungs approx0 and approx1a step 0 (target update): training left non-finite parameters"
    assert str(info.value) == want


def ladder_task(seed=50):
    base = data.gen_synthetic(4, 60, 6, 1.0, seed=seed, radius=2.5)
    pool, holdout = data.split(base, 0.4, seed + 1)
    pool = data.inject_uniform_noise(pool, 0.1, seed=seed + 2)
    pool = data.duplicate(pool, 2)
    return pool, holdout


def run_ladder_with_scores(pool, holdout, cfg):
    """run_ladder's results, and each rung's candidate scores at every step,
    as the rung hands them to select_top_k (once per rung and step, in rung
    order)."""
    handed = []

    def spy(scores, *args):
        handed.append(scores)
        return select_top_k(scores, *args)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ladder, "select_top_k", spy)
        results = run_ladder(pool, holdout, cfg)
    return results, {name: handed[i :: len(RUNG_NAMES)] for i, name in enumerate(RUNG_NAMES)}


@pytest.fixture(scope="module")
def ladder_results():
    pool, holdout = ladder_task()
    cfg = LadderConfig(
        n_b=4, n_B=40, ensemble_size=3, convergence_epochs=3, il_pretrain_epochs=15,
        hidden=(16,), small_hidden=(8,), batch_size=16, seed=7,
    )
    results, scores = run_ladder_with_scores(pool, holdout, cfg)
    return results, pool, holdout, cfg, scores


def test_ladder_self_rung_is_one(ladder_results):
    results, *_ = ladder_results
    assert results["approx0"].mean_rho == pytest.approx(1.0, abs=1e-12)
    assert results["approx0"].frac_positive == 1.0


def test_ladder_emits_every_rung_with_bounded_rho(ladder_results):
    results, pool, _, cfg, _ = ladder_results
    assert set(results) == set(RUNG_NAMES)
    n_steps = int(np.ceil(pool.n / cfg.n_B))
    for res in results.values():
        assert len(res.step_rho) == n_steps
        assert all(-1.0 - 1e-12 <= r <= 1.0 + 1e-12 for r in res.step_rho)


def test_ladder_reference_values_attached(ladder_results):
    results, *_ = ladder_results
    assert results["approx1a"].reference_rho == 0.75
    assert results["approx1b"].reference_rho == 0.76
    assert results["approx2"].reference_rho == 0.63
    assert results["approx3"].reference_rho == 0.51
    assert results["approx0"].reference_rho is None


def test_ladder_deterministic(ladder_results):
    results, pool, holdout, cfg, _ = ladder_results
    again = run_ladder(pool, holdout, cfg)
    for name in RUNG_NAMES:
        assert again[name].step_rho == results[name].step_rho


def test_ladder_random_scores_uncorrelated_with_gold(ladder_results):
    # a dummy rung emitting random scores should correlate with the gold
    # standard at roughly zero, judged against a permutation null built by
    # shuffling the gold scores themselves
    *_, scores = ladder_results
    gold = scores["approx0"]
    rng = np.random.default_rng(8)
    dummy_mean = np.mean([spearman(rng.standard_normal(len(g)), g) for g in gold])
    null_rng = np.random.default_rng(9)
    null = np.array(
        [np.mean([spearman(null_rng.permutation(g), g) for g in gold]) for _ in range(300)]
    )
    assert abs(dummy_mean - null.mean()) < 3 * null.std() + 1e-9


@pytest.mark.parametrize("pretrain, convergence", [(0, 0), (0, 2), (2, 0)])
def test_ladder_runs_with_zero_training_budgets(pretrain, convergence):
    pool, holdout = ladder_task()
    cfg = LadderConfig(
        n_b=4, n_B=40, ensemble_size=2, convergence_epochs=convergence, il_pretrain_epochs=pretrain,
        hidden=(8,), small_hidden=(4,), batch_size=16, seed=3,
    )
    results = run_ladder(pool, holdout, cfg)
    assert results["approx0"].mean_rho == pytest.approx(1.0, abs=1e-12)


def test_ladder_rejects_tiny_pool():
    pool, holdout = ladder_task()
    small = data.take(pool, np.arange(10))
    with pytest.raises(ValueError):
        run_ladder(small, holdout, LadderConfig(n_b=4, n_B=40))


@pytest.mark.parametrize("one_row_chunk", ["every", "last"])
def test_ladder_rejects_a_one_candidate_step_before_training(one_row_chunk, monkeypatch):
    pool, holdout = ladder_task()
    n_B = 1 if one_row_chunk == "every" else pool.n - 1
    monkeypatch.setattr(ladder, "train_to_convergence", lambda *a, **k: pytest.fail("trained first"))
    with pytest.raises(ValueError, match=rf"^ladder\.n_B: .* on a pool of {pool.n} leaves a last candidate chunk of 1,"):
        run_ladder(pool, holdout, LadderConfig(n_b=1, n_B=n_B))


def test_reference_table_complete():
    assert set(REFERENCE_RANK_CORRELATION) == {"approx1a", "approx1b", "approx2", "approx3"}


def tiny_ladder_task(seed):
    base = data.gen_synthetic(3, 16, 4, 1.0, seed=seed, radius=2.0)
    pool, holdout = data.split(base, 0.4, seed + 1)
    return data.inject_uniform_noise(pool, 0.2, seed=seed + 2), holdout


@settings(max_examples=12, deadline=None, derandomize=True)
@given(
    ensemble_size=st.integers(1, 3),
    convergence_epochs=st.integers(0, 3),
    il_pretrain_epochs=st.integers(0, 3),
    tol=st.sampled_from([0.0, 0.02, 0.1]),
    kind=st.sampled_from(["adamw", "sgd"]),
    batch_size=st.sampled_from([4, 7]),
    seed=st.integers(0, 2**16),
)
@example(ensemble_size=3, convergence_epochs=3, il_pretrain_epochs=3, tol=0.1, kind="adamw", batch_size=7, seed=5)
@example(ensemble_size=1, convergence_epochs=0, il_pretrain_epochs=1, tol=0.0, kind="sgd", batch_size=4, seed=9)
def test_lockstep_ladder_matches_the_rung_by_rung_oracle(
    ensemble_size, convergence_epochs, il_pretrain_epochs, tol, kind, batch_size, seed
):
    pool, holdout = tiny_ladder_task(seed)
    cfg = LadderConfig(
        n_b=3, n_B=10, ensemble_size=ensemble_size, convergence_epochs=convergence_epochs,
        il_pretrain_epochs=il_pretrain_epochs, convergence_tol=tol, hidden=(6,), small_hidden=(3,),
        batch_size=batch_size, optimizer=OptimizerSettings(kind, 0.05 if kind == "adamw" else 0.2), seed=seed,
    )
    results, scores = run_ladder_with_scores(pool, holdout, cfg)
    oracle = ladder_rung_by_rung(pool, holdout, cfg)
    for name in RUNG_NAMES:
        assert len(scores[name]) == len(oracle[name])
        for got, want in zip(scores[name], oracle[name]):
            assert np.array_equal(got, want), name
        rhos = [spearman(s, g) for s, g in zip(oracle[name], oracle["approx0"])]
        assert np.array_equal(results[name].step_rho, [np.nan if r is None else r for r in rhos], equal_nan=True)


def test_the_oracle_task_stops_members_at_different_epochs(monkeypatch):
    # the first example above must exercise early stops in both merged
    # stacks: in some update of each, its members train different epochs
    pool, holdout = tiny_ladder_task(5)
    cfg = LadderConfig(
        n_b=3, n_B=10, ensemble_size=3, convergence_epochs=3, il_pretrain_epochs=3, convergence_tol=0.1,
        hidden=(6,), small_hidden=(3,), batch_size=7, optimizer=OptimizerSettings("adamw", 0.05), seed=5,
    )
    spread = {}  # optimizer -> the distinct step counts of each call's members
    real = ladder.train_to_convergence

    def spy(model, x, y, opt, *args, rows=None):
        rows = args[4] if len(args) > 4 else rows
        before = np.broadcast_to(opt.step_count, model.stack).copy()
        real(model, x, y, opt, *args[:4], rows)
        if rows is not None:  # an update group's training sets, not the IL pre-fit
            counts = np.broadcast_to(opt.step_count, model.stack) - before
            spread.setdefault(id(opt), []).append(len(set(counts.tolist())))

    monkeypatch.setattr(ladder, "train_to_convergence", spy)
    run_ladder(pool, holdout, cfg)
    assert len(spread) == 2  # the merged target stack and the IL stack `wide`
    assert all(max(calls) > 1 for calls in spread.values())


def test_a_single_step_rung_names_itself_when_it_diverges(monkeypatch):
    def diverge(*args, **kwargs):
        raise nn.NonFiniteLogitsError("forward pass produced non-finite logits")

    monkeypatch.setattr(ladder, "train_step", diverge)  # the single-step update; converged ones train by epochs
    pool, holdout = ladder_task()
    cfg = LadderConfig(n_b=4, n_B=40, ensemble_size=2, convergence_epochs=1, il_pretrain_epochs=1, hidden=(8,),
                       small_hidden=(4,), batch_size=16, seed=3)
    with pytest.raises(nn.NonFiniteLogitsError) as info:
        run_ladder(pool, holdout, cfg)
    assert str(info.value) == "ladder rung approx1b step 0 (target update): forward pass produced non-finite logits"
