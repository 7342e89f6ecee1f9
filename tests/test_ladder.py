import numpy as np
import pytest

from rholoss import data, nn
from rholoss.ladder import (
    REFERENCE_RANK_CORRELATION,
    RUNG_NAMES,
    LadderConfig,
    _update,
    run_ladder,
    train_to_convergence,
)
from rholoss.optim import make_optimizer
from rholoss.stats import spearman


def toy_xy(seed=0, n=60, dim=4, classes=3, spread=0.4):
    ds = data.gen_synthetic(classes, n // classes, dim, spread, seed=seed, radius=2.5)
    return ds.features, ds.labels


def test_train_to_convergence_zero_budget_noop():
    x, y = toy_xy()
    model = nn.init_mlp((4, 8, 3), seed=1)
    before = [w.copy() for w in model.weights]
    train_to_convergence(model, x, y, make_optimizer("adamw", 1e-3), 0)
    for a, b in zip(before, model.weights):
        assert np.array_equal(a, b)


def test_train_to_convergence_fits_separable_toy():
    x, y = toy_xy(spread=0.15)
    model = nn.init_mlp((4, 32, 3), seed=2)
    opt = make_optimizer("adamw", 5e-3)
    train_to_convergence(model, x, y, opt, 200, tol=1e-9, batch_size=16, rng=np.random.default_rng(0))
    loss = float(nn.cross_entropy(nn.forward(model, x), y).mean())
    assert loss < 0.01


def test_train_to_convergence_deterministic():
    x, y = toy_xy()

    def run():
        model = nn.init_mlp((4, 8, 3), seed=3)
        train_to_convergence(model, x, y, make_optimizer("adamw", 1e-3), 3, rng=np.random.default_rng(5))
        return model

    a, b = run(), run()
    for pa, pb in zip(nn.parameters(a).values(), nn.parameters(b).values()):
        assert np.array_equal(pa, pb)


def test_train_to_convergence_stops_on_plateau():
    x, y = toy_xy(spread=0.15)
    model = nn.init_mlp((4, 32, 3), seed=4)
    opt = make_optimizer("adamw", 5e-3)
    # huge budget but loose tolerance: must bail out early via the plateau check
    train_to_convergence(model, x, y, opt, 10_000, tol=0.5, batch_size=16, rng=np.random.default_rng(1))
    assert opt.step_count < 100


def test_train_to_convergence_ensemble_members_trained():
    x, y = toy_xy()
    ens = nn.make_ensemble((4, 8, 3), 3, seed=5)
    members = [(m, make_optimizer("adamw", 1e-3)) for m in ens.members]
    before = [m.weights[0].copy() for m in ens.members]
    cfg = LadderConfig(convergence_epochs=2)
    _update(members, "converged", x, y, x[:4], y[:4], cfg, np.random.default_rng(2))
    for b, m in zip(before, ens.members):
        assert not np.array_equal(b, m.weights[0])


def ladder_task(seed=50):
    base = data.gen_synthetic(4, 60, 6, 1.0, seed=seed, radius=2.5)
    pool, holdout = data.split(base, data.SplitSpec(0.4, seed=seed + 1))
    pool = data.inject_uniform_noise(pool, 0.1, seed=seed + 2)
    pool = data.duplicate(pool, 2)
    return pool, holdout


@pytest.fixture(scope="module")
def ladder_results():
    pool, holdout = ladder_task()
    cfg = LadderConfig(
        n_b=4, n_B=40, ensemble_size=3, convergence_epochs=3, il_pretrain_epochs=15,
        hidden=(16,), small_hidden=(8,), batch_size=16, seed=7,
    )
    return run_ladder(pool, holdout, cfg), pool, holdout, cfg


def test_ladder_self_rung_is_one(ladder_results):
    results, *_ = ladder_results
    assert results["approx0"].mean_rho == pytest.approx(1.0, abs=1e-12)
    assert results["approx0"].frac_positive == 1.0


def test_ladder_emits_every_rung_with_bounded_rho(ladder_results):
    results, pool, _, cfg = ladder_results
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
    results, pool, holdout, cfg = ladder_results
    again = run_ladder(pool, holdout, cfg)
    for name in RUNG_NAMES:
        assert again[name].step_rho == results[name].step_rho


def test_ladder_random_scores_uncorrelated_with_gold(ladder_results):
    # a dummy rung emitting random scores should correlate with the gold
    # standard at roughly zero, judged against a permutation null built by
    # shuffling the gold scores themselves
    results, *_ = ladder_results
    gold = results["approx0"].step_scores
    rng = np.random.default_rng(8)
    dummy_mean = np.mean([spearman(rng.standard_normal(len(g)), g) for g in gold])
    null_rng = np.random.default_rng(9)
    null = np.array(
        [np.mean([spearman(null_rng.permutation(g), g) for g in gold]) for _ in range(300)]
    )
    assert abs(dummy_mean - null.mean()) < 3 * null.std() + 1e-9


def test_ladder_rejects_tiny_pool():
    pool, holdout = ladder_task()
    small = data.take(pool, np.arange(10))
    with pytest.raises(ValueError):
        run_ladder(small, holdout, LadderConfig(n_b=4, n_B=40))


def test_reference_table_complete():
    assert set(REFERENCE_RANK_CORRELATION) == {"approx1a", "approx1b", "approx2", "approx3"}
