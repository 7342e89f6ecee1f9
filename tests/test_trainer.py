import copy
import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rholoss import data, nn, trainer
from rholoss.ilmodel import compute_il_table, train_il_model
from rholoss.optim import make_optimizer, optimizer_step
from rholoss.records import (
    CompositionRow,
    EvalRow,
    RunRecord,
    epochs_to_target,
    load_run_record,
    redundancy_epoch_filter,
    save_run_record,
    weakest_final_accuracy,
)
from rholoss.selection import ALL_KINDS, NEEDS_IL, OFFLINE_KINDS, SelectionPolicy
from rholoss.trainer import (
    RunConfig,
    evaluate,
    run_original_selection,
    run_training,
)


def make_task(seed=0, per_class=40, classes=4, dim=6, spread=1.0):
    base = data.gen_synthetic(classes, per_class, dim, spread, seed=seed, radius=2.5)
    pool, test = data.split(base, 0.25, seed + 1)
    pool, holdout = data.split(pool, 0.3, seed + 2)
    return pool, holdout, test


def quick_cfg(kind="uniform", **kw):
    defaults = dict(n_b=4, n_B=20, epochs=2, seed=3, learning_rate=1e-3)
    defaults.update(kw)
    return RunConfig(policy=SelectionPolicy(kind=kind), **defaults)


# ---------------------------------------------------------------- evaluate


def test_evaluate_perfect_model():
    ds = data.gen_synthetic(3, 30, 4, 0.2, seed=1, radius=3.0)
    model, _ = train_il_model(ds, validation=ds, hidden=(32,), epochs=60, learning_rate=5e-3,
                              weight_decay=0.0, seed=1)
    acc, loss = evaluate(model, ds)
    assert acc == 1.0
    assert loss < 0.1


def test_evaluate_uniform_model_chance_accuracy():
    ds = data.gen_synthetic(10, 300, 4, 1.0, seed=2)
    model = nn.init_mlp((4, 10), seed=0)
    model.weights[0][:] = 0.0
    model.biases[0][:] = 0.0
    acc, loss = evaluate(model, ds)
    assert abs(acc - 0.1) < 3 * np.sqrt(0.1 * 0.9 / ds.n)
    assert loss == pytest.approx(np.log(10), abs=1e-12)


def test_evaluate_loss_matches_oracle():
    ds = data.gen_synthetic(3, 20, 4, 1.0, seed=3)
    model = nn.init_mlp((4, 8, 3), seed=4)
    _, loss = evaluate(model, ds, batch_size=16)
    per = [float(nn.cross_entropy(nn.forward(model, ds.features[i : i + 1]), [ds.labels[i]])[0]) for i in range(ds.n)]
    assert loss == pytest.approx(np.mean(per), abs=1e-12)


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 40), seed=st.integers(0, 2**16), extra=st.integers(0, 45))
def test_evaluate_any_batch_size_matches_per_example_oracle(n, seed, extra):
    rng = np.random.default_rng(seed)
    ds = data.make_dataset(rng.normal(size=(n, 4)), rng.integers(0, 3, n), 3)
    model = nn.init_mlp((4, 8, 3), seed=seed)
    batch_size = 1 + extra % (n + 5)
    acc, loss = evaluate(model, ds, batch_size=batch_size)
    rows = [nn.forward(model, ds.features[i : i + 1]) for i in range(n)]
    correct = sum(int(np.argmax(r[0]) == ds.labels[i]) for i, r in enumerate(rows))
    per = [float(nn.cross_entropy(r, [ds.labels[i]])[0]) for i, r in enumerate(rows)]
    assert acc == correct / n
    assert abs(loss - np.mean(per)) <= 1e-12


# ---------------------------------------------------------------- composition rows
# The trainer counts each epoch's selections into one CompositionRow; these
# crafted runs pin what those fractions read.


def test_composition_no_flags_zero_fractions():
    ds = data.gen_synthetic(3, 10, 4, 1.0, seed=5)
    model = nn.init_mlp((4, 3), seed=0)
    record = run_training(ds, ds, None, quick_cfg(n_b=2, n_B=10, epochs=2), model)
    assert [c.epoch for c in record.compositions] == [1, 2]
    for comp in record.compositions:
        assert comp.n_selected == 6
        assert comp.frac_corrupted == 0.0 and comp.frac_low_relevance == 0.0


def test_composition_all_correct_crafted():
    ds = data.gen_synthetic(3, 20, 4, 0.2, seed=6, radius=3.0)
    model, _ = train_il_model(ds, validation=ds, hidden=(32,), epochs=60, learning_rate=5e-3,
                              weight_decay=0.0, seed=2)
    assert evaluate(model, ds)[0] == 1.0
    # learning rate 0 keeps the fitted model fixed, so every selection is already correct
    record = run_training(ds, ds, None, quick_cfg(n_b=5, n_B=20, epochs=2, learning_rate=0.0), model)
    assert [c.frac_already_correct for c in record.compositions] == [1.0, 1.0]


def test_composition_random_model_chance_rate():
    ds = data.gen_synthetic(10, 200, 4, 1.0, seed=7)
    model = nn.init_mlp((4, 10), seed=1)
    model.weights[0][:] = 0.0
    model.biases[0][:] = 0.0
    # uniform logits predict class 0 and stay so at learning rate 0; n_b == n_B selects every
    # example once, and balanced labels -> 10% correct
    record = run_training(ds, ds, None, quick_cfg(n_b=200, n_B=200, epochs=1, learning_rate=0.0), model)
    (comp,) = record.compositions
    assert comp.n_selected == ds.n
    assert abs(comp.frac_already_correct - 0.1) < 3 * np.sqrt(0.1 * 0.9 / ds.n)


# ---------------------------------------------------------------- record analytics


def eval_row(epoch, acc):
    return EvalRow(step=epoch * 10, epoch=epoch, at_epoch_end=True, accuracy=acc, mean_loss=1.0)


def test_epochs_to_target_examples():
    rec = RunRecord(policy="uniform", seed=0, evals=[eval_row(1, 0.5), eval_row(2, 0.81), eval_row(3, 0.9)])
    assert epochs_to_target(rec, 0.8) == 2
    assert epochs_to_target(rec, 0.95) is None
    assert epochs_to_target(rec, 0.81) == 2  # exact hit counts


def test_redundancy_filter_hand_cases():
    def rec(accs, fracs):
        return RunRecord(
            policy="x",
            seed=0,
            evals=[eval_row(e + 1, a) for e, a in enumerate(accs)],
            compositions=[CompositionRow(e + 1, 10, 0.0, 0.0, f) for e, f in enumerate(fracs)],
        )

    records = {"a": rec([0.3, 0.6, 0.9], [0.1, 0.5, 0.9])}
    # threshold 0.5: only epoch 1 qualifies
    assert redundancy_epoch_filter(records, 0.5) == {"a": 0.1}
    # threshold 0.7: epochs 1-2 qualify, hand average
    assert redundancy_epoch_filter(records, 0.7)["a"] == pytest.approx((0.1 + 0.5) / 2)
    # nothing qualifies: None marker, not zero
    assert redundancy_epoch_filter(records, 0.1) == {"a": None}


def test_weakest_final_accuracy():
    recs = {
        "a": RunRecord(policy="a", seed=0, evals=[eval_row(1, 0.9)]),
        "b": RunRecord(policy="b", seed=0, evals=[eval_row(1, 0.4)]),
    }
    assert weakest_final_accuracy(recs) == 0.4


# ---------------------------------------------------------------- run_training


def test_uniform_full_batch_matches_plain_training():
    pool, _, test = make_task()
    cfg = quick_cfg(n_b=10, n_B=10, epochs=2, seed=9)
    model = nn.init_mlp((pool.dim, 8, pool.num_classes), seed=11)
    twin = copy.deepcopy(model)
    record = run_training(pool, test, None, cfg, model)

    # plain shuffled minibatch training, reusing the documented stream layout
    streams = np.random.SeedSequence(cfg.seed).spawn(4)
    perm_rng = np.random.default_rng(streams[0])
    opt = make_optimizer(cfg.optimizer_kind, cfg.learning_rate, weight_decay=cfg.weight_decay)
    for _ in range(cfg.epochs):
        perm = perm_rng.permutation(pool.n)
        for start in range(0, pool.n, cfg.n_B):
            chunk = perm[start : start + cfg.n_B]
            grads = nn.backward(
                twin, pool.features[chunk], pool.labels[chunk], mode="train", bn_stat_source="running",
                update_running=True,
            )
            optimizer_step(opt, twin, grads)
    for pa, pb in zip(nn.parameters(model).values(), nn.parameters(twin).values()):
        assert np.array_equal(pa, pb)
    assert len(record.steps) == cfg.epochs * int(np.ceil(pool.n / cfg.n_B))


def test_epoch_chunks_partition_pool():
    pool, _, test = make_task(per_class=25)  # n = 52 after splits (not exact; just use sizes)
    pool = data.take(pool, np.arange(50))
    cfg = quick_cfg(n_b=1, n_B=5, epochs=1, seed=13)
    model = nn.init_mlp((pool.dim, 6, pool.num_classes), seed=1)
    record = run_training(pool, test, None, cfg, model)
    assert len(record.steps) == 10
    seen = [i for row in record.steps for i in row.selected_ids]
    assert len(seen) == 10
    assert set(seen) <= set(int(i) for i in pool.ids)
    # candidate chunks partition the pool: selected ids are distinct across steps
    assert len(set(seen)) == 10


def test_partial_final_chunk_selects_proportional():
    pool, _, test = make_task()
    pool = data.take(pool, np.arange(25))  # chunks of 20 + 5
    cfg = quick_cfg(n_b=4, n_B=20, epochs=1, seed=14)
    model = nn.init_mlp((pool.dim, 6, pool.num_classes), seed=2)
    record = run_training(pool, test, None, cfg, model)
    assert [len(r.selected_ids) for r in record.steps] == [4, 1]


def test_batchnorm_run_refuses_a_last_chunk_that_selects_one_row_before_step_0():
    pool, _, test = make_task(per_class=80)
    pool = data.take(pool, np.arange(144))  # chunks of 20 and a last one of 4, which selects 1 of n_b 4
    model = nn.init_mlp((pool.dim, 8, pool.num_classes), seed=2, batchnorm=True)
    before = copy.deepcopy(model)
    dump = io.StringIO()
    with pytest.raises(ValueError, match="n_b=4 of n_B=20 on a pool of 144 selects 1 from the last chunk of 4"):
        run_training(pool, test, None, quick_cfg(epochs=1), model, score_dump=dump)
    assert dump.getvalue() == ""
    for name, p in nn.parameters(before).items():
        assert np.array_equal(nn.parameters(model)[name], p), name


@settings(max_examples=25, deadline=None)
@given(n=st.integers(1, 60), n_B=st.integers(1, 24), share=st.floats(0.0, 1.0), seed=st.integers(0, 2**16))
def test_batchnorm_runs_finish_or_refuse_before_step_0(n, n_B, share, seed):
    pool, _, test = make_task()
    pool = data.take(pool, np.arange(n))
    n_b = 1 + round(share * (n_B - 1))
    model = nn.init_mlp((pool.dim, 6, pool.num_classes), seed=seed, batchnorm=True)
    before = copy.deepcopy(model)
    try:
        record = run_training(pool, test, None, quick_cfg(n_b=n_b, n_B=n_B, epochs=1, seed=seed), model)
    except ValueError as exc:
        assert "batch normalization needs >= 2 selected rows" in str(exc)
        for name, p in nn.parameters(before).items():
            assert np.array_equal(nn.parameters(model)[name], p), name
    else:
        assert min(len(r.selected_ids) for r in record.steps) >= 2


def test_run_training_deterministic_bitwise():
    pool, holdout, test = make_task()
    il_model, _ = train_il_model(holdout, validation=pool, hidden=(8,), epochs=2, seed=4)
    table = compute_il_table(il_model, pool)
    cfg = quick_cfg(kind="rho-loss", seed=21)

    def run():
        model = nn.init_mlp((pool.dim, 8, pool.num_classes), seed=5)
        return run_training(pool, test, table, cfg, model)

    a, b = run(), run()
    assert a.steps == b.steps
    assert a.evals == b.evals
    assert a.compositions == b.compositions


ONLINE_RUNS = [(kind, "frozen") for kind in ALL_KINDS if kind not in OFFLINE_KINDS]
ONLINE_RUNS += [(kind, "original") for kind in NEEDS_IL]
MODELS = {"plain": {}, "dropout": {"dropout_rate": 0.1}, "batchnorm": {"batchnorm": True}}


@pytest.fixture(scope="module")
def task_with_il():
    pool, holdout, test = make_task()
    il_model, _ = train_il_model(holdout, validation=pool, hidden=(8,), epochs=2, seed=4)
    return pool, test, il_model, compute_il_table(il_model, pool)


@pytest.mark.parametrize("model_kind", MODELS)
@pytest.mark.parametrize("kind, il_update_mode", ONLINE_RUNS)
def test_the_chunk_forward_runs_only_when_needed_and_changes_no_record(
    task_with_il, monkeypatch, tmp_path, kind, model_kind, il_update_mode
):
    pool, test, il_model, table = task_with_il
    policy = SelectionPolicy(kind=kind, mc_samples=4)
    # 84 candidates: four chunks of 20 that select 8 and a last chunk of 4 that selects 2
    cfg = RunConfig(policy=policy, n_b=8, n_B=20, epochs=2, seed=3, il_update_mode=il_update_mode)
    real_forward = trainer.forward

    def run(name):
        """The record, written to name, and the rows of each forward of the trained model."""
        model = nn.init_mlp((pool.dim, 8, pool.num_classes), seed=5, **MODELS[model_kind])
        rows = []

        def counting_forward(m, x, *args, **kwargs):
            if m is model:  # not the live IL model
                rows.append(len(x))
            return real_forward(m, x, *args, **kwargs)

        with monkeypatch.context() as patch:
            patch.setattr(trainer, "forward", counting_forward)
            if il_update_mode == "original":
                record = run_original_selection(pool, test, copy.deepcopy(il_model), cfg, model)
            else:
                record = run_training(pool, test, table, cfg, model)
        save_run_record(record, tmp_path / name, generated_at="2000-01-01T00:00:00+00:00")
        return record, rows

    record, rows = run("lean.csv")
    with monkeypatch.context() as patch:
        patch.setattr(SelectionPolicy, "reads_losses", property(lambda self: True))
        _, forced_rows = run("forced.csv")
    assert (tmp_path / "lean.csv").read_bytes() == (tmp_path / "forced.csv").read_bytes()
    chunk_rows = [20, 20, 20, 20, 4] * cfg.epochs
    assert forced_rows == chunk_rows
    if policy.reads_losses or model_kind == "batchnorm":
        assert rows == chunk_rows
    else:
        assert rows == [len(step.selected_ids) for step in record.steps] == [8, 8, 8, 8, 2] * cfg.epochs


def test_run_training_requires_coverage():
    pool, holdout, test = make_task()
    il_model, _ = train_il_model(holdout, validation=pool, hidden=(8,), epochs=1, seed=4)
    table = compute_il_table(il_model, data.take(pool, np.arange(pool.n - 3)))
    cfg = quick_cfg(kind="rho-loss")
    model = nn.init_mlp((pool.dim, 8, pool.num_classes), seed=5)
    with pytest.raises(ValueError):
        run_training(pool, test, table, cfg, model)
    with pytest.raises(ValueError):
        run_training(pool, test, None, cfg, model)


def test_run_training_empty_pool_rejected():
    pool, _, test = make_task()
    empty = data.take(pool, np.array([], dtype=int))
    model = nn.init_mlp((pool.dim, 8, pool.num_classes), seed=5)
    with pytest.raises(ValueError):
        run_training(empty, test, None, quick_cfg(), model)


def test_frozen_mode_never_mutates_table():
    pool, holdout, test = make_task()
    il_model, _ = train_il_model(holdout, validation=pool, hidden=(8,), epochs=2, seed=6)
    table = compute_il_table(il_model, pool)
    before = table.content_hash()
    model = nn.init_mlp((pool.dim, 8, pool.num_classes), seed=7)
    run_training(pool, test, table, quick_cfg(kind="rho-loss", seed=22), model)
    assert table.content_hash() == before


def test_eval_every_adds_interval_rows():
    pool, _, test = make_task()
    cfg = quick_cfg(epochs=1, eval_every=2, seed=23)
    model = nn.init_mlp((pool.dim, 8, pool.num_classes), seed=8)
    record = run_training(pool, test, None, cfg, model)
    interval = [r for r in record.evals if not r.at_epoch_end]
    assert interval and all(r.step % 2 == 0 for r in interval)
    assert sum(r.at_epoch_end for r in record.evals) == 1


def test_grad_norm_is_policy_runs_and_records_weights_effect():
    pool, _, test = make_task()
    cfg = quick_cfg(kind="grad-norm-is", epochs=1, seed=24)
    model = nn.init_mlp((pool.dim, 8, pool.num_classes), seed=9)
    record = run_training(pool, test, None, cfg, model)
    assert len(record.steps) >= 1


def test_loss_ranked_policy_selects_fewer_already_correct_than_uniform():
    # seeded one-sided statistical comparison over 3 seeds
    diffs = []
    for seed in (31, 32, 33):
        pool, _, test = make_task(seed=seed, per_class=60)
        corr = {}
        for kind in ("train-loss", "uniform"):
            model = nn.init_mlp((pool.dim, 16, pool.num_classes), seed=seed)
            cfg = quick_cfg(kind=kind, n_b=6, n_B=30, epochs=4, seed=seed)
            record = run_training(pool, test, None, cfg, model)
            corr[kind] = np.mean([c.frac_already_correct for c in record.compositions])
        diffs.append(corr["uniform"] - corr["train-loss"])
    assert np.mean(diffs) > 0
    assert sum(d > 0 for d in diffs) >= 2


# ---------------------------------------------------------------- original-mode selection


def test_original_mode_zero_scale_matches_frozen_exactly():
    pool, holdout, test = make_task(per_class=50)
    il_model, _ = train_il_model(holdout, validation=pool, hidden=(16,), epochs=4, seed=10)
    table = compute_il_table(il_model, pool)
    cfg_frozen = quick_cfg(kind="rho-loss", epochs=2, seed=25)
    cfg_live = RunConfig(
        policy=SelectionPolicy(kind="rho-loss"), n_b=4, n_B=20, epochs=2, seed=25,
        learning_rate=1e-3, il_update_mode="original", il_lr_scale=0.0,
    )
    m1 = nn.init_mlp((pool.dim, 8, pool.num_classes), seed=11)
    m2 = copy.deepcopy(m1)
    frozen = run_training(pool, test, table, cfg_frozen, m1)
    live = run_original_selection(pool, test, copy.deepcopy(il_model), cfg_live, m2)
    for a, b in zip(frozen.steps, live.steps):
        assert a.selected_ids == b.selected_ids


def test_original_mode_scores_match_live_loss_oracle():
    pool, holdout, test = make_task()
    il_model, _ = train_il_model(holdout, validation=pool, hidden=(16,), epochs=3, seed=12)
    cfg = RunConfig(
        policy=SelectionPolicy(kind="rho-loss"), n_b=20, n_B=20, epochs=1, seed=26,
        learning_rate=0.0, il_update_mode="original", il_lr_scale=0.0,
    )
    model = nn.init_mlp((pool.dim, 8, pool.num_classes), seed=13)
    snapshot = copy.deepcopy(model)
    record = run_original_selection(pool, test, copy.deepcopy(il_model), cfg, model)
    # lr=0 and lr_scale=0: every step scores with the initial parameters
    row = record.steps[0]
    idx = [int(np.flatnonzero(pool.ids == i)[0]) for i in row.selected_ids]
    x, y = pool.features[idx], pool.labels[idx]
    expected = nn.cross_entropy(nn.forward(snapshot, x), y) - nn.cross_entropy(nn.forward(il_model, x), y)
    assert row.mean_score == pytest.approx(float(expected.mean()), abs=1e-12)


def test_original_mode_diverges_from_frozen_over_time():
    # on a noisy run with a real update scale the selected sets drift apart
    base = data.gen_synthetic(4, 150, 6, 1.1, seed=40, radius=2.5)
    pool, test = data.split(base, 0.25, 41)
    pool, holdout = data.split(pool, 0.3, 42)
    pool = data.inject_uniform_noise(pool, 0.2, seed=43)
    il_model, _ = train_il_model(holdout, validation=pool, hidden=(32,), epochs=10, seed=14)
    table = compute_il_table(il_model, pool)
    kw = dict(n_b=8, n_B=40, epochs=8, seed=27, learning_rate=2e-3)
    m1 = nn.init_mlp((pool.dim, 16, pool.num_classes), seed=15)
    m2 = copy.deepcopy(m1)
    frozen = run_training(pool, test, table, RunConfig(policy=SelectionPolicy(kind="rho-loss"), **kw), m1)
    live = run_original_selection(
        pool, test, copy.deepcopy(il_model),
        RunConfig(policy=SelectionPolicy(kind="rho-loss"), il_update_mode="original", il_lr_scale=0.5, **kw),
        m2,
    )
    def jaccard(a, b):
        sa, sb = set(a), set(b)
        return len(sa & sb) / len(sa | sb)

    sims = [jaccard(f.selected_ids, l.selected_ids) for f, l in zip(frozen.steps, live.steps)]
    quarter = len(sims) // 4
    assert np.mean(sims[:quarter]) > np.mean(sims[-quarter:])


def test_original_mode_with_dropout_il_model_is_deterministic():
    # The live IL model's dropout masks come from a stream of the run seed.
    pool, holdout, test = make_task(seed=5)
    il_model, _ = train_il_model(holdout, validation=pool, hidden=(16,), epochs=2, seed=16, dropout_rate=0.2)
    cfg = RunConfig(
        policy=SelectionPolicy(kind="rho-loss"), n_b=4, n_B=20, epochs=2, seed=28,
        learning_rate=1e-3, il_update_mode="original", il_lr_scale=0.5,
    )
    model = nn.init_mlp((pool.dim, 8, pool.num_classes), seed=17)
    runs = []
    for _ in range(2):
        live = copy.deepcopy(il_model)
        runs.append((run_original_selection(pool, test, live, cfg, copy.deepcopy(model)), live))
    (rec_a, il_a), (rec_b, il_b) = runs
    assert rec_a == rec_b
    assert np.array_equal(il_a.params, il_b.params) and not np.array_equal(il_a.params, il_model.params)


def test_run_training_refuses_a_needs_il_policy_in_original_mode():
    pool, _, test = make_task()
    table = compute_il_table(nn.init_mlp((pool.dim, 8, pool.num_classes), seed=18), pool)
    model = nn.init_mlp((pool.dim, 8, pool.num_classes), seed=19)
    with pytest.raises(ValueError, match="'rho-loss' with il_update_mode 'original'.*run_original_selection"):
        run_training(pool, test, table, quick_cfg(kind="rho-loss", il_update_mode="original"), copy.deepcopy(model))
    # a policy without an IL term has nothing to update, so it runs in either mode
    record = run_training(pool, test, None, quick_cfg(kind="train-loss", il_update_mode="original"), model)
    assert len(record.compositions) == 2


def test_run_original_selection_refuses_frozen_mode():
    pool, _, test = make_task()
    il_model = nn.init_mlp((pool.dim, 8, pool.num_classes), seed=18)
    model = nn.init_mlp((pool.dim, 8, pool.num_classes), seed=19)
    with pytest.raises(ValueError, match="il_update_mode is 'frozen'.*run_training"):
        run_original_selection(pool, test, il_model, quick_cfg(kind="rho-loss"), model)


@pytest.mark.parametrize("kind", ["uniform", "train-loss", "grad-norm-is"])
def test_run_original_selection_refuses_a_policy_that_reads_no_il(kind):
    # the live IL model would take a gradient step on every batch for scores that never read it
    pool, _, test = make_task()
    il_model = nn.init_mlp((pool.dim, 8, pool.num_classes), seed=18)
    before = il_model.params.copy()
    model = nn.init_mlp((pool.dim, 8, pool.num_classes), seed=19)
    with pytest.raises(ValueError, match=f"policy '{kind}' reads no irreducible loss.*run it with run_training"):
        run_original_selection(pool, test, il_model, quick_cfg(kind=kind, il_update_mode="original"), model)
    assert np.array_equal(il_model.params, before)


@pytest.mark.parametrize("scale", [-0.01, -np.inf, np.nan])
def test_run_config_rejects_a_negative_il_lr_scale_by_name(scale):
    # a negative rate would be gradient ascent on the live IL model
    with pytest.raises(ValueError, match="il_lr_scale must be >= 0"):
        RunConfig(policy=SelectionPolicy(kind="rho-loss"), il_update_mode="original", il_lr_scale=scale)
    RunConfig(policy=SelectionPolicy(kind="rho-loss"), il_update_mode="original", il_lr_scale=0.0)


# ---------------------------------------------------------------- record CSV round trip


def test_run_record_csv_roundtrip(tmp_path):
    pool, _, test = make_task()
    cfg = quick_cfg(epochs=2, eval_every=3, seed=28)
    model = nn.init_mlp((pool.dim, 8, pool.num_classes), seed=16)
    record = run_training(pool, test, None, cfg, model)
    record.built_from = "abc123"
    path = tmp_path / "record.csv"
    save_run_record(record, path)
    back = load_run_record(path)
    assert back.policy == record.policy
    assert back.seed == record.seed
    assert back.built_from == "abc123"
    assert back.steps == record.steps
    assert back.evals == record.evals
    assert back.compositions == record.compositions


def test_score_dump_csv(tmp_path):
    pool, holdout, test = make_task()
    il_model, _ = train_il_model(holdout, validation=pool, hidden=(8,), epochs=2, seed=4)
    table = compute_il_table(il_model, pool)
    dump_path = tmp_path / "scores.csv"
    cfg = RunConfig(policy=SelectionPolicy(kind="rho-loss"), n_b=4, n_B=20, epochs=1, seed=3)
    model = nn.init_mlp((pool.dim, 8, pool.num_classes), seed=5)
    with open(dump_path, "w") as dump:
        record = run_training(pool, test, table, cfg, model, score_dump=dump)
    lines = dump_path.read_text().splitlines()
    assert lines[0] == "step,id,score,selected"
    rows = [line.split(",") for line in lines[1:]]
    assert len(rows) == sum(min(20, pool.n - s) for s in range(0, pool.n, 20))
    for row in record.steps:
        dumped_sel = {int(r[1]) for r in rows if int(r[0]) == row.step and r[3] == "1"}
        assert dumped_sel == set(row.selected_ids)
    # dumped scores are the actual scores used for the selection
    step0 = [r for r in rows if r[0] == "0"]
    id_to_score = {int(r[1]): float(r[2]) for r in step0}
    selected_scores = [id_to_score[i] for i in record.steps[0].selected_ids]
    assert np.mean(selected_scores) == pytest.approx(record.steps[0].mean_score, abs=1e-12)


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
def test_divergence_names_the_step_and_closes_the_dump(tmp_path):
    pool, _, test = make_task()
    dump_path = tmp_path / "scores.csv"
    cfg = quick_cfg("uniform", optimizer_kind="sgd", learning_rate=1e300)
    model = nn.init_mlp((pool.dim, 8, pool.num_classes), seed=5)
    with open(dump_path, "w") as dump:
        with pytest.raises(nn.NonFiniteLogitsError, match=r"policy uniform seed 3 epoch 1 step 1: .*non-finite logits"):
            run_training(pool, test, None, cfg, model, score_dump=dump)
    # step 0's rows reach the stream before the step that diverges
    lines = dump_path.read_text().splitlines()
    assert lines[0] == "step,id,score,selected"
    assert len(lines) == 1 + 20 and all(line.startswith("0,") for line in lines[1:])
