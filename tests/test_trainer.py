import numpy as np
import pytest

from rholoss import data, nn
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
from rholoss.selection import SelectionPolicy
from rholoss.trainer import (
    RunConfig,
    composition_metrics,
    evaluate,
    run_original_selection,
    run_training,
)


def make_task(seed=0, per_class=40, classes=4, dim=6, spread=1.0):
    base = data.gen_synthetic(classes, per_class, dim, spread, seed=seed, radius=2.5)
    pool, test = data.split(base, data.SplitSpec(0.25, seed=seed + 1))
    pool, holdout = data.split(pool, data.SplitSpec(0.3, seed=seed + 2))
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


# ---------------------------------------------------------------- composition metrics


def test_composition_no_flags_zero_fractions():
    ds = data.gen_synthetic(3, 10, 4, 1.0, seed=5)
    model = nn.init_mlp((4, 3), seed=0)
    corrupted, low, _ = composition_metrics(ds.ids[:5], ds, model=model)
    assert corrupted == 0.0 and low == 0.0


def test_composition_all_correct_crafted():
    ds = data.gen_synthetic(3, 20, 4, 0.2, seed=6, radius=3.0)
    model, _ = train_il_model(ds, validation=ds, hidden=(32,), epochs=60, learning_rate=5e-3,
                              weight_decay=0.0, seed=2)
    _, _, already = composition_metrics(ds.ids, ds, model=model)
    assert already == 1.0


def test_composition_random_model_chance_rate():
    ds = data.gen_synthetic(10, 200, 4, 1.0, seed=7)
    model = nn.init_mlp((4, 10), seed=1)
    model.weights[0][:] = 0.0
    model.biases[0][:] = 0.0
    # uniform logits: argmax is class 0, balanced labels -> 10% correct
    _, _, already = composition_metrics(ds.ids, ds, model=model)
    assert abs(already - 0.1) < 3 * np.sqrt(0.1 * 0.9 / ds.n)


def test_composition_accepts_precomputed_predictions():
    ds = data.gen_synthetic(3, 10, 4, 1.0, seed=8)
    preds = ds.labels.copy()
    _, _, already = composition_metrics(ds.ids[:7], ds, predictions=preds)
    assert already == 1.0


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
    twin = nn.clone_model(model)
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
    m2 = nn.clone_model(m1)
    frozen = run_training(pool, test, table, cfg_frozen, m1)
    live = run_original_selection(pool, test, nn.clone_model(il_model), cfg_live, m2)
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
    snapshot = nn.clone_model(model)
    record = run_original_selection(pool, test, nn.clone_model(il_model), cfg, model)
    # lr=0 and lr_scale=0: every step scores with the initial parameters
    row = record.steps[0]
    idx = [int(np.flatnonzero(pool.ids == i)[0]) for i in row.selected_ids]
    x, y = pool.features[idx], pool.labels[idx]
    expected = nn.cross_entropy(nn.forward(snapshot, x), y) - nn.cross_entropy(nn.forward(il_model, x), y)
    assert row.mean_score == pytest.approx(float(expected.mean()), abs=1e-12)


def test_original_mode_diverges_from_frozen_over_time():
    # on a noisy run with a real update scale the selected sets drift apart
    base = data.gen_synthetic(4, 150, 6, 1.1, seed=40, radius=2.5)
    pool, test = data.split(base, data.SplitSpec(0.25, seed=41))
    pool, holdout = data.split(pool, data.SplitSpec(0.3, seed=42))
    pool = data.inject_uniform_noise(pool, 0.2, seed=43)
    il_model, _ = train_il_model(holdout, validation=pool, hidden=(32,), epochs=10, seed=14)
    table = compute_il_table(il_model, pool)
    kw = dict(n_b=8, n_B=40, epochs=8, seed=27, learning_rate=2e-3)
    m1 = nn.init_mlp((pool.dim, 16, pool.num_classes), seed=15)
    m2 = nn.clone_model(m1)
    frozen = run_training(pool, test, table, RunConfig(policy=SelectionPolicy(kind="rho-loss"), **kw), m1)
    live = run_original_selection(
        pool, test, nn.clone_model(il_model),
        RunConfig(policy=SelectionPolicy(kind="rho-loss"), il_update_mode="original", il_lr_scale=0.5, **kw),
        m2,
    )
    def jaccard(a, b):
        sa, sb = set(a), set(b)
        return len(sa & sb) / len(sa | sb)

    sims = [jaccard(f.selected_ids, l.selected_ids) for f, l in zip(frozen.steps, live.steps)]
    quarter = len(sims) // 4
    assert np.mean(sims[:quarter]) > np.mean(sims[-quarter:])


# ---------------------------------------------------------------- record CSV round trip


def test_run_record_csv_roundtrip(tmp_path):
    pool, _, test = make_task()
    cfg = quick_cfg(epochs=2, eval_every=3, seed=28)
    model = nn.init_mlp((pool.dim, 8, pool.num_classes), seed=16)
    record = run_training(pool, test, None, cfg, model)
    record.config_hash = "abc123"
    path = tmp_path / "record.csv"
    save_run_record(record, path)
    back = load_run_record(path)
    assert back.policy == record.policy
    assert back.seed == record.seed
    assert back.config_hash == "abc123"
    assert back.steps == record.steps
    assert back.evals == record.evals
    assert back.compositions == record.compositions


def test_score_dump_csv(tmp_path):
    pool, holdout, test = make_task()
    il_model, _ = train_il_model(holdout, validation=pool, hidden=(8,), epochs=2, seed=4)
    table = compute_il_table(il_model, pool)
    dump_path = tmp_path / "scores.csv"
    cfg = RunConfig(
        policy=SelectionPolicy(kind="rho-loss"), n_b=4, n_B=20, epochs=1, seed=3,
        score_dump_path=str(dump_path),
    )
    model = nn.init_mlp((pool.dim, 8, pool.num_classes), seed=5)
    record = run_training(pool, test, table, cfg, model)
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
    cfg = quick_cfg("uniform", optimizer_kind="sgd", learning_rate=1e300, score_dump_path=str(dump_path))
    model = nn.init_mlp((pool.dim, 8, pool.num_classes), seed=5)
    with pytest.raises(nn.NonFiniteLogitsError, match=r"policy uniform seed 3 epoch 1 step 1: .*non-finite logits"):
        run_training(pool, test, None, cfg, model)
    # step 0's rows are on disk only if the file was closed on the way out
    lines = dump_path.read_text().splitlines()
    assert lines[0] == "step,id,score,selected"
    assert len(lines) == 1 + 20 and all(line.startswith("0,") for line in lines[1:])
