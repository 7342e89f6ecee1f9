import copy

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rholoss import data, nn
from rholoss.ilmodel import (
    CheckpointLog,
    IrreducibleLossTable,
    compute_il_table,
    compute_il_table_two_halves,
    load_il_table,
    save_il_table,
    train_il_model,
    update_il_model,
)
from rholoss.optim import make_optimizer, optimizer_step

from oracles import il_content_hash_oracle, save_il_table_oracle


def small_task(seed=0, per_class=40):
    base = data.gen_synthetic(3, per_class, 4, 1.0, seed=seed, radius=2.5)
    return data.split(base, data.SplitSpec(0.5, seed=seed + 1))


def test_train_il_model_single_epoch_returned_regardless():
    pool, holdout = small_task()
    model, log = train_il_model(holdout, validation=pool, hidden=(8,), epochs=1, seed=0)
    assert len(log.val_losses) == 1
    assert log.selected_epoch == 0


def test_train_il_model_monotone_run_selects_last():
    pool, holdout = small_task(per_class=60)
    model, log = train_il_model(holdout, validation=pool, hidden=(16,), epochs=4, seed=1)
    if all(b < a for a, b in zip(log.val_losses, log.val_losses[1:])):
        assert log.selected_epoch == len(log.val_losses) - 1


def test_train_il_model_overfit_selects_argmin():
    # tiny noisy holdout, many epochs: validation loss turns back up
    base = data.gen_synthetic(3, 30, 4, 1.2, seed=5, radius=2.0)
    pool, holdout = data.split(base, data.SplitSpec(0.2, seed=6))
    holdout = data.inject_uniform_noise(holdout, 0.3, seed=7)
    model, log = train_il_model(
        holdout, validation=pool, hidden=(64, 64), epochs=60, learning_rate=3e-3, weight_decay=0.0, seed=2
    )
    best = int(np.argmin(log.val_losses))
    assert log.selected_epoch == best
    assert best < len(log.val_losses) - 1  # an intermediate epoch won
    # the returned model really is the checkpoint, not the final state
    val_loss = float(nn.cross_entropy(nn.forward(model, pool.features), pool.labels).mean())
    assert val_loss == pytest.approx(log.val_losses[best], abs=1e-9)


def test_train_il_model_rejects_zero_epochs():
    pool, holdout = small_task()
    with pytest.raises(ValueError):
        train_il_model(holdout, validation=pool, epochs=0)


def test_checkpoint_log_selected_epoch_is_argmin():
    log = CheckpointLog(val_losses=[1.0, 0.4, 0.6], val_accuracies=[0.3, 0.5, 0.9])
    assert log.selected_epoch == 1


def test_il_table_uniform_model_gives_log_c():
    pool, _ = small_task()
    model = nn.init_mlp((4, 8, 3), seed=0)
    for w in model.weights:
        w[:] = 0.0
    for b in model.biases:
        b[:] = 0.0
    table = compute_il_table(model, pool)
    assert np.allclose(table.values, np.log(3), atol=1e-12)


def test_il_table_memorized_point_near_zero():
    # well-separated clusters, trained to saturation on the holdout itself
    holdout = data.gen_synthetic(3, 20, 4, 0.3, seed=3, radius=2.5)
    model, _ = train_il_model(holdout, validation=holdout, hidden=(32,), epochs=200,
                              learning_rate=5e-3, weight_decay=0.0, seed=3)
    table = compute_il_table(model, holdout)
    assert np.median(table.values) < 0.05


def test_il_table_matches_per_example_oracle():
    pool, holdout = small_task()
    model, _ = train_il_model(holdout, validation=pool, hidden=(16,), epochs=3, seed=4)
    table = compute_il_table(model, pool, batch_size=17)
    for i in range(pool.n):
        expected = float(nn.cross_entropy(nn.forward(model, pool.features[i : i + 1]), [pool.labels[i]])[0])
        assert table.lookup(pool.ids[i : i + 1])[0] == pytest.approx(expected, abs=1e-12)


def test_il_table_lookup_missing_id():
    table = compute_il_table(nn.init_mlp((4, 3), seed=0), small_task()[0])
    with pytest.raises(KeyError):
        table.lookup([10**9])


@settings(max_examples=100, deadline=None, derandomize=True)
@given(
    values=st.dictionaries(st.integers(-50, 50), st.floats(allow_nan=False), max_size=12),
    queries=st.lists(st.integers(-60, 60), max_size=12),
)
def test_il_table_lookup_and_covers_agree_with_a_dict(values, queries):
    table = IrreducibleLossTable(list(values), list(values.values()))
    missing = [q for q in queries if q not in values]
    assert table.covers(np.array(queries, dtype=np.int64)) == (not missing)
    if missing:
        with pytest.raises(KeyError, match=f"example id {missing[0]} missing"):
            table.lookup(np.array(queries, dtype=np.int64))
    else:
        found = table.lookup(np.array(queries, dtype=np.int64))
        assert found.dtype == np.float64 and found.tolist() == [values[q] for q in queries]


def test_il_table_refuses_a_repeated_id():
    with pytest.raises(ValueError, match="example id 3 appears twice"):
        IrreducibleLossTable([3, 1, 3], [0.5, 0.25, 0.5])


def test_two_halves_covers_union_and_scheme():
    pool, _ = small_task(per_class=30)
    half_a, half_b = data.split(pool, data.SplitSpec(seed=9, mode="two-halves"))
    table = compute_il_table_two_halves(half_a, half_b, hidden=(16,), epochs=3, seed=5)
    assert table.scheme == "two-halves"
    assert set(table.ids) == set(half_a.ids) | set(half_b.ids)


def test_two_halves_no_self_scoring():
    pool, _ = small_task(per_class=30)
    half_a, half_b = data.split(pool, data.SplitSpec(seed=9, mode="two-halves"))
    table = compute_il_table_two_halves(half_a, half_b, hidden=(16,), epochs=3, seed=5)
    producers_a = {table.producers[int(i)] for i in half_a.ids}
    producers_b = {table.producers[int(i)] for i in half_b.ids}
    assert len(producers_a) == 1 and len(producers_b) == 1
    assert producers_a != producers_b  # each half scored by exactly one model, and not the same one


def test_two_halves_rejects_overlap():
    pool, _ = small_task()
    with pytest.raises(ValueError):
        compute_il_table_two_halves(pool, pool, hidden=(8,), epochs=1)


def test_two_halves_symmetric_content_similar_means():
    # identical generating process in both halves: sub-table means should
    # agree within resampling error
    rng = np.random.default_rng(12)
    base = data.gen_synthetic(3, 200, 4, 1.0, seed=12, radius=2.5)
    half_a, half_b = data.split(base, data.SplitSpec(seed=13, mode="two-halves"))
    table = compute_il_table_two_halves(half_a, half_b, hidden=(32,), epochs=10, seed=6)
    vals_a = table.lookup(half_a.ids)
    vals_b = table.lookup(half_b.ids)
    pooled = np.concatenate([vals_a, vals_b])
    diffs = []
    for _ in range(2000):
        perm = rng.permutation(pooled.size)
        diffs.append(pooled[perm[: vals_a.size]].mean() - pooled[perm[vals_a.size :]].mean())
    assert abs(vals_a.mean() - vals_b.mean()) < 2 * np.std(diffs) + 0.05


def test_update_il_model_zero_scale_is_identity():
    pool, holdout = small_task()
    model, _ = train_il_model(holdout, validation=pool, hidden=(16,), epochs=2, seed=7)
    opt = make_optimizer("adamw", 1e-3 * 0.0, weight_decay=0.01)  # the IL optimizer of il_lr_scale 0
    before = [w.copy() for w in model.weights]
    update_il_model(model, opt, pool.features[:8], pool.labels[:8])
    for w0, w1 in zip(before, model.weights):
        assert np.array_equal(w0, w1)


def test_update_il_model_single_step_matches_manual():
    pool, holdout = small_task()
    model, _ = train_il_model(holdout, validation=pool, hidden=(16,), epochs=2, seed=8)
    twin = copy.deepcopy(model)
    opt_a = make_optimizer("sgd", 1e-2 * 0.5)  # the IL optimizer of il_lr_scale 0.5
    opt_b = make_optimizer("sgd", 1e-2 * 0.5)
    x, y = pool.features[:8], pool.labels[:8]
    update_il_model(model, opt_a, x, y)
    optimizer_step(opt_b, twin, nn.backward(twin, x, y, mode="train", bn_stat_source="batch", update_running=True))
    for wa, wb in zip(model.weights, twin.weights):
        assert np.allclose(wa, wb, atol=1e-15)


def test_update_on_corrupted_points_degrades_holdout_accuracy():
    # keep feeding the model wrong labels: its accuracy on clean data drops
    pool, holdout = small_task(per_class=80)
    model, _ = train_il_model(holdout, validation=pool, hidden=(32,), epochs=15, seed=9)
    noisy = data.inject_uniform_noise(pool, 1.0, seed=10)
    opt = make_optimizer("adamw", 1e-3 * 1.0, weight_decay=0.01)  # the IL optimizer of il_lr_scale 1
    def acc():
        return float((nn.predict_labels(model, holdout.features) == holdout.labels).mean())
    before = acc()
    rng = np.random.default_rng(11)
    for _ in range(60):
        idx = rng.integers(0, noisy.n, 16)
        update_il_model(model, opt, noisy.features[idx], noisy.labels[idx])
    assert acc() < before


def test_il_table_csv_roundtrip_and_provenance(tmp_path):
    pool, holdout = small_task()
    model, _ = train_il_model(holdout, validation=pool, hidden=(16,), epochs=2, seed=10)
    table = compute_il_table(model, pool)
    path = tmp_path / "table.csv"
    save_il_table(table, path)
    back = load_il_table(path)
    assert np.array_equal(back.ids, table.ids) and np.array_equal(back.values, table.values)
    assert back.scheme == table.scheme
    # corruption is detected via the provenance hash
    text = path.read_text().splitlines()
    text[2] = text[2].rsplit(",", 1)[0] + ",0.123"
    path.write_text("\n".join(text) + "\n")
    with pytest.raises(ValueError):
        load_il_table(path)


@pytest.mark.parametrize("dropped", ["provenance", "scheme"])
def test_il_table_header_must_carry_provenance_and_scheme(tmp_path, dropped):
    path = tmp_path / "table.csv"
    save_il_table(IrreducibleLossTable([1, 2], [0.5, 0.25]), path)
    header, rest = path.read_bytes().split(b"\n", 1)
    kept = [field for field in header.split() if not field.startswith(f"{dropped}=".encode())]
    path.write_bytes(b" ".join(kept) + b"\n" + rest)
    with pytest.raises(ValueError, match=f"header lacks {dropped}"):
        load_il_table(path)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    values=st.dictionaries(
        st.integers(-(2**62), 2**62), st.floats(allow_nan=False, allow_infinity=False), max_size=30
    ),
    scheme=st.sampled_from(["holdout", "two-halves"]),
)
def test_il_table_roundtrips_any_ids_and_values(tmp_path_factory, values, scheme):
    folder = tmp_path_factory.mktemp("table")
    path, oracle_path = folder / "table.csv", folder / "oracle.csv"
    table = IrreducibleLossTable(list(values), list(values.values()), scheme=scheme)
    save_il_table(table, path, il_config_hash="00ff")
    save_il_table_oracle(values, scheme, oracle_path, il_config_hash="00ff")
    assert path.read_bytes() == oracle_path.read_bytes()
    assert table.content_hash() == il_content_hash_oracle(values, scheme)
    back = load_il_table(path)
    assert dict(zip(back.ids.tolist(), back.values.tolist())) == values
    assert back.scheme == scheme
    assert back.content_hash() == table.content_hash()
