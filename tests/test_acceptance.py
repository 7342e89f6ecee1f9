"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s`. The experiment bundles are
built once per session and shared between the criteria that reuse the same
runs (the noisy task feeds criteria 7, 8, 10, 11, 12).
"""
import copy
import math
import time

import numpy as np
import pytest

from rholoss import data, nn
from rholoss.ilmodel import compute_il_table, train_il_model, train_il_two_halves
from rholoss.ladder import LadderConfig, run_ladder
from rholoss.optim import make_optimizer, optimizer_step
from rholoss.records import (
    epochs_to_target,
    load_run_record,
    redundancy_epoch_filter,
    save_run_record,
    weakest_final_accuracy,
)
from rholoss.selection import SelectionPolicy, sample_grad_norm_is, score_grad_norm, select_top_k
from rholoss.stats import spearman
from rholoss.trainer import RunConfig, run_original_selection, run_training

from oracles import brute_spearman, brute_top_k, fd_gradients, max_rel_error, paired_one_sided_t

SEEDS = (1, 2, 3)


def ok(num, name, detail=""):
    print(f"ACCEPTANCE {num:02d} {name}: PASS {detail}")


# ===================================================================== 1


def test_criterion_01_gradient_correctness():
    start = time.time()
    rng = np.random.default_rng(20260101)
    worst = 0.0
    for trial in range(100):
        depth = int(rng.integers(2, 4))
        sizes = [int(rng.integers(2, 7))] + [int(rng.integers(3, 9)) for _ in range(depth - 1)] + [int(rng.integers(2, 5))]
        batchnorm = trial % 3 == 1
        dropout = 0.3 if trial % 3 == 2 else 0.0
        model = nn.init_mlp(sizes, seed=int(rng.integers(0, 2**31)), dropout_rate=dropout, batchnorm=batchnorm)
        b = int(rng.integers(2, 7))
        x = rng.standard_normal((b, sizes[0]))
        y = rng.integers(0, sizes[-1], b)
        mode = "train" if dropout else "eval"
        bn_src = "batch" if batchnorm else "running"
        seed = int(rng.integers(0, 2**31))
        analytic = nn.backward(model, x, y, mode=mode, bn_stat_source=bn_src, rng=np.random.default_rng(seed))
        numeric = fd_gradients(model, x, y, mode=mode, bn_stat_source=bn_src, seed=seed)
        worst = max(worst, max_rel_error(analytic, numeric))
    elapsed = time.time() - start
    assert worst < 1e-4
    assert elapsed < 60
    ok(1, "gradient-correctness", f"(max rel err {worst:.2e} over 100 pairs, {elapsed:.1f}s)")


# ===================================================================== 2


def test_criterion_02_optimizer_oracles():
    model = nn.init_mlp((1, 1), seed=0)
    model.weights[0][:] = 1.0
    model.biases[0][:] = 0.0
    optimizer_step(make_optimizer("sgd", 0.1), model, np.array([2.0, 0.0]))  # w0, then b0
    assert model.weights[0][0, 0] == 0.8  # exact in floating point

    cases = [
        (1.0, 2.0, 1e-3, 0.01),
        (-0.5, 0.3, 1e-2, 0.1),
        (2.0, -4.0, 1e-3, 0.0),
        (0.25, 1e-6, 1e-4, 0.01),
        (-3.0, -0.01, 5e-3, 0.05),
    ]
    for theta, g, lr, wd in cases:
        m = nn.init_mlp((1, 1), seed=0)
        m.weights[0][:] = theta
        m.biases[0][:] = 0.0
        opt = make_optimizer("adamw", lr, weight_decay=wd)
        optimizer_step(opt, m, np.array([g, 0.0]))  # w0, then b0
        # closed form for step 1: m_hat = g, v_hat = g^2
        expected = theta - lr * wd * theta - lr * g / (math.sqrt(g * g) + opt.eps)
        assert abs(m.weights[0][0, 0] - expected) < 1e-12
    ok(2, "optimizer-oracles", f"({len(cases)} AdamW hand cases to 1e-12)")


# ===================================================================== 3


def test_criterion_03_loss_oracle():
    for c in (2, 10, 100):
        losses = nn.cross_entropy(np.zeros((4, c)), [0, 1 % c, c - 1, 0])
        assert np.all(np.abs(losses - math.log(c)) < 1e-12)
    ok(3, "loss-oracle", "(uniform logits -> ln C for C in {2,10,100})")


# ===================================================================== 4


def test_criterion_04_top_k_oracle():
    rng = np.random.default_rng(20260104)
    for trial in range(1000):
        n = int(rng.integers(1, 50))
        k = int(rng.integers(0, n + 1))
        scores = rng.integers(0, 6, n).astype(float) if trial % 2 else rng.standard_normal(n)
        tie_seed = int(rng.integers(0, 2**31 - 1))
        assert set(select_top_k(scores, k, tie_seed).tolist()) == brute_top_k(scores, k, tie_seed)
    ok(4, "top-k-oracle", "(1000 random vectors incl. ties)")


# ===================================================================== 5


def test_criterion_05_spearman_oracle():
    x = np.array([0.3, -1.0, 2.5, 0.0, 1.1])
    assert spearman(x, x) == pytest.approx(1.0, abs=1e-15)
    assert spearman(x, -x) == pytest.approx(-1.0, abs=1e-15)
    rng = np.random.default_rng(20260105)
    for _ in range(1000):
        n = int(rng.integers(2, 30))
        a = rng.integers(0, 7, n).astype(float)
        b = rng.integers(0, 7, n).astype(float)
        expected = brute_spearman(a, b)
        got = spearman(a, b)
        if expected is None:
            assert got is None
        else:
            assert abs(got - expected) < 1e-12
    ok(5, "spearman-oracle", "(1000 random vectors with ties to 1e-12)")


# ===================================================================== 6


def test_criterion_06_is_debias():
    model = nn.init_mlp((3, 5, 2), seed=5)
    rng = np.random.default_rng(6)
    x = rng.standard_normal((32, 3))
    y = rng.integers(0, 2, 32)
    scores = score_grad_norm(model, x, y)
    per = [nn.backward(model, x[i : i + 1], [y[i]], mode="eval", bn_stat_source="running") for i in range(32)]
    flat = np.stack(per)
    exact = flat.mean(axis=0)
    accum = np.zeros_like(exact)
    draw_rng = np.random.default_rng(7)
    draws = 10_000
    for _ in range(draws):
        idx, w = sample_grad_norm_is(scores, 8, draw_rng)
        accum += (flat[idx] * w[:, None]).mean(axis=0)
    rel = float(np.linalg.norm(accum / draws - exact) / np.linalg.norm(exact))
    assert rel < 0.05
    ok(6, "is-debias", f"(rel err {rel:.3f} over {draws} draws)")


# ===================================================================== 7-12: noisy-task bundle


def _build_noisy_task():
    base = data.gen_synthetic(10, 480, 32, 1.2, seed=500, radius=3.0)
    pool, test = data.split(base, 1 / 6, 501)
    pool, holdout = data.split(pool, 1 / 3, 502)
    pool = data.inject_uniform_noise(pool, 0.1, seed=503)
    return pool, holdout, test


def _run_policy(pool, test, table, kind, seed, epochs=20):
    model = nn.init_mlp((pool.dim, 128, 128, pool.num_classes), seed=1000 + seed)
    cfg = RunConfig(policy=SelectionPolicy(kind=kind), n_b=32, n_B=320, epochs=epochs, seed=seed)
    return run_training(pool, test, table, cfg, model)


@pytest.fixture(scope="module")
def noisy_bundle():
    start = time.time()
    pool, holdout, test = _build_noisy_task()
    il_kw = dict(validation=pool, epochs=30, seed=1)
    il_full, _ = train_il_model(holdout, hidden=(128, 128), **il_kw)
    table_full = compute_il_table(il_full, pool)
    il_small, _ = train_il_model(holdout, hidden=(64, 64), **il_kw)
    table_small = compute_il_table(il_small, pool)
    half_a, half_b = data.halves(pool, 99)
    table_two, *_ = train_il_two_halves(half_a, half_b, hidden=(64, 64), epochs=30, seed=2)
    records = {
        kind: {s: _run_policy(pool, test, table_full, kind, s) for s in SEEDS}
        for kind in ("rho-loss", "train-loss", "uniform")
    }
    variants = {
        "small-il": {s: _run_policy(pool, test, table_small, "rho-loss", s) for s in SEEDS},
        "two-halves": {s: _run_policy(pool, test, table_two, "rho-loss", s) for s in SEEDS},
    }
    return dict(records=records, variants=variants, elapsed=time.time() - start)


def _epoch_mean_corrupted(record):
    return float(np.mean([c.frac_corrupted for c in record.compositions]))


def test_criterion_07_noise_property(noisy_bundle):
    records = noisy_bundle["records"]
    fr = {kind: [_epoch_mean_corrupted(records[kind][s]) for s in SEEDS] for kind in records}
    t1, p1 = paired_one_sided_t(fr["rho-loss"], fr["uniform"])
    t2, p2 = paired_one_sided_t(fr["uniform"], fr["train-loss"])
    assert np.mean(fr["rho-loss"]) < np.mean(fr["uniform"]) < np.mean(fr["train-loss"])
    assert p1 < 0.05 and p2 < 0.05
    assert noisy_bundle["elapsed"] < 15 * 60
    ok(
        7,
        "noise-property",
        f"(corrupted sel.: rho {np.mean(fr['rho-loss']):.3f} < uniform {np.mean(fr['uniform']):.3f} "
        f"< train-loss {np.mean(fr['train-loss']):.3f}; p={p1:.2g}, {p2:.2g}; bundle {noisy_bundle['elapsed']:.0f}s)",
    )


def test_criterion_08_redundancy_property(noisy_bundle):
    records = noisy_bundle["records"]
    rho_vals, uni_vals = [], []
    for s in SEEDS:
        per_seed = {k: records[k][s] for k in records}
        filtered = redundancy_epoch_filter(per_seed, weakest_final_accuracy(per_seed))
        assert filtered["rho-loss"] is not None and filtered["uniform"] is not None
        rho_vals.append(filtered["rho-loss"])
        uni_vals.append(filtered["uniform"])
    assert np.mean(rho_vals) < np.mean(uni_vals)
    assert all(r < u for r, u in zip(rho_vals, uni_vals))
    ok(8, "redundancy-property", f"(already-correct: rho {np.mean(rho_vals):.3f} < uniform {np.mean(uni_vals):.3f})")


def _speedup_stats(rho_records, uniform_records):
    ratios, rho_finals, uni_finals = [], [], []
    for s in SEEDS:
        target = 0.9 * max(uniform_records[s].epoch_accuracies())
        e_uni = epochs_to_target(uniform_records[s], target)
        e_rho = epochs_to_target(rho_records[s], target)
        assert e_uni is not None and e_rho is not None
        ratios.append(e_rho / e_uni)
        rho_finals.append(rho_records[s].final_accuracy())
        uni_finals.append(uniform_records[s].final_accuracy())
    return float(np.median(ratios)), float(np.mean(rho_finals)), float(np.mean(uni_finals))


def test_criterion_10_speedup_property(noisy_bundle):
    records = noisy_bundle["records"]
    ratio, rho_final, uni_final = _speedup_stats(records["rho-loss"], records["uniform"])
    assert ratio <= 0.8
    assert rho_final >= uni_final - 0.005
    ok(
        10,
        "speedup-property",
        f"(median epoch ratio {ratio:.2f} <= 0.8; finals rho {rho_final:.3f} vs uniform {uni_final:.3f})",
    )


def test_criterion_11_small_il_robustness(noisy_bundle):
    ratio, rho_final, uni_final = _speedup_stats(
        noisy_bundle["variants"]["small-il"], noisy_bundle["records"]["uniform"]
    )
    assert ratio <= 0.8
    assert rho_final >= uni_final - 0.005
    ok(11, "small-il-robustness", f"(half-width IL: median ratio {ratio:.2f}, final {rho_final:.3f})")


def test_criterion_12_no_holdout_scheme(noisy_bundle):
    ratio, rho_final, uni_final = _speedup_stats(
        noisy_bundle["variants"]["two-halves"], noisy_bundle["records"]["uniform"]
    )
    assert ratio <= 0.8
    assert rho_final >= uni_final - 0.005
    ok(12, "no-holdout-scheme", f"(two-halves IL: median ratio {ratio:.2f}, final {rho_final:.3f})")


# ===================================================================== 9


@pytest.fixture(scope="module")
def relevance_bundle():
    start = time.time()
    base = data.gen_synthetic(10, 600, 128, 2.2, seed=600, radius=3.0)
    skew = data.make_relevance_skew(base, high_frac=0.2, keep_frac=0.06, seed=601)
    pool, test = data.split(skew, 1 / 6, 602)
    pool, holdout = data.split(pool, 1 / 3, 603)
    il_model, _ = train_il_model(holdout, validation=pool, hidden=(128, 128), epochs=30, seed=1)
    table = compute_il_table(il_model, pool)
    fractions = {}
    for kind in ("rho-loss", "train-loss", "uniform"):
        vals = []
        for seed in SEEDS:
            model = nn.init_mlp((pool.dim, 128, 128, pool.num_classes), seed=1000 + seed)
            cfg = RunConfig(policy=SelectionPolicy(kind=kind), n_b=16, n_B=160, epochs=20, seed=seed)
            rec = run_training(pool, test, table, cfg, model)
            vals.append(float(np.mean([c.frac_low_relevance for c in rec.compositions])))
        fractions[kind] = vals
    return dict(fractions=fractions, elapsed=time.time() - start)


def test_criterion_09_relevance_property(relevance_bundle):
    fr = {k: np.mean(v) for k, v in relevance_bundle["fractions"].items()}
    assert fr["rho-loss"] <= fr["uniform"]
    assert fr["train-loss"] >= fr["uniform"]
    assert relevance_bundle["elapsed"] < 15 * 60
    ok(
        9,
        "relevance-property",
        f"(low-relevance sel.: rho {fr['rho-loss']:.3f} <= uniform {fr['uniform']:.3f} "
        f"<= train-loss {fr['train-loss']:.3f}; {relevance_bundle['elapsed']:.0f}s)",
    )


# ===================================================================== 13


def test_criterion_13_approximation_ladder():
    start = time.time()
    base = data.gen_synthetic(10, 120, 16, 1.0, seed=100, radius=3.0)
    pool, holdout = data.split(base, 0.4, 101)
    pool = data.inject_uniform_noise(pool, 0.1, seed=102)
    pool = data.duplicate(pool, 5)
    cfg = LadderConfig(
        n_b=30, n_B=300, ensemble_size=5, convergence_epochs=5, il_pretrain_epochs=30,
        hidden=(64, 64), small_hidden=(32, 32), batch_size=32, seed=11,
    )
    results = run_ladder(pool, holdout, cfg)
    elapsed = time.time() - start
    lines = []
    for rung in ("approx1a", "approx1b", "approx2", "approx3"):
        res = results[rung]
        assert res.mean_rho > 0.3, f"{rung} mean rho {res.mean_rho:.3f}"
        assert res.frac_positive >= 0.9, f"{rung} positive at {res.frac_positive:.0%} of steps"
        lines.append(f"{rung} {res.mean_rho:.2f} (ref {res.reference_rho})")
    assert elapsed < 60 * 60
    ok(13, "approximation-ladder", f"({'; '.join(lines)}; {elapsed:.0f}s)")


# ===================================================================== 14


def test_criterion_14_live_il_update_ablation():
    base = data.gen_synthetic(10, 120, 32, 1.2, seed=700, radius=3.0)
    pool, test = data.split(base, 1 / 6, 701)
    pool, holdout = data.split(pool, 1 / 3, 702)
    pool = data.inject_uniform_noise(pool, 0.2, seed=703)
    il_model, _ = train_il_model(holdout, validation=pool, hidden=(64, 64), epochs=30, seed=2)
    table = compute_il_table(il_model, pool)

    # exactness: zero update scale reproduces frozen-table selection step for step
    kw_exact = dict(n_b=6, n_B=60, epochs=3, seed=1)
    m1 = nn.init_mlp((32, 32, 10), seed=3001)
    frozen = run_training(pool, test, table, RunConfig(policy=SelectionPolicy(kind="rho-loss"), **kw_exact), m1)
    live = run_original_selection(
        pool, test, copy.deepcopy(il_model),
        RunConfig(policy=SelectionPolicy(kind="rho-loss"), il_update_mode="original", il_lr_scale=0.0, **kw_exact),
        nn.init_mlp((32, 32, 10), seed=3001),  # same init as the frozen run
    )
    for a, b in zip(frozen.steps, live.steps):
        assert a.selected_ids == b.selected_ids

    # direction: with a real update scale, the live mode re-acquires more
    # corrupted points late in training
    diffs = []
    for seed in SEEDS:
        m_frozen = nn.init_mlp((32, 32, 10), seed=2000 + seed)
        m_live = copy.deepcopy(m_frozen)
        kw = dict(n_b=6, n_B=60, epochs=60, seed=seed, optimizer_kind="sgd", learning_rate=0.1, weight_decay=0.0)
        rec_f = run_training(pool, test, table, RunConfig(policy=SelectionPolicy(kind="rho-loss"), **kw), m_frozen)
        rec_l = run_original_selection(
            pool, test, copy.deepcopy(il_model),
            RunConfig(policy=SelectionPolicy(kind="rho-loss"), il_update_mode="original", il_lr_scale=0.01, **kw),
            m_live,
        )
        q = 45  # final quarter of 60 epochs
        f = np.mean([c.frac_corrupted for c in rec_f.compositions[q:]])
        l = np.mean([c.frac_corrupted for c in rec_l.compositions[q:]])
        diffs.append(l - f)
    assert np.mean(diffs) >= 0.0
    ok(14, "live-il-update-ablation", f"(exact at scale 0; late-run corrupted diff {np.mean(diffs):+.4f})")


# ===================================================================== 15


def test_criterion_15_determinism(tmp_path):
    pool, holdout, test = _build_noisy_task()
    pool = data.take(pool, np.arange(400))
    il_model, _ = train_il_model(holdout, validation=pool, hidden=(32,), epochs=3, seed=1)
    table = compute_il_table(il_model, pool)

    def produce(path):
        model = nn.init_mlp((pool.dim, 32, pool.num_classes), seed=4001)
        cfg = RunConfig(policy=SelectionPolicy(kind="rho-loss"), n_b=8, n_B=80, epochs=3, seed=5)
        record = run_training(pool, test, table, cfg, model)
        record.built_from = "fixed"
        save_run_record(record, path)

    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    produce(a)
    time.sleep(1.1)  # force a different header timestamp
    produce(b)

    def strip_timestamp(text):
        lines = text.splitlines()
        head = [tok for tok in lines[0].split() if not tok.startswith("generated_at=")]
        return "\n".join([" ".join(head)] + lines[1:])

    ta, tb = a.read_text(), b.read_text()
    assert ta != tb  # timestamps differ
    assert strip_timestamp(ta) == strip_timestamp(tb)
    assert load_run_record(a).steps == load_run_record(b).steps
    ok(15, "determinism", "(byte-identical records modulo header timestamp)")
