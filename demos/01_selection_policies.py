#!/usr/bin/env python3
"""Tour of the selection policies on a single candidate batch.

Builds a small noisy classification task, trains an irreducible-loss model
on the holdout split, then scores one pre-sampled candidate batch under each
online policy and shows what would be picked. Noisy candidates are marked so
you can see which rules fall for them.
"""
import numpy as np

from rholoss import (
    RunConfig,
    SelectionPolicy,
    compute_il_table,
    gen_synthetic,
    init_mlp,
    inject_uniform_noise,
    run_training,
    split,
    train_il_model,
)
from rholoss.nn import cross_entropy, forward
from rholoss.selection import score_and_select

rng = np.random.default_rng(0)

print("== build a 10-class noisy task ==")
base = gen_synthetic(classes=10, per_class=150, dim=16, spread=1.1, seed=1, radius=3.0)
pool, test = split(base, 0.2, seed=2)
pool, holdout = split(pool, 0.3, seed=3)
pool = inject_uniform_noise(pool, 0.1, seed=4)
print(f"pool {pool.n} (corrupted {pool.corrupted.mean():.0%}), holdout {holdout.n}, test {test.n}")

print("\n== train the irreducible-loss model on the holdout ==")
il_model, log = train_il_model(holdout, validation=pool, hidden=(64, 64), epochs=20, seed=5)
print(f"checkpoint: epoch {log.selected_epoch + 1} of {len(log.val_losses)} "
      f"(pool loss {log.val_losses[log.selected_epoch]:.3f})")
table = compute_il_table(il_model, pool)

print("\n== partially train a target model so losses are informative ==")
target = init_mlp((pool.dim, 64, 64, pool.num_classes), seed=6, dropout_rate=0.2)
cfg = RunConfig(policy=SelectionPolicy(kind="uniform"), n_b=16, n_B=160, epochs=4, seed=7)
run_training(pool, test, None, cfg, target)

print("\n== score a candidate batch of 12 (deliberately including 4 corrupted) ==")
corrupted_pos = np.flatnonzero(pool.corrupted)
clean_pos = np.flatnonzero(~pool.corrupted)
candidates = np.concatenate([rng.choice(clean_pos, 8, replace=False), rng.choice(corrupted_pos, 4, replace=False)])
rng.shuffle(candidates)
x, y, ids = pool.features[candidates], pool.labels[candidates], pool.ids[candidates]
losses = cross_entropy(forward(target, x), y)

policies = ["rho-loss", "train-loss", "grad-norm", "grad-norm-is", "neg-il", "uniform", "bald", "pred-entropy"]
picks = {}
for kind in policies:
    policy = SelectionPolicy(kind=kind, mc_samples=16)
    scored = score_and_select(policy, target, x, y, ids, losses, lambda i, xx, yy: table.lookup(i),
                              n_b=3, tie_seed=11, rng=np.random.default_rng(8))
    picks[kind] = set(scored.selected_indices.tolist())

header = f"{'cand':>4} {'noisy':>5} {'loss':>6} {'il':>6} " + " ".join(f"{k:>12}" for k in policies)
print(header)
for j in range(12):
    row = f"{j:>4} {'*' if pool.corrupted[candidates[j]] else ' ':>5} {losses[j]:6.2f} {table.lookup([ids[j]])[0]:6.2f} "
    row += " ".join(f"{'[pick]' if j in picks[k] else '':>12}" for k in policies)
    print(row)

print("\nNote how train-loss and grad-norm chase the high-loss noisy rows,")
print("while rho-loss picks high-loss rows whose irreducible loss is low.")
