#!/usr/bin/env python3
"""What fraction of selected points have corrupted labels?

Reproduces the noisy-selection property study at desk scale: 10% uniform
label noise, three policies, and the per-epoch share of selected points whose
label was flipped. Loss-based selection gorges on noise; reducible-loss
selection avoids it even below the uniform baseline.
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

base = gen_synthetic(classes=10, per_class=300, dim=32, spread=1.2, seed=500, radius=3.0)
pool, test = split(base, 1 / 6, seed=501)
pool, holdout = split(pool, 1 / 3, seed=502)
pool = inject_uniform_noise(pool, 0.1, seed=503)
print(f"pool {pool.n} with {pool.corrupted.mean():.1%} corrupted labels\n")

il_model, _ = train_il_model(holdout, validation=pool, hidden=(128, 128), epochs=30, seed=1)
table = compute_il_table(il_model, pool)

records = {}
for kind in ("rho-loss", "uniform", "train-loss"):
    model = init_mlp((pool.dim, 128, 128, pool.num_classes), seed=1001)
    cfg = RunConfig(policy=SelectionPolicy(kind=kind), n_b=16, n_B=160, epochs=15, seed=1)
    records[kind] = run_training(pool, test, table, cfg, model)

print(f"{'epoch':>5} " + " ".join(f"{k:>12}" for k in records))
for e in range(15):
    print(f"{e + 1:>5} " + " ".join(f"{records[k].compositions[e].frac_corrupted:>12.3f}" for k in records))

print(f"\n{'':>5} " + " ".join(f"{k:>12}" for k in records))
print(f"{'mean':>5} " + " ".join(
    f"{np.mean([c.frac_corrupted for c in records[k].compositions]):>12.3f}" for k in records))
print(f"{'final':>5} " + " ".join(f"{records[k].final_accuracy():>12.3f}" for k in records))
print("\nThe 10% line is what uniform sampling gives; train-loss climbs far")
print("above it as the clean points get learnt, and its accuracy pays for it.")
