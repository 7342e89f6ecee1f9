#!/usr/bin/env python3
"""How much does each computational shortcut distort the selection ranking?

The gold-standard scorer is an ensemble retrained to convergence after every
acquisition, with an irreducible-loss ensemble likewise retrained on holdout
plus acquired data. Each rung strips one ingredient (ensemble, convergence,
scorer updates, scorer width) and is compared to the gold standard by the
Spearman rank correlation of candidate scores, step by step over the first
epoch. Reference correlations reported for the analogous large-scale ladder appear alongside for
orientation; exact values differ at this scale.
"""
import numpy as np

from rholoss import LadderConfig, gen_synthetic, inject_uniform_noise, run_ladder, split
from rholoss.data import duplicate

base = gen_synthetic(classes=10, per_class=120, dim=16, spread=1.0, seed=100, radius=3.0)
pool, holdout = split(base, 0.4, seed=101)
pool = inject_uniform_noise(pool, 0.1, seed=102)
pool = duplicate(pool, 5)  # web-scrape-style redundancy
print(f"pool {pool.n} (10% noise, 5x duplicated), holdout {holdout.n}\n")

cfg = LadderConfig(
    n_b=30, n_B=300, ensemble_size=5, convergence_epochs=5, il_pretrain_epochs=30,
    hidden=(64, 64), small_hidden=(32, 32), batch_size=32, seed=11,
)
results = run_ladder(pool, holdout, cfg)

labels = {
    "approx0": "gold standard (ensemble, converged, updated scorer)",
    "approx1a": "single model instead of ensemble",
    "approx1b": "single gradient step per acquisition",
    "approx2": "frozen irreducible-loss model",
    "approx3": "half-width frozen scorer",
}
print(f"{'rung':>8} {'mean rho':>9} {'pos steps':>10} {'reference':>10}   description")
for name, res in results.items():
    ref = f"{res.reference_rho:.2f}" if res.reference_rho is not None else "-"
    print(f"{name:>8} {res.mean_rho:9.3f} {res.frac_positive:>9.0%} {ref:>10}   {labels[name]}")

print("\nPer-step correlation of the cheapest rung (approx3) vs the gold standard:")
print("  " + " ".join(f"{r:.2f}" for r in results["approx3"].step_rho))
print("\nEven the fully stripped-down scorer ranks candidates broadly like the")
print("gold standard, which is why the cheap variant is the production default.")
