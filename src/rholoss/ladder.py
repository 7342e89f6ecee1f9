"""Approximation-fidelity ladder for reducible-loss scoring.

The gold-standard pipeline ("approx0") scores candidates with a deep
ensemble trained to convergence on everything acquired so far, and an
ensemble irreducible-loss model likewise retrained on the holdout plus the
acquired data after every step. Each cheaper rung strips one ingredient:

    approx1a  single model instead of an ensemble, still converged per step
    approx1b  a single gradient step per acquisition instead of convergence
    approx2   the irreducible-loss model is frozen after holdout training
    approx3   the frozen irreducible-loss model is half-width

All pipelines consume the same seeded candidate schedule over the first
epoch, but each evolves under its own selections; no re-synchronization is
performed, so later-step rank correlations partly reflect genuine state
divergence. Per step, the rung's candidate scores are compared to approx0's
by Spearman rank correlation.

Reference correlations reported for the analogous large-scale ladder are
kept alongside the results for orientation; they are not a pass/fail bound
at this scale.
"""
from __future__ import annotations

import copy
from dataclasses import dataclass

import numpy as np

from .config import LadderConfig
from .data import LabeledDataset
from .nn import EnsembleModel, backward, cross_entropy, ensemble_cross_entropy, forward, init_mlp, make_ensemble
from .optim import make_optimizer, optimizer_step, train_epoch
from .selection import chunk_select_count, select_top_k
from .stats import spearman

# rung -> (target members, IL members, target regime, IL regime). A regime is
# "converged" (retrain on everything seen so far), "single-step" (one gradient
# step on the acquired batch) or "frozen".
RUNGS = {
    "approx0": ("ensemble", "ensemble", "converged", "converged"),
    "approx1a": ("single", "single", "converged", "converged"),
    "approx1b": ("single", "single", "single-step", "single-step"),
    "approx2": ("single", "single", "single-step", "frozen"),
    "approx3": ("single", "small", "single-step", "frozen"),
}
RUNG_NAMES = tuple(RUNGS)

# Reported large-scale mean rank correlations for the same ladder, recorded
# for side-by-side comparison only.
REFERENCE_RANK_CORRELATION = {
    "approx1a": 0.75,
    "approx1b": 0.76,
    "approx2": 0.63,
    "approx3": 0.51,
}


@dataclass
class RungResult:
    rung: str
    step_rho: list[float]
    mean_rho: float
    frac_positive: float
    reference_rho: float | None
    step_scores: list[np.ndarray] | None = None  # this rung's raw candidate scores


def _mean_loss(model, x, y) -> float:
    return float(cross_entropy(forward(model, x), y).mean())


def train_to_convergence(
    model,
    x,
    y,
    opt,
    budget_epochs: int,
    tol: float = 1e-3,
    batch_size: int = 32,
    rng: np.random.Generator | None = None,
) -> None:
    """Full shuffled passes until the relative loss improvement drops below
    tol, capped at budget_epochs. A budget of 0 leaves the model untouched."""
    if budget_epochs < 0:
        raise ValueError("budget must be >= 0")
    if budget_epochs == 0 or np.asarray(x).shape[0] == 0:
        return
    if rng is None:
        rng = np.random.default_rng()
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    prev = _mean_loss(model, x, y)
    for _ in range(budget_epochs):
        train_epoch(model, opt, x, y, batch_size, rng)
        cur = _mean_loss(model, x, y)
        if prev - cur < tol * max(prev, 1e-12):
            break
        prev = cur


def _loss(members, x, y) -> np.ndarray:
    """Per-example loss of one model, or of the mean prediction of several."""
    if len(members) == 1:
        return cross_entropy(forward(members[0][0], x), y)
    return ensemble_cross_entropy(EnsembleModel([model for model, _ in members]), x, y)


def _update(members, regime, seen_x, seen_y, x_sel, y_sel, cfg: LadderConfig, rng) -> None:
    """Update each (model, optimizer) member by its regime: retrain on
    everything seen, take one step on the acquired batch, or stay frozen."""
    for model, opt in members:
        if regime == "converged":
            train_to_convergence(
                model, seen_x, seen_y, opt, cfg.convergence_epochs,
                tol=cfg.convergence_tol, batch_size=cfg.batch_size, rng=rng,
            )
        elif regime == "single-step":
            optimizer_step(opt, model, backward(model, x_sel, y_sel, mode="train", bn_stat_source="batch", rng=rng))


def run_ladder(pool: LabeledDataset, holdout: LabeledDataset, cfg: LadderConfig) -> dict[str, RungResult]:
    """Run every pipeline over the first epoch of the shared candidate
    schedule and correlate each rung's per-step scores against approx0's."""
    if pool.n < cfg.n_B:
        raise ValueError(f"pool of {pool.n} examples is smaller than one candidate batch of {cfg.n_B}")
    ss = np.random.SeedSequence(cfg.seed).spawn(4)
    schedule_rng = np.random.default_rng(ss[0])
    tie_rng = np.random.default_rng(ss[1])
    init_seeds = np.random.default_rng(ss[2]).integers(0, 2**31 - 1, size=8)
    perm = schedule_rng.permutation(pool.n)
    chunks = [perm[start : start + cfg.n_B] for start in range(0, pool.n, cfg.n_B)]
    tie_seeds = [int(tie_rng.integers(0, 2**31 - 1)) for _ in chunks]

    sizes = (pool.dim, *cfg.hidden, pool.num_classes)
    small_sizes = (pool.dim, *cfg.small_hidden, pool.num_classes)

    def members(models):
        """(model, fresh optimizer) pairs."""
        opt = cfg.optimizer
        return [(m, make_optimizer(opt.kind, opt.learning_rate, weight_decay=opt.weight_decay)) for m in models]

    # Holdout-fitted IL models. Every rung starts from a copy of one of these,
    # so rungs 1a/1b/2 differ only in how they update the same fitted model.
    ils = {
        "single": members([init_mlp(sizes, seed=int(init_seeds[0]))]),
        "small": members([init_mlp(small_sizes, seed=int(init_seeds[1]))]),
        "ensemble": members(make_ensemble(sizes, cfg.ensemble_size, seed=int(init_seeds[2])).members),
    }
    pre_rng = np.random.default_rng(ss[3])
    for fitted in ils.values():
        for model, opt in fitted:
            train_to_convergence(
                model, holdout.features, holdout.labels, opt, cfg.il_pretrain_epochs,
                tol=cfg.convergence_tol, batch_size=cfg.batch_size, rng=pre_rng,
            )
    targets = {
        "single": members([init_mlp(sizes, seed=int(init_seeds[3]))]),
        "ensemble": members(make_ensemble(sizes, cfg.ensemble_size, seed=int(init_seeds[4])).members),
    }

    scores: dict[str, list[np.ndarray]] = {}
    for index, (name, (target_src, il_src, regime, il_regime)) in enumerate(RUNGS.items()):
        rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, index]))
        target = copy.deepcopy(targets[target_src])
        il = copy.deepcopy(ils[il_src])
        seen_x, seen_y = [], []
        per_step = []
        for chunk, tie_seed in zip(chunks, tie_seeds):
            x, y = pool.features[chunk], pool.labels[chunk]
            s = _loss(target, x, y) - _loss(il, x, y)
            per_step.append(s)
            sel = select_top_k(s, chunk_select_count(chunk.size, cfg.n_b, cfg.n_B), tie_seed)
            seen_x.append(x[sel])
            seen_y.append(y[sel])
            ax, ay = np.concatenate(seen_x), np.concatenate(seen_y)
            _update(target, regime, ax, ay, x[sel], y[sel], cfg, rng)
            _update(
                il, il_regime, np.concatenate([holdout.features, ax]), np.concatenate([holdout.labels, ay]),
                x[sel], y[sel], cfg, rng,
            )
        scores[name] = per_step

    results: dict[str, RungResult] = {}
    for name in RUNG_NAMES:
        rhos = []
        for s_rung, s_gold in zip(scores[name], scores["approx0"]):
            rho = spearman(s_rung, s_gold)
            rhos.append(float("nan") if rho is None else rho)
        arr = np.asarray(rhos)
        results[name] = RungResult(
            rung=name,
            step_rho=rhos,
            mean_rho=float(np.nanmean(arr)),
            frac_positive=float(np.mean(arr > 0)),
            reference_rho=REFERENCE_RANK_CORRELATION.get(name),
            step_scores=scores[name],
        )
    return results
