"""Approximation-fidelity ladder for reducible-loss scoring.

The gold-standard pipeline ("approx0") scores candidates with a deep
ensemble trained to convergence on everything acquired so far, and an
ensemble irreducible-loss model likewise retrained on the holdout plus the
acquired data after every step. Each cheaper rung strips one ingredient:

    approx1a  single model instead of an ensemble, still converged per step
    approx1b  a single gradient step per acquisition instead of convergence
    approx2   the irreducible-loss model is frozen after holdout training
    approx3   the frozen irreducible-loss model is half-width

All pipelines consume the trainer's seeded candidate schedule
(`selection.candidate_chunks`) over the first epoch, but each evolves under its own selections; no re-synchronization is
performed, so later-step rank correlations partly reflect genuine state
divergence. Per step, the rung's candidate scores are compared to approx0's
by Spearman rank correlation. A forward pass that diverges is re-raised
naming the IL pre-fit, or the rung, the step and the stage (scoring, target
update or IL update) where it happened.

Each member list of the rung table, a single model or an ensemble of k, is
one stacked model (`nn.stack_models`) with one optimizer. A converged update
trains its members in lockstep, one forward/backward and one optimizer step
per minibatch for all of them, while every member shuffles with its own
random stream and stops early on its own; so each member ends exactly as it
would trained alone. The holdout pre-fit trains the single IL model and the
IL ensemble, which share an architecture and data, as one stack of k + 1.

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
from .nn import (
    MlpModel,
    cross_entropy,
    diverging_at,
    ensemble_cross_entropy,
    forward,
    init_mlp,
    stack_models,
    unstack,
)
from .optim import make_optimizer, train_epoch, train_step
from .selection import candidate_chunks, select_top_k, smallest_chunk
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


def _mean_losses(model, x, y, active) -> np.ndarray:
    """Mean loss of each active member of a stacked model (0 for the rest),
    one member at a time: x is the whole training set (see `nn.unstack`)."""
    return np.array([cross_entropy(forward(m, x), y).mean() if on else 0.0 for m, on in zip(unstack(model), active)])


def train_to_convergence(model, x, y, opt, budget_epochs: int, tol: float, batch_size: int, rngs) -> None:
    """Train the members of a stacked model in lockstep on full shuffled
    passes over (x, y). Member j shuffles with its own generator rngs[j] and
    stops once its relative loss improvement drops below tol, capped at
    budget_epochs; a stopped member is masked out of every later step, so each
    ends as it would trained alone. A budget of 0 leaves the model untouched."""
    if budget_epochs < 0:
        raise ValueError("budget must be >= 0")
    if model.stack != (len(rngs),):
        raise ValueError(f"need a stacked model and one generator per member, got stack {model.stack} and {len(rngs)}")
    if budget_epochs == 0 or np.asarray(x).shape[0] == 0:
        return
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    active = np.ones(len(rngs), dtype=bool)
    prev = _mean_losses(model, x, y, active)
    for _ in range(budget_epochs):
        train_epoch(model, opt, x, y, batch_size, rngs, active)
        cur = _mean_losses(model, x, y, active)
        active &= ~(prev - cur < tol * np.maximum(prev, 1e-12))
        if not active.any():
            break
        prev = cur


def _loss(model, x, y) -> np.ndarray:
    """Per-example loss of a stack of one, or of the mean prediction of a larger stack."""
    if model.stack == (1,):
        return cross_entropy(forward(unstack(model)[0], x), y)
    return ensemble_cross_entropy(model, x, y)


def _update(member, regime, seen_x, seen_y, x_sel, y_sel, cfg: LadderConfig, rngs) -> None:
    """Update a (stacked model, optimizer) member list by its regime: retrain
    on everything seen, take one step on the acquired batch, or stay frozen.
    Member j shuffles with its own generator rngs[j]."""
    model, opt = member
    if regime == "converged":
        train_to_convergence(
            model, seen_x, seen_y, opt, cfg.convergence_epochs, cfg.convergence_tol, cfg.batch_size, rngs
        )
    elif regime == "single-step":
        train_step(model, opt, x_sel, y_sel)


def _take(member, rows: slice):
    """Members `rows` of a (stacked model, optimizer) member list, with their
    moments and step counts, as a member list of their own."""
    model, opt = copy.deepcopy(member)
    part = MlpModel(model.layer_sizes, model.params[rows])
    if not isinstance(opt.step_count, int):  # counts are per member once the stack has stepped
        opt.step_count = opt.step_count[rows]
    if opt.layout is not None:
        opt.layout = (*opt.layout[:2], part.params.shape)
        opt.flat_exp_avg, opt.flat_exp_avg_sq = opt.flat_exp_avg[rows], opt.flat_exp_avg_sq[rows]
    return part, opt


def run_ladder(pool: LabeledDataset, holdout: LabeledDataset, cfg: LadderConfig) -> dict[str, RungResult]:
    """Run every pipeline over the first epoch of the shared candidate
    schedule and correlate each rung's per-step scores against approx0's."""
    if pool.n < cfg.n_B:
        raise ValueError(f"ladder.n_B: pool of {pool.n} examples is smaller than one candidate batch of {cfg.n_B}")
    last = smallest_chunk(pool.n, cfg.n_B)
    if last < 2:
        raise ValueError(
            f"ladder.n_B: n_B={cfg.n_B} on a pool of {pool.n} leaves a last candidate chunk of {last}, "
            "and a rank correlation needs at least 2 candidates"
        )
    ss = np.random.SeedSequence(cfg.seed).spawn(4)
    perm_rng, tie_rng = (np.random.default_rng(seq) for seq in ss[:2])
    schedule = list(candidate_chunks(pool.n, cfg.n_B, cfg.n_b, perm_rng, tie_rng))
    init_seeds = np.random.default_rng(ss[2]).integers(0, 2**31 - 1, size=8)

    sizes = (pool.dim, *cfg.hidden, pool.num_classes)
    small_sizes = (pool.dim, *cfg.small_hidden, pool.num_classes)
    k = cfg.ensemble_size

    def ensemble(seed):
        """k models, initialised from the k seeds that SeedSequence(seed) generates."""
        return [init_mlp(sizes, seed=int(s)) for s in np.random.SeedSequence(seed).generate_state(k)]

    def member_list(models):
        """The models as one stack, with a fresh optimizer."""
        opt = cfg.optimizer
        return stack_models(models), make_optimizer(opt.kind, opt.learning_rate, weight_decay=opt.weight_decay)

    # Holdout-fitted IL models. Every rung starts from a copy of one of these,
    # so rungs 1a/1b/2 differ only in how they update the same fitted model.
    # The single model and the ensemble share an architecture and the data,
    # so they fit as one stack of k + 1; every model has its own stream.
    pre = [np.random.default_rng(seq) for seq in ss[3].spawn(k + 2)]
    wide = member_list([init_mlp(sizes, seed=int(init_seeds[0])), *ensemble(int(init_seeds[2]))])
    small = member_list([init_mlp(small_sizes, seed=int(init_seeds[1]))])
    for (model, opt), rngs in ((wide, [pre[0], *pre[2:]]), (small, [pre[1]])):
        with diverging_at("ladder IL pre-fit"):
            train_to_convergence(
                model, holdout.features, holdout.labels, opt, cfg.il_pretrain_epochs, cfg.convergence_tol,
                cfg.batch_size, rngs,
            )
    ils = {"single": _take(wide, slice(0, 1)), "small": small, "ensemble": _take(wide, slice(1, None))}
    targets = {
        "single": member_list([init_mlp(sizes, seed=int(init_seeds[3]))]),
        "ensemble": member_list(ensemble(int(init_seeds[4]))),
    }

    scores: dict[str, list[np.ndarray]] = {}
    for index, (name, (target_src, il_src, regime, il_regime)) in enumerate(RUNGS.items()):
        target = copy.deepcopy(targets[target_src])
        il = copy.deepcopy(ils[il_src])
        # one stream per member: its shuffles never depend on another's early stop
        n_target = target[0].stack[0]
        streams = np.random.SeedSequence([cfg.seed, index]).spawn(n_target + il[0].stack[0])
        rngs = [np.random.default_rng(seq) for seq in streams]
        target_rngs, il_rngs = rngs[:n_target], rngs[n_target:]
        seen_x, seen_y = [], []
        per_step = []
        for step, (chunk, n_sel, tie_seed) in enumerate(schedule):
            x, y = pool.features[chunk], pool.labels[chunk]
            with diverging_at(f"ladder rung {name} step {step} (scoring)"):
                s = _loss(target[0], x, y) - _loss(il[0], x, y)
            per_step.append(s)
            sel = select_top_k(s, n_sel, tie_seed)
            seen_x.append(x[sel])
            seen_y.append(y[sel])
            ax, ay = np.concatenate(seen_x), np.concatenate(seen_y)
            with diverging_at(f"ladder rung {name} step {step} (target update)"):
                _update(target, regime, ax, ay, x[sel], y[sel], cfg, target_rngs)
            with diverging_at(f"ladder rung {name} step {step} (IL update)"):
                _update(
                    il, il_regime, np.concatenate([holdout.features, ax]), np.concatenate([holdout.labels, ay]),
                    x[sel], y[sel], cfg, il_rngs,
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
