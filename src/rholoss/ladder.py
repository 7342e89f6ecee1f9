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
(`selection.candidate_chunks`) over the first epoch, but each evolves under
its own selections; no re-synchronization is performed, so later-step rank
correlations partly reflect genuine state divergence. The rungs run step by
step: at each step every rung scores the chunk and selects its batch, then
the updates run. Per step, the rung's candidate scores are compared to
approx0's by Spearman rank correlation. A forward pass that diverges, or
a converged update whose last epoch leaves non-finite parameters, is
re-raised naming the IL pre-fit, or the rung (both rungs for an update they
share), the step and the stage (scoring, target update or IL update) where
it happened.

Members train as stacked models (`nn.stack_models`), one optimizer per
stack. The holdout pre-fit trains the single IL model and the IL ensemble,
which share an architecture and data, as one stack of k + 1. The rungs
whose target regime is converged train their targets as one fresh stack,
and the rungs whose IL regime is converged train their IL models on in the
pre-fit stack; every other rung keeps a member list of its own. Each member
trains on its own rung's data, rows of one array that holds the holdout
once and each converging rung's acquired rows. A
converged update trains its members in lockstep, one forward/backward and
one optimizer step per minibatch for all of them, while every member
shuffles with its own random stream and stops early on its own; so each
member ends exactly as it would trained alone, and the scores are those of
running the rungs one after the other.

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
    NonFiniteLogitsError,
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
    step_rho: list[float]
    mean_rho: float
    frac_positive: float
    reference_rho: float | None


def _mean_losses(model, x, y, active, rows=None) -> np.ndarray:
    """Mean loss of each active member of a stacked model on its training set
    (0 for the rest), one member at a time: all of x, or the rows of x that
    rows gives the member (see `train_to_convergence`). Rows that are a run
    of consecutive rows are read as a view, any others gathered, once for a
    member whose rows equal the previous member's."""
    losses = np.zeros(len(active))
    held = xs = ys = None
    for j, (member, on) in enumerate(zip(unstack(model), active)):
        if not on:
            continue
        if rows is None:
            xs, ys = x, y
        elif held is None or not np.array_equal(rows[j], held):
            held, xs, ys = rows[j], None, None  # the previous set's gather is freed before the next is made
            run = slice(held[0], held[0] + held.size)
            xs, ys = (x[run], y[run]) if np.array_equal(held, np.arange(x.shape[0])[run]) else (x[held], y[held])
        losses[j] = cross_entropy(forward(member, xs), ys).mean()
    return losses


def train_to_convergence(model, x, y, opt, budget_epochs: int, tol: float, batch_size: int, rngs, rows=None) -> None:
    """Train the members of a stacked model in lockstep on full shuffled
    passes over their training sets: all of (x, y), or, when rows is given,
    the rows of x and y that row j of the (k, n) index array rows names for
    member j. Member j shuffles with its own generator rngs[j] and stops once
    its relative loss improvement drops below tol, capped at budget_epochs; a
    stopped member is masked out of every later step, so each ends as it
    would trained alone. Only the losses a stop decision reads are computed:
    none after the last epoch, so none at all for a budget of 1; the
    parameters the last epoch leaves are checked to be finite instead, so a
    divergence is still raised where it happened. A budget of 0 leaves the
    model untouched."""
    if budget_epochs < 0:
        raise ValueError("budget must be >= 0")
    if model.stack != (len(rngs),):
        raise ValueError(f"need a stacked model and one generator per member, got stack {model.stack} and {len(rngs)}")
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    if rows is not None and (rows.ndim != 2 or rows.shape[0] != len(rngs)):
        raise ValueError(f"need one row of training-set indices per member, got rows of shape {rows.shape}")
    if budget_epochs == 0 or (x.shape[0] if rows is None else rows.shape[1]) == 0:
        return
    active = np.ones(len(rngs), dtype=bool)
    prev = _mean_losses(model, x, y, active, rows) if budget_epochs > 1 else None
    for epoch in range(1, budget_epochs + 1):
        train_epoch(model, opt, x, y, batch_size, rngs, active, rows)
        if epoch == budget_epochs:
            if not np.isfinite(model.params).all():
                raise NonFiniteLogitsError("training left non-finite parameters")
            break
        cur = _mean_losses(model, x, y, active, rows)
        active &= ~(prev - cur < tol * np.maximum(prev, 1e-12))
        if not active.any():
            break
        prev = cur


def _loss(model, x, y) -> np.ndarray:
    """Per-example loss of a stack of one, or of the mean prediction of a larger stack."""
    if model.stack == (1,):
        return cross_entropy(forward(unstack(model)[0], x), y)
    return ensemble_cross_entropy(model, x, y)


def _take(member, rows: slice):
    """Members `rows` of a (stacked model, optimizer) member list, with their
    moments and step counts, copied into a member list of their own."""
    model, opt = member
    part, opt = MlpModel(model.layer_sizes, model.params[rows].copy()), copy.copy(opt)
    if not isinstance(opt.step_count, int):  # counts are per member once the stack has stepped
        opt.step_count = opt.step_count[rows]
    if opt.layout is not None:
        opt.layout = (*opt.layout[:2], part.params.shape)
        opt.flat_exp_avg, opt.flat_exp_avg_sq = opt.flat_exp_avg[rows].copy(), opt.flat_exp_avg_sq[rows].copy()
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

    # Each rung's streams, one per member, its target members' first: a
    # member's shuffles never depend on another's early stop.
    counts = {"single": 1, "small": 1, "ensemble": k}
    streams = {}
    for index, (name, (target_src, il_src, _, _)) in enumerate(RUNGS.items()):
        seqs = np.random.SeedSequence([cfg.seed, index]).spawn(counts[target_src] + counts[il_src])
        rngs = [np.random.default_rng(seq) for seq in seqs]
        streams[name] = (rngs[: counts[target_src]], rngs[counts[target_src] :])

    # The converged updates train on rows of one array: the holdout, then a
    # run of rows for each rung that converges on either side, with room for
    # every row the rung acquires, filled as it acquires them. A rung's target
    # set is its run's filled rows, its IL set the holdout and those rows.
    total = sum(n_sel for _, n_sel, _ in schedule)  # the rows a rung acquires in all
    converging = [name for name, spec in RUNGS.items() if "converged" in spec[2:]]
    runs = {name: holdout.n + i * total for i, name in enumerate(converging)}
    capacity = holdout.n + len(runs) * total
    seen_x, seen_y = np.empty((capacity, pool.dim)), np.empty(capacity, np.int64)
    seen_x[: holdout.n], seen_y[: holdout.n] = holdout.features, holdout.labels

    # The update groups, as (member list, regime, side (0 target, 1 IL),
    # {rung: its members' rows of the stack}, one generator per member), and
    # each rung's (target, IL) members as views of their stacks to score with.
    groups, scorers = [], {name: [None, None] for name in RUNGS}

    def add_group(member, regime, side, parts):
        model = member[0]
        rngs = [None] * model.stack[0]
        for name, rows in parts.items():
            scorers[name][side] = MlpModel(model.layer_sizes, model.params[rows])
            rngs[rows] = streams[name][side]
        groups.append((member, regime, side, parts, rngs))

    # On each side, the rungs whose regime there is converged train as one
    # stack: the targets in a fresh one, their members in rung order, and the
    # IL models in `wide` itself, which goes on from the pre-fit with its
    # moments and step counts. Every other rung has a member list of its own,
    # its IL a copy of the pre-fit single model, or the pre-fit small model
    # itself, which only approx3 trains on.
    fresh = {
        "single": lambda: [init_mlp(sizes, seed=int(init_seeds[3]))],
        "ensemble": lambda: ensemble(int(init_seeds[4])),
    }
    fitted = {"single": lambda: _take(wide, slice(0, 1)), "small": lambda: small}
    models, parts = [], {}
    for name, (target_src, _, regime, _) in RUNGS.items():
        if regime == "converged":
            new = fresh[target_src]()
            parts[name] = slice(len(models), len(models) + len(new))
            models += new
    add_group(member_list(models), "converged", 0, parts)
    in_wide = {"single": slice(0, 1), "ensemble": slice(1, k + 1)}
    add_group(wide, "converged", 1, {name: in_wide[spec[1]] for name, spec in RUNGS.items() if spec[3] == "converged"})
    for name, (target_src, il_src, regime, il_regime) in RUNGS.items():
        if regime != "converged":
            add_group(member_list(fresh[target_src]()), regime, 0, {name: slice(None)})
        if il_regime != "converged":
            add_group(fitted[il_src](), il_regime, 1, {name: slice(None)})

    scores: dict[str, list[np.ndarray]] = {name: [] for name in RUNGS}
    done = 0  # the rows each rung has acquired
    for step, (chunk, n_sel, tie_seed) in enumerate(schedule):
        x, y = pool.features[chunk], pool.labels[chunk]
        picked = {}  # the candidates each rung acquires at this step
        for name, (target, il) in scorers.items():
            with diverging_at(f"ladder rung {name} step {step} (scoring)"):
                s = _loss(target, x, y) - _loss(il, x, y)
            scores[name].append(s)
            picked[name] = select_top_k(s, n_sel, tie_seed)
        for name, start in runs.items():
            seen_x[start + done : start + done + n_sel], seen_y[start + done : start + done + n_sel] = (
                x[picked[name]], y[picked[name]]
            )
        done += n_sel
        for (model, opt), regime, side, parts, rngs in groups:
            names = list(parts)
            stage = ("target update", "IL update")[side]
            with diverging_at(f"ladder rung{'s' * (len(names) > 1)} {' and '.join(names)} step {step} ({stage})"):
                if regime == "single-step":
                    train_step(model, opt, x[picked[names[0]]], y[picked[names[0]]])
                elif regime == "converged":
                    rows = np.empty((len(rngs), holdout.n * side + done), dtype=np.int64)
                    for name, part in parts.items():
                        rows[part] = np.r_[: holdout.n * side, runs[name] : runs[name] + done]
                    train_to_convergence(
                        model, seen_x, seen_y, opt, cfg.convergence_epochs, cfg.convergence_tol, cfg.batch_size, rngs,
                        rows,
                    )

    results: dict[str, RungResult] = {}
    for name in RUNG_NAMES:
        rhos = [float("nan") if rho is None else rho for rho in map(spearman, scores[name], scores["approx0"])]
        results[name] = RungResult(step_rho=rhos, mean_rho=float(np.nanmean(rhos)),
                                   frac_positive=float(np.mean(np.greater(rhos, 0))),
                                   reference_rho=REFERENCE_RANK_CORRELATION.get(name))
    return results
