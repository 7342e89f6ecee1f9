"""Online batch-selection training loop.

Each step pre-samples a large candidate batch from a per-epoch seeded
permutation of the pool (`selection.candidate_chunks`, so every example
appears in exactly one candidate chunk per epoch), scores the candidates
against the current parameters, takes one `optim.train_step` on the
top-ranked few, and logs what was selected. Scoring always
sees the pre-update snapshot: candidate losses are computed before the
gradient step, in eval mode (dropout off) with batch statistics taken over
the candidate chunk when batch normalization is on; the training step then
recomputes statistics over the selected batch only.

The eval forward over the whole chunk runs only on steps that need it: for
policies that read candidate losses (`SelectionPolicy.reads_losses`), and
for models with batch normalization, whose composition predictions use the
chunk's statistics. Any other step forwards just the selected rows, after
selection, to count the already-correct ones: without batch norm a row's
eval logits do not depend on the other rows (up to the last bit of a GEMM).

Randomness is split into five independent streams spawned from the run seed,
in this order: epoch permutations, tie-breaks, policy-internal draws
(importance sampling, Monte-Carlo dropout), dropout masks, and the live IL
model's dropout masks (original mode only). The streams are consumed
identically by every policy, so runs with the same seed share the candidate
schedule.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import TextIO

import numpy as np

from .config import OptimizerSettings, RunSection
from .data import LabeledDataset
from .ilmodel import IrreducibleLossTable, update_il_model
from .nn import MlpModel, NonFiniteLogitsError, cross_entropy, evaluate, forward
from .optim import make_optimizer, train_step
from .records import CompositionRow, EvalRow, RunRecord, StepRow
from .selection import (
    OFFLINE_KINDS,
    SelectionPolicy,
    candidate_chunks,
    chunk_select_count,
    score_and_select,
    smallest_chunk,
)


@dataclass(frozen=True)
class RunConfig:
    """Knobs for one training run.

    Defaults are the run section's (config.RunSection): select 10% of each
    candidate chunk (n_b=32 of n_B=320) and train with AdamW at lr 1e-3,
    weight decay 0.01.
    """

    policy: SelectionPolicy
    n_b: int = RunSection.n_b
    n_B: int = RunSection.n_B
    epochs: int = RunSection.epochs
    optimizer_kind: str = OptimizerSettings.kind
    learning_rate: float = OptimizerSettings.learning_rate
    weight_decay: float = OptimizerSettings.weight_decay
    il_update_mode: str = RunSection.il_update_mode  # "frozen" | "original"
    il_lr_scale: float = RunSection.lr_scale
    seed: int = 0
    eval_every: int | None = RunSection.eval_every  # extra evaluations every this many steps

    def __post_init__(self):
        if not 0 < self.n_b <= self.n_B:
            raise ValueError(f"need 1 <= n_b <= n_B, got n_b={self.n_b}, n_B={self.n_B}")
        if self.epochs < 1:
            raise ValueError(f"epochs must be >= 1, got {self.epochs}")
        if self.il_update_mode not in ("frozen", "original"):
            raise ValueError(f"unknown il_update_mode {self.il_update_mode!r}")
        if not self.il_lr_scale >= 0:
            raise ValueError(f"il_lr_scale must be >= 0, got {self.il_lr_scale}")
        if self.eval_every is not None and self.eval_every < 1:
            raise ValueError("eval_every must be >= 1 when given")


def _run(train, test, cfg, model, il_values_fn, il_after_step, dump) -> RunRecord:
    if train.n == 0:
        raise ValueError("training set is empty")
    if cfg.policy.kind in OFFLINE_KINDS:
        raise ValueError("offline policies pre-filter the pool; run them as uniform on the filtered subset")
    last = smallest_chunk(train.n, cfg.n_B)
    fewest = chunk_select_count(last, cfg.n_b, cfg.n_B)
    if model.batchnorm is not None and fewest < 2:
        raise ValueError(
            f"run.n_b, run.n_B: batch normalization needs >= 2 selected rows in every step, but n_b={cfg.n_b} "
            f"of n_B={cfg.n_B} on a pool of {train.n} selects {fewest} from the last chunk of {last}"
        )
    streams = np.random.SeedSequence(cfg.seed).spawn(5)
    perm_rng = np.random.default_rng(streams[0])
    tie_rng = np.random.default_rng(streams[1])
    policy_rng = np.random.default_rng(streams[2])
    dropout_rng = np.random.default_rng(streams[3])
    il_rng = np.random.default_rng(streams[4])
    opt = make_optimizer(cfg.optimizer_kind, cfg.learning_rate, weight_decay=cfg.weight_decay)
    record = RunRecord(policy=cfg.policy.kind, seed=cfg.seed)
    # Composition predictions with batch norm use the whole chunk's statistics.
    chunk_forward = cfg.policy.reads_losses or model.batchnorm is not None
    step = 0
    epoch = 0
    if dump is not None:
        dump.write("step,id,score,selected\n")
    try:
        for epoch in range(1, cfg.epochs + 1):
            sel_total = 0
            sel_corrupted = 0
            sel_lowrel = 0
            sel_correct = 0
            for chunk, k, tie_seed in candidate_chunks(train.n, cfg.n_B, cfg.n_b, perm_rng, tie_rng):
                x = train.features[chunk]
                y = train.labels[chunk]
                ids = train.ids[chunk]
                logits = forward(model, x, mode="eval", bn_stat_source="batch") if chunk_forward else None
                losses = cross_entropy(logits, y) if cfg.policy.reads_losses else None
                scored = score_and_select(
                    cfg.policy, model, x, y, ids, losses, il_values_fn, k, tie_seed, policy_rng
                )
                sel = scored.selected_indices
                x_sel, y_sel = x[sel], y[sel]
                sel_logits = logits[sel] if chunk_forward else forward(model, x_sel, mode="eval", bn_stat_source="batch")
                sel_total += sel.size
                sel_corrupted += int(train.corrupted[chunk[sel]].sum())
                sel_lowrel += int(train.low_relevance[chunk[sel]].sum())
                sel_correct += int((np.argmax(sel_logits, axis=1) == y_sel).sum())
                train_step(model, opt, x_sel, y_sel, dropout_rng, sample_weights=scored.weights)
                il_after_step(x_sel, y_sel, il_rng)
                if dump is not None:
                    picked = set(sel.tolist())
                    for j, ex_id in enumerate(ids):
                        dump.write(f"{step},{int(ex_id)},{float(scored.scores[j])!r},{int(j in picked)}\n")
                record.steps.append(
                    StepRow(step, epoch, tuple(int(i) for i in ids[sel]), float(scored.scores[sel].mean()))
                )
                step += 1
                if cfg.eval_every is not None and step % cfg.eval_every == 0:
                    acc, loss = evaluate(model, test)
                    record.evals.append(EvalRow(step, epoch, False, acc, loss))
            acc, loss = evaluate(model, test)
            record.evals.append(EvalRow(step, epoch, True, acc, loss))
            record.compositions.append(
                CompositionRow(
                    epoch,
                    sel_total,
                    sel_corrupted / sel_total,
                    sel_lowrel / sel_total,
                    sel_correct / sel_total,
                )
            )
    except NonFiniteLogitsError as exc:
        raise NonFiniteLogitsError(
            f"policy {cfg.policy.kind} seed {cfg.seed} epoch {epoch} step {step}: {exc}"
        ) from exc
    return record


def run_training(
    train: LabeledDataset,
    test: LabeledDataset,
    il_table: IrreducibleLossTable | None,
    cfg: RunConfig,
    model: MlpModel,
    score_dump: TextIO | None = None,
) -> RunRecord:
    """Frozen-table mode: irreducible losses are looked up, never recomputed.

    The table must cover every training id when the policy consumes it; the
    table is read-only for the whole run, so such a policy needs
    il_update_mode "frozen". The model is trained in place. score_dump, an
    open text stream, receives every candidate's score as
    step,id,score,selected rows under a column header; the caller owns it.
    """
    if cfg.policy.needs_il:
        if cfg.il_update_mode != "frozen":
            raise ValueError(
                f"policy {cfg.policy.kind!r} with il_update_mode {cfg.il_update_mode!r} updates a live IL model; "
                "run it with run_original_selection"
            )
        if il_table is None:
            raise ValueError(f"policy {cfg.policy.kind!r} needs an irreducible-loss table")
        if not il_table.covers(train.ids):
            missing = train.ids[~np.isin(train.ids, il_table.ids)][:5].tolist()
            raise ValueError(f"irreducible-loss table does not cover the pool (e.g. ids {missing})")

    return _run(train, test, cfg, model, lambda ids, x, labels: il_table.lookup(ids), lambda x, y, rng: None,
                score_dump)


def run_original_selection(
    train: LabeledDataset,
    test: LabeledDataset,
    il_model: MlpModel,
    cfg: RunConfig,
    model: MlpModel,
    score_dump: TextIO | None = None,
) -> RunRecord:
    """Live-model mode: the irreducible loss is recomputed each step from an
    IL model that takes one gradient step on every acquired batch, with its
    own optimizer at learning_rate * il_lr_scale.

    With il_lr_scale=0 the IL model's parameters never move, so the selected
    sets coincide step-for-step with frozen-table mode under shared seeds.
    cfg.il_update_mode must be "original", and the policy must read the
    irreducible loss. score_dump is as in run_training.
    """
    if not cfg.policy.needs_il:
        raise ValueError(f"policy {cfg.policy.kind!r} reads no irreducible loss, so a live IL model would "
                         "train for nothing; run it with run_training")
    if cfg.il_update_mode != "original":
        raise ValueError(
            f"run_original_selection updates a live IL model, but il_update_mode is {cfg.il_update_mode!r}; "
            "run a frozen table with run_training"
        )
    il_opt = make_optimizer(cfg.optimizer_kind, cfg.learning_rate * cfg.il_lr_scale, weight_decay=cfg.weight_decay)
    return _run(
        train, test, cfg, model,
        lambda ids, x, labels: cross_entropy(forward(il_model, x), labels),
        lambda x, labels, rng: update_il_model(il_model, il_opt, x, labels, rng=rng),
        score_dump,
    )
