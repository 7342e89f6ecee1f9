"""Online batch-selection training loop.

Each step pre-samples a large candidate batch from a per-epoch seeded
permutation of the pool (so every example appears in exactly one candidate
chunk per epoch), scores the candidates against the current parameters,
trains on the top-ranked few, and logs what was selected. Scoring always
sees the pre-update snapshot: candidate losses are computed before the
gradient step, in eval mode (dropout off) with batch statistics taken over
the candidate chunk when batch normalization is on; the training step then
recomputes statistics over the selected batch only.

Randomness is split into four independent streams spawned from the run seed,
in this order: epoch permutations, tie-breaks, policy-internal draws
(importance sampling, Monte-Carlo dropout), dropout masks. The streams are
consumed identically by every policy, so runs with the same seed share the
candidate schedule.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import LabeledDataset
from .ilmodel import IrreducibleLossTable, update_il_model
from .nn import MlpModel, NonFiniteLogitsError, backward, cross_entropy, forward
from .optim import make_optimizer, optimizer_step
from .records import CompositionRow, EvalRow, RunRecord, StepRow
from .selection import SelectionPolicy, score_and_select


@dataclass(frozen=True)
class RunConfig:
    """Knobs for one training run.

    Defaults mirror the desk-scale reference setup: select 10% of each
    candidate chunk (n_b=32 of n_B=320) and train with AdamW at lr 1e-3,
    weight decay 0.01.
    """

    policy: SelectionPolicy
    n_b: int = 32
    n_B: int = 320
    epochs: int = 10
    optimizer_kind: str = "adamw"
    learning_rate: float = 1e-3
    weight_decay: float = 0.01
    il_update_mode: str = "frozen"  # "frozen" | "original"
    il_lr_scale: float = 0.01
    seed: int = 0
    eval_every: int | None = None  # extra evaluations every this many steps
    target_accuracies: tuple[float, ...] = ()
    score_dump_path: str | None = None  # per-candidate scores: step,id,score,selected

    def __post_init__(self):
        if self.n_b < 1:
            raise ValueError(f"n_b must be >= 1, got {self.n_b}")
        if not 0 < self.n_b <= self.n_B:
            raise ValueError(f"need 1 <= n_b <= n_B, got n_b={self.n_b}, n_B={self.n_B}")
        if self.epochs < 1:
            raise ValueError(f"epochs must be >= 1, got {self.epochs}")
        if self.il_update_mode not in ("frozen", "original"):
            raise ValueError(f"unknown il_update_mode {self.il_update_mode!r}")
        if self.eval_every is not None and self.eval_every < 1:
            raise ValueError("eval_every must be >= 1 when given")


def evaluate(model: MlpModel, test: LabeledDataset, batch_size: int = 1024) -> tuple[float, float]:
    """(accuracy, mean cross-entropy) on a test set, eval mode, running stats."""
    correct = 0
    loss_sum = 0.0
    for start in range(0, test.n, batch_size):
        stop = min(start + batch_size, test.n)
        logits = forward(model, test.features[start:stop])
        loss_sum += float(cross_entropy(logits, test.labels[start:stop]).sum())
        correct += int((np.argmax(logits, axis=1) == test.labels[start:stop]).sum())
    return correct / test.n, loss_sum / test.n


def composition_metrics(selected_ids, dataset: LabeledDataset, model: MlpModel | None = None, predictions=None):
    """Fractions of a selected set that are corrupted, low-relevance, and
    already classified correctly.

    Pass predictions (labels aligned with the dataset rows) to reuse a
    snapshot's outputs; otherwise the model predicts fresh in eval mode.
    """
    pos_by_id = {int(ex_id): i for i, ex_id in enumerate(dataset.ids)}
    idx = np.array([pos_by_id[int(i)] for i in selected_ids], dtype=np.int64)
    if predictions is None:
        if model is None:
            raise ValueError("need either a model or precomputed predictions")
        predictions = np.argmax(forward(model, dataset.features[idx]), axis=1)
        correct = predictions == dataset.labels[idx]
    else:
        predictions = np.asarray(predictions)
        correct = predictions[idx] == dataset.labels[idx]
    return (
        float(dataset.corrupted[idx].mean()),
        float(dataset.low_relevance[idx].mean()),
        float(correct.mean()),
    )


def _chunk_select_count(chunk_size: int, cfg: RunConfig) -> int:
    if chunk_size >= cfg.n_B:
        return cfg.n_b
    return max(1, int(round(cfg.n_b * chunk_size / cfg.n_B)))


def _run(train, test, cfg, model, il_values_fn, il_after_step) -> RunRecord:
    if train.n == 0:
        raise ValueError("training set is empty")
    if cfg.policy.kind in ("svp-entropy",):
        raise ValueError("offline policies pre-filter the pool; run them as uniform on the filtered subset")
    streams = np.random.SeedSequence(cfg.seed).spawn(4)
    perm_rng = np.random.default_rng(streams[0])
    tie_rng = np.random.default_rng(streams[1])
    policy_rng = np.random.default_rng(streams[2])
    dropout_rng = np.random.default_rng(streams[3])
    opt = make_optimizer(cfg.optimizer_kind, cfg.learning_rate, weight_decay=cfg.weight_decay)
    record = RunRecord(policy=cfg.policy.kind, seed=cfg.seed)
    dump = None
    step = 0
    epoch = 0
    try:
        if cfg.score_dump_path is not None:
            dump = open(cfg.score_dump_path, "w")
            dump.write("step,id,score,selected\n")
        for epoch in range(1, cfg.epochs + 1):
            perm = perm_rng.permutation(train.n)
            sel_total = 0
            sel_corrupted = 0
            sel_lowrel = 0
            sel_correct = 0
            for start in range(0, train.n, cfg.n_B):
                chunk = perm[start : start + cfg.n_B]
                x = train.features[chunk]
                y = train.labels[chunk]
                ids = train.ids[chunk]
                tie_seed = int(tie_rng.integers(0, 2**31 - 1))
                logits = forward(model, x, mode="eval", bn_stat_source="batch" if model.batchnorm else "running")
                losses = cross_entropy(logits, y)
                k = _chunk_select_count(chunk.size, cfg)
                scored = score_and_select(
                    cfg.policy, model, x, y, ids, losses, il_values_fn, k, tie_seed, policy_rng
                )
                sel = scored.selected_indices
                predictions = np.argmax(logits, axis=1)
                sel_total += sel.size
                sel_corrupted += int(train.corrupted[chunk[sel]].sum())
                sel_lowrel += int(train.low_relevance[chunk[sel]].sum())
                sel_correct += int((predictions[sel] == y[sel]).sum())
                grads = backward(
                    model,
                    x[sel],
                    y[sel],
                    mode="train",
                    bn_stat_source="batch" if model.batchnorm else "running",
                    rng=dropout_rng,
                    update_running=True,
                    sample_weights=scored.weights,
                )
                optimizer_step(opt, model, grads)
                il_after_step(x[sel], y[sel])
                if dump is not None:
                    picked = set(sel.tolist())
                    for j, ex_id in enumerate(ids):
                        dump.write(f"{step},{int(ex_id)},{float(scored.scores[j])!r},{int(j in picked)}\n")
                record.steps.append(
                    StepRow(step, epoch, tuple(int(i) for i in scored.selected_ids), float(scored.scores[sel].mean()))
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
    finally:
        if dump is not None:
            dump.close()
    return record


def run_training(
    train: LabeledDataset,
    test: LabeledDataset,
    il_table: IrreducibleLossTable | None,
    cfg: RunConfig,
    model: MlpModel,
) -> RunRecord:
    """Frozen-table mode: irreducible losses are looked up, never recomputed.

    The table must cover every training id when the policy consumes it; the
    table is read-only for the whole run. The model is trained in place.
    """
    if cfg.policy.needs_il:
        if il_table is None:
            raise ValueError(f"policy {cfg.policy.kind!r} needs an irreducible-loss table")
        if not il_table.covers(train.ids):
            missing = [int(i) for i in train.ids if int(i) not in il_table.values][:5]
            raise ValueError(f"irreducible-loss table does not cover the pool (e.g. ids {missing})")

    def il_values(ids, x, labels):
        return il_table.lookup(ids)

    return _run(train, test, cfg, model, il_values, lambda x, y: None)


def run_original_selection(
    train: LabeledDataset,
    test: LabeledDataset,
    il_model: MlpModel,
    cfg: RunConfig,
    model: MlpModel,
) -> RunRecord:
    """Live-model mode: the irreducible loss is recomputed each step from an
    IL model that takes one scaled-lr gradient step on every acquired batch.

    With il_lr_scale=0 the IL model's parameters never move, so the selected
    sets coincide step-for-step with frozen-table mode under shared seeds.
    """
    il_opt = make_optimizer(cfg.optimizer_kind, cfg.learning_rate, weight_decay=cfg.weight_decay)

    def il_values(ids, x, labels):
        return cross_entropy(forward(il_model, x), labels)

    def after_step(x, labels):
        update_il_model(il_model, il_opt, x, labels, lr_scale=cfg.il_lr_scale)

    return _run(train, test, cfg, model, il_values, after_step)
