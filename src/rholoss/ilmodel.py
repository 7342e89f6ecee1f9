"""Irreducible-loss models and tables.

An irreducible-loss (IL) model is trained only on data the target model will
never train on (a holdout set, or the opposite half of the pool in the
no-holdout two-halves scheme). Its per-example loss on the training pool is
cached once as a table; the reducible-loss score of a candidate is then its
current training loss minus this cached value. The difference may be
negative, and nothing here clamps it.
"""
from __future__ import annotations

import csv
import hashlib
from dataclasses import dataclass, field

import numpy as np

from .data import LabeledDataset, dataset_hash
from .nn import MlpModel, backward, clone_model, cross_entropy, forward, init_mlp, model_id
from .optim import OptimizerState, make_optimizer, optimizer_step


@dataclass
class CheckpointLog:
    """Per-epoch validation trace of an IL training run."""

    val_losses: list[float] = field(default_factory=list)
    val_accuracies: list[float] = field(default_factory=list)

    @property
    def selected_epoch(self) -> int:
        """Index (0-based) of the minimum validation loss."""
        if not self.val_losses:
            raise ValueError("empty checkpoint log")
        return int(np.argmin(self.val_losses))


@dataclass
class IrreducibleLossTable:
    values: dict[int, float]
    scheme: str = "holdout"  # "holdout" | "two-halves"
    provenance: str = ""
    producers: dict[int, str] | None = None  # two-halves: example id -> producing model id

    def lookup(self, ids) -> np.ndarray:
        values = self.values
        try:
            return np.array([values[i] for i in np.asarray(ids).tolist()], dtype=np.float64)
        except KeyError as exc:
            raise KeyError(f"example id {exc.args[0]} missing from irreducible-loss table") from None

    def covers(self, ids) -> bool:
        return self.values.keys() >= set(np.asarray(ids).tolist())

    def content_hash(self) -> str:
        h = hashlib.sha256()
        for ex_id in sorted(self.values):
            h.update(f"{ex_id}:{self.values[ex_id]!r};".encode())
        h.update(self.scheme.encode())
        return h.hexdigest()


def _eval_loss_acc(model: MlpModel, ds: LabeledDataset, batch_size: int) -> tuple[float, float]:
    losses = np.empty(ds.n)
    correct = 0
    for start in range(0, ds.n, batch_size):
        stop = min(start + batch_size, ds.n)
        logits = forward(model, ds.features[start:stop])
        losses[start:stop] = cross_entropy(logits, ds.labels[start:stop])
        correct += int((np.argmax(logits, axis=1) == ds.labels[start:stop]).sum())
    return float(losses.mean()), correct / ds.n


def train_il_model(
    holdout: LabeledDataset,
    validation: LabeledDataset,
    hidden=(128, 128),
    epochs: int = 20,
    optimizer_kind: str = "adamw",
    learning_rate: float = 1e-3,
    weight_decay: float = 0.01,
    batch_size: int = 64,
    dropout_rate: float = 0.0,
    seed: int = 0,
) -> tuple[MlpModel, CheckpointLog]:
    """Train on the holdout set with uniform shuffled batches and return the
    checkpoint with the lowest loss on the validation set.

    The validation set should be the pool whose irreducible losses will be
    computed, and the minimum-loss (not maximum-accuracy) epoch is kept.
    """
    if epochs < 1:
        raise ValueError(f"epochs must be >= 1, got {epochs}")
    if holdout.n == 0:
        raise ValueError("holdout set is empty")
    sizes = (holdout.dim, *hidden, holdout.num_classes)
    model = init_mlp(sizes, seed=seed, dropout_rate=dropout_rate)
    opt = make_optimizer(optimizer_kind, learning_rate, weight_decay=weight_decay)
    rng = np.random.default_rng(np.random.SeedSequence([seed, 1]))
    log = CheckpointLog()
    best: MlpModel | None = None
    best_loss = np.inf
    for _ in range(epochs):
        perm = rng.permutation(holdout.n)
        for start in range(0, holdout.n, batch_size):
            idx = perm[start : start + batch_size]
            grads = backward(
                model,
                holdout.features[idx],
                holdout.labels[idx],
                mode="train",
                bn_stat_source="batch",
                rng=rng,
                update_running=True,
            )
            optimizer_step(opt, model, grads)
        val_loss, val_acc = _eval_loss_acc(model, validation, batch_size=1024)
        log.val_losses.append(val_loss)
        log.val_accuracies.append(val_acc)
        if val_loss < best_loss:
            best_loss = val_loss
            best = clone_model(model)
    assert best is not None
    return best, log


def compute_il_table(il_model: MlpModel, pool: LabeledDataset, batch_size: int = 512) -> IrreducibleLossTable:
    """Per-example loss of the IL model over the pool, keyed by example id.

    Always evaluated in eval mode with running batch statistics, on the raw
    (un-augmented) inputs, so the table is deterministic for a given model.
    """
    values: dict[int, float] = {}
    for start in range(0, pool.n, batch_size):
        stop = min(start + batch_size, pool.n)
        losses = cross_entropy(forward(il_model, pool.features[start:stop]), pool.labels[start:stop])
        for ex_id, loss in zip(pool.ids[start:stop], losses):
            values[int(ex_id)] = float(loss)
    return IrreducibleLossTable(
        values=values,
        scheme="holdout",
        provenance=f"{model_id(il_model)}:{dataset_hash(pool)[:16]}",
    )


def _two_halves_parts(
    half_a: LabeledDataset,
    half_b: LabeledDataset,
    hidden=(128, 128),
    epochs: int = 20,
    optimizer_kind: str = "adamw",
    learning_rate: float = 1e-3,
    weight_decay: float = 0.01,
    batch_size: int = 64,
    seed: int = 0,
):
    if set(half_a.ids.tolist()) & set(half_b.ids.tolist()):
        raise ValueError("two-halves scheme requires disjoint halves")
    seeds = np.random.SeedSequence(seed).generate_state(2)
    common = dict(
        hidden=hidden,
        epochs=epochs,
        optimizer_kind=optimizer_kind,
        learning_rate=learning_rate,
        weight_decay=weight_decay,
        batch_size=batch_size,
    )
    model_a, log_a = train_il_model(half_a, validation=half_b, seed=int(seeds[0]), **common)
    model_b, log_b = train_il_model(half_b, validation=half_a, seed=int(seeds[1]), **common)
    table_b = compute_il_table(model_a, half_b)
    table_a = compute_il_table(model_b, half_a)
    id_a, id_b = model_id(model_a), model_id(model_b)
    values = {**table_b.values, **table_a.values}
    producers = {ex_id: id_a for ex_id in table_b.values}
    producers.update({ex_id: id_b for ex_id in table_a.values})
    merged = IrreducibleLossTable(
        values=values,
        scheme="two-halves",
        provenance=f"{id_a}+{id_b}",
        producers=producers,
    )
    return merged, model_a, model_b, log_a, log_b


def compute_il_table_two_halves(half_a: LabeledDataset, half_b: LabeledDataset, **kwargs) -> IrreducibleLossTable:
    """No-holdout scheme: each half is scored by the model trained on the other.

    The merged table covers the union of both halves, and its producers map
    records which model scored each id (no example is ever scored by the
    model trained on its own half).
    """
    table, *_ = _two_halves_parts(half_a, half_b, **kwargs)
    return table


def update_il_model(
    il_model: MlpModel,
    opt_state: OptimizerState,
    x,
    labels,
    lr_scale: float = 0.01,
    rng: np.random.Generator | None = None,
):
    """One optimizer step on an acquired batch at a scaled-down learning rate.

    Used only when the selection score is recomputed from a live IL model; a
    scale of 0 leaves the parameters untouched.
    """
    grads = backward(il_model, x, labels, mode="train", bn_stat_source="batch", rng=rng, update_running=True)
    base_lr = opt_state.learning_rate
    opt_state.learning_rate = base_lr * lr_scale
    try:
        optimizer_step(opt_state, il_model, grads)
    finally:
        opt_state.learning_rate = base_lr
    return il_model, opt_state


def il_table_path(directory, ds_hash: str, il_model_id: str) -> str:
    """Cache location keyed by (dataset hash, model id)."""
    return f"{directory}/il_{ds_hash[:12]}_{il_model_id[:12]}.csv"


def save_il_table(table: IrreducibleLossTable, path) -> None:
    with open(path, "w", newline="") as f:
        f.write(f"# rholoss-il-table v1 provenance={table.content_hash()} scheme={table.scheme}\n")
        writer = csv.writer(f)
        writer.writerow(["id", "il_value"])
        for ex_id in sorted(table.values):
            writer.writerow([ex_id, repr(table.values[ex_id])])


def load_il_table(path) -> IrreducibleLossTable:
    with open(path, newline="") as f:
        header = f.readline()
        if not header.startswith("# rholoss-il-table"):
            raise ValueError(f"{path}: not an irreducible-loss table file")
        meta = dict(part.split("=", 1) for part in header.split()[3:])
        reader = csv.reader(f)
        next(reader)
        values = {int(row[0]): float(row[1]) for row in reader}
    table = IrreducibleLossTable(values=values, scheme=meta.get("scheme", "holdout"), provenance="")
    stored = meta.get("provenance", "")
    if stored and stored != table.content_hash():
        raise ValueError(f"{path}: provenance hash mismatch, file may be corrupt")
    return table
