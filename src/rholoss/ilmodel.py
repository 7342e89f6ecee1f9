"""Irreducible-loss models and tables.

An irreducible-loss (IL) model is trained only on data the target model will
never train on (a holdout set, or the opposite half of the pool in the
no-holdout two-halves scheme). Its per-example loss on the training pool is
cached once as a table; the reducible-loss score of a candidate is then its
current training loss minus this cached value. The difference may be
negative, and nothing here clamps it.
"""
from __future__ import annotations

import copy
import hashlib
from dataclasses import dataclass, field

import numpy as np

from .config import IlSection, OptimizerSettings
from .data import LabeledDataset
from .nn import MlpModel, batched_logits, cross_entropy, diverging_at, evaluate, init_mlp
from .optim import OptimizerState, make_optimizer, train_epoch, train_step
from .records import read_numeric_header, read_numeric_rows, write_numeric_table


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
    """The irreducible loss values[i] of example ids[i]. Construction sorts
    the pairs by id, so lookups are binary searches over ids."""

    ids: np.ndarray  # (n,) int64, ascending and unique
    values: np.ndarray  # (n,) float64
    scheme: str = "holdout"  # "holdout" | "two-halves"

    def __post_init__(self):
        ids = np.asarray(self.ids, dtype=np.int64)
        values = np.asarray(self.values, dtype=np.float64)
        if ids.ndim != 1 or values.shape != ids.shape:
            raise ValueError(f"ids and values must be matching 1-D arrays, got {ids.shape} and {values.shape}")
        order = np.argsort(ids, kind="stable")
        self.ids, self.values = ids[order], values[order]
        repeated = self.ids[1:][self.ids[1:] == self.ids[:-1]]
        if repeated.size:
            raise ValueError(f"example id {repeated[0]} appears twice in the irreducible-loss table")

    def _positions(self, ids) -> tuple[np.ndarray, np.ndarray]:
        """(where each of ids sits in self.ids, whether it is there)."""
        ids = np.asarray(ids)
        at = np.searchsorted(self.ids, ids)
        if not self.ids.size:
            return at, np.zeros(ids.shape, dtype=bool)
        return at, self.ids.take(at, mode="clip") == ids

    def lookup(self, ids) -> np.ndarray:
        at, found = self._positions(ids)
        if not found.all():
            raise KeyError(f"example id {np.asarray(ids)[~found][0]} missing from irreducible-loss table")
        return self.values[at]

    def covers(self, ids) -> bool:
        return bool(self._positions(ids)[1].all())

    def content_hash(self) -> str:
        rows = "".join(map("%d:%r;".__mod__, zip(self.ids.tolist(), self.values.tolist())))
        return hashlib.sha256((rows + self.scheme).encode()).hexdigest()


def train_il_model(
    holdout: LabeledDataset,
    validation: LabeledDataset,
    hidden=IlSection.hidden,
    epochs: int = IlSection.epochs,
    optimizer_kind: str = OptimizerSettings.kind,
    learning_rate: float = OptimizerSettings.learning_rate,
    weight_decay: float = OptimizerSettings.weight_decay,
    batch_size: int = IlSection.batch_size,
    dropout_rate: float = IlSection.dropout,
    seed: int = IlSection.seed,
) -> tuple[MlpModel, CheckpointLog]:
    """Train on the holdout set with uniform shuffled batches and return the
    checkpoint with the lowest loss on the validation set.

    The validation set should be the pool whose irreducible losses will be
    computed, and the minimum-loss (not maximum-accuracy) epoch is kept. A
    fit that diverges names its epoch (1-based) in the error.
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
    for epoch in range(1, epochs + 1):
        with diverging_at(f"epoch {epoch}"):
            train_epoch(model, opt, holdout.features, holdout.labels, batch_size, rng)
            val_acc, val_loss = evaluate(model, validation)
        log.val_losses.append(val_loss)
        log.val_accuracies.append(val_acc)
        if val_loss < best_loss:
            best_loss = val_loss
            best = copy.deepcopy(model)
    assert best is not None
    return best, log


def compute_il_table(il_model: MlpModel, pool: LabeledDataset, batch_size: int = 512) -> IrreducibleLossTable:
    """Per-example loss of the IL model over the pool, keyed by example id.

    Always evaluated in eval mode with running batch statistics, on the raw
    (un-augmented) inputs, so the table is deterministic for a given model.
    """
    losses = cross_entropy(batched_logits(il_model, pool.features, batch_size), pool.labels)
    return IrreducibleLossTable(pool.ids, losses, scheme="holdout")


def train_il_two_halves(half_a: LabeledDataset, half_b: LabeledDataset, seed: int = 0, **train_kwargs):
    """No-holdout scheme: each half is scored by the model trained on the other.

    Returns (table, model_a, model_b, log_a, log_b), where model_a trained on
    half_a; train_kwargs go to train_il_model. The merged table covers the
    union of both halves, and no example is ever scored by the model trained
    on its own half.
    """
    if set(half_a.ids.tolist()) & set(half_b.ids.tolist()):
        raise ValueError("two-halves scheme requires disjoint halves")
    seeds = np.random.SeedSequence(seed).generate_state(2)
    with diverging_at("half a"):
        model_a, log_a = train_il_model(half_a, validation=half_b, seed=int(seeds[0]), **train_kwargs)
    with diverging_at("half b"):
        model_b, log_b = train_il_model(half_b, validation=half_a, seed=int(seeds[1]), **train_kwargs)
    table_b = compute_il_table(model_a, half_b)
    table_a = compute_il_table(model_b, half_a)
    merged = IrreducibleLossTable(
        np.concatenate([table_b.ids, table_a.ids]),
        np.concatenate([table_b.values, table_a.values]),
        scheme="two-halves",
    )
    return merged, model_a, model_b, log_a, log_b


def update_il_model(il_model: MlpModel, opt_state: OptimizerState, x, labels, rng: np.random.Generator | None = None):
    """One `train_step` of a live IL model on an acquired batch.

    The scaled-down learning rate lives in opt_state, which the caller builds
    at the target's rate times `run.lr_scale`; a rate of 0 leaves the
    parameters untouched.
    """
    train_step(il_model, opt_state, x, labels, rng)
    return il_model, opt_state


def save_il_table(table: IrreducibleLossTable, path, **provenance: str) -> None:
    """The table as a headed table of numbers, one id,il_value row per id in
    ascending order; provenance (train-il passes built_from=...) leads the
    header fields."""
    meta = {**provenance, "provenance": table.content_hash(), "scheme": table.scheme}
    write_numeric_table(path, "il-table", meta, ["id", "il_value"], table.ids[:, None], table.values[:, None])


def load_il_table(path) -> IrreducibleLossTable:
    with open(path, "rb") as f:
        provenance, scheme = read_numeric_header(f, "il-table", path, "provenance", "scheme")
        ids, values = read_numeric_rows(f, path, 1, 1)
    table = IrreducibleLossTable(ids[:, 0], values[:, 0], scheme=scheme)
    if provenance != table.content_hash():
        raise ValueError(f"{path}: provenance hash mismatch, file may be corrupt")
    return table
