"""Dataset construction and mutation: IDX loading, synthetic clusters, splits,
label-noise injection, relevance skew, duplication, and a CSV cache format.

All operations are pure: they return new datasets and never modify their
inputs. Every dataset carries per-example bookkeeping (original label,
corrupted / low-relevance flags, duplicate-of pointer) so that selection
behaviour can be audited after the fact.
"""
from __future__ import annotations

import gzip
import hashlib
import math
import struct
from dataclasses import dataclass, replace

import numpy as np

from .records import read_numeric_header, read_numeric_rows, write_numeric_table

_IDX_IMAGES_MAGIC = 0x00000803
_IDX_LABELS_MAGIC = 0x00000801


# The per-example arrays of a LabeledDataset, in field order.
_PER_EXAMPLE = ("features", "labels", "ids", "original_labels", "corrupted", "low_relevance", "duplicate_of")


class IdxFormatError(ValueError):
    """Raised for malformed IDX files: bad magic, truncation, count mismatch."""


@dataclass
class LabeledDataset:
    features: np.ndarray  # (n, d) float64
    labels: np.ndarray  # (n,) int64
    num_classes: int
    ids: np.ndarray  # (n,) int64, unique
    original_labels: np.ndarray  # (n,) int64
    corrupted: np.ndarray  # (n,) bool
    low_relevance: np.ndarray  # (n,) bool
    duplicate_of: np.ndarray  # (n,) int64; -1 marks an original example

    def __post_init__(self):
        n = self.features.shape[0]
        for name in _PER_EXAMPLE[1:]:
            arr = getattr(self, name)
            if arr.shape != (n,):
                raise ValueError(f"{name} must have shape ({n},), got {arr.shape}")
        if n:
            if self.labels.min() < 0 or self.labels.max() >= self.num_classes:
                raise ValueError("labels out of range")
            if np.unique(self.ids).size != n:
                raise ValueError("example ids must be unique")
            if not np.array_equal(self.corrupted, self.labels != self.original_labels):
                raise ValueError("corrupted flag must hold exactly where label != original label")

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def dim(self) -> int:
        return self.features.shape[1]


def make_dataset(features, labels, num_classes: int, ids=None) -> LabeledDataset:
    """Wrap raw arrays into a dataset with clean metadata."""
    features = np.asarray(features, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64).ravel()
    n = features.shape[0]
    if ids is None:
        ids = np.arange(n, dtype=np.int64)
    else:
        ids = np.asarray(ids, dtype=np.int64).ravel()
    return LabeledDataset(
        features=features,
        labels=labels,
        num_classes=int(num_classes),
        ids=ids,
        original_labels=labels.copy(),
        corrupted=np.zeros(n, dtype=bool),
        low_relevance=np.zeros(n, dtype=bool),
        duplicate_of=np.full(n, -1, dtype=np.int64),
    )


def _rows(ds: LabeledDataset, idx) -> dict[str, np.ndarray]:
    """Every per-example array of ds at the positions idx, as copies."""
    idx = np.asarray(idx, dtype=np.int64)
    return {name: getattr(ds, name)[idx] for name in _PER_EXAMPLE}


def take(ds: LabeledDataset, idx) -> LabeledDataset:
    """Row subset preserving ids and flags."""
    return replace(ds, **_rows(ds, idx))


def _open_maybe_gzip(path):
    with open(path, "rb") as f:
        head = f.read(2)
    if head == b"\x1f\x8b":
        return gzip.open(path, "rb")
    return open(path, "rb")


def _read_exact(f, count: int, path) -> bytes:
    data = f.read(count)
    if len(data) != count:
        raise IdxFormatError(f"{path}: truncated file, wanted {count} bytes, got {len(data)}")
    return data


def load_idx(images_path, labels_path) -> LabeledDataset:
    """Load a big-endian IDX image/label pair; pixels are scaled to [0, 1].

    Transparent gzip support (sniffed from the file header, not the name).
    """
    with _open_maybe_gzip(images_path) as f:
        magic, n_images, rows, cols = struct.unpack(">IIII", _read_exact(f, 16, images_path))
        if magic != _IDX_IMAGES_MAGIC:
            raise IdxFormatError(f"{images_path}: bad magic {magic:#010x}, expected {_IDX_IMAGES_MAGIC:#010x}")
        pixels = np.frombuffer(_read_exact(f, n_images * rows * cols, images_path), dtype=np.uint8)
    with _open_maybe_gzip(labels_path) as f:
        magic, n_labels = struct.unpack(">II", _read_exact(f, 8, labels_path))
        if magic != _IDX_LABELS_MAGIC:
            raise IdxFormatError(f"{labels_path}: bad magic {magic:#010x}, expected {_IDX_LABELS_MAGIC:#010x}")
        labels = np.frombuffer(_read_exact(f, n_labels, labels_path), dtype=np.uint8)
    if n_images != n_labels:
        raise IdxFormatError(f"count mismatch: {n_images} images vs {n_labels} labels")
    features = pixels.reshape(n_images, rows * cols).astype(np.float64) / 255.0
    n_classes = int(labels.max()) + 1 if n_labels else 0
    return make_dataset(features, labels.astype(np.int64), n_classes)


def gen_synthetic(
    classes: int,
    per_class: int,
    dim: int,
    spread: float,
    seed: int = 0,
    radius: float = 1.0,
) -> LabeledDataset:
    """Isotropic Gaussian clusters, one per class, means drawn on a seeded sphere."""
    if classes < 2:
        raise ValueError(f"need >= 2 classes, got {classes}")
    if per_class < 1:
        raise ValueError(f"need >= 1 example per class, got {per_class}")
    if spread <= 0:
        raise ValueError(f"cluster spread must be > 0, got {spread}")
    rng = np.random.default_rng(seed)
    dirs = rng.standard_normal((classes, dim))
    norms = np.linalg.norm(dirs, axis=1, keepdims=True)
    norms[norms == 0] = 1.0
    means = radius * dirs / norms
    features = np.repeat(means, per_class, axis=0) + spread * rng.standard_normal((classes * per_class, dim))
    labels = np.repeat(np.arange(classes, dtype=np.int64), per_class)
    return make_dataset(features, labels, classes)


def _shuffle_and_cut(ds: LabeledDataset, seed: int, cut: int) -> tuple[LabeledDataset, LabeledDataset]:
    """The first cut rows of a seeded shuffle of ds, then the rest, each in ds's row order."""
    if ds.n < 2:
        raise ValueError("need at least 2 examples to split")
    perm = np.random.default_rng(seed).permutation(ds.n)
    return take(ds, np.sort(perm[:cut])), take(ds, np.sort(perm[cut:]))


def split(ds: LabeledDataset, fraction: float, seed: int) -> tuple[LabeledDataset, LabeledDataset]:
    """(rest, held): a seeded partition that holds out round(fraction * n)
    rows, at least one and at most n - 1."""
    if not 0.0 < fraction < 1.0:
        raise ValueError(f"holdout fraction must lie in (0, 1), got {fraction}")
    held, rest = _shuffle_and_cut(ds, seed, min(max(int(round(fraction * ds.n)), 1), ds.n - 1))
    return rest, held


def halves(ds: LabeledDataset, seed: int) -> tuple[LabeledDataset, LabeledDataset]:
    """The two halves of the two-halves IL scheme: the first n // 2 rows of a
    seeded shuffle, then the rest."""
    return _shuffle_and_cut(ds, seed, ds.n // 2)


def inject_uniform_noise(ds: LabeledDataset, p: float, seed: int = 0) -> LabeledDataset:
    """Flip each label with probability p to a uniformly random *different* class.

    Same-label "flips" are excluded, so p is exactly the expected corruption
    rate. Original labels are preserved and the corrupted flag is recomputed.
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"noise probability must lie in [0, 1], got {p}")
    rng = np.random.default_rng(seed)
    labels = ds.labels.copy()
    flip = rng.random(ds.n) < p
    offsets = rng.integers(1, ds.num_classes, size=ds.n)
    labels[flip] = (labels[flip] + offsets[flip]) % ds.num_classes
    return replace(
        ds,
        features=ds.features.copy(),
        labels=labels,
        corrupted=labels != ds.original_labels,
    )


def confusion_counts(true_labels, predicted_labels, num_classes: int) -> np.ndarray:
    """Count matrix with true labels on rows, predictions on columns."""
    t = np.asarray(true_labels, dtype=np.int64)
    p = np.asarray(predicted_labels, dtype=np.int64)
    m = np.zeros((num_classes, num_classes), dtype=np.int64)
    np.add.at(m, (t, p), 1)
    return m


def most_confused_pairs(confusion: np.ndarray, k: int) -> list[tuple[int, int]]:
    """The k ordered (source, target) class pairs with largest off-diagonal counts.

    Ties are broken by (source, target) index for determinism.
    """
    c = np.asarray(confusion)
    if c.ndim != 2 or c.shape[0] != c.shape[1]:
        raise ValueError(f"confusion matrix must be square, got shape {c.shape}")
    entries = [
        (int(c[i, j]), i, j)
        for i in range(c.shape[0])
        for j in range(c.shape[1])
        if i != j and c[i, j] > 0
    ]
    if k > len(entries):
        raise ValueError(f"asked for {k} confused pairs but only {len(entries)} nonzero off-diagonal entries exist")
    entries.sort(key=lambda e: (-e[0], e[1], e[2]))
    return [(i, j) for _, i, j in entries[:k]]


def inject_structured_noise(
    ds: LabeledDataset,
    confusion: np.ndarray,
    pairs: int,
    flip_prob: float,
    seed: int = 0,
) -> LabeledDataset:
    """Flip labels along the most confused class directions.

    For each of the top `pairs` ordered (source -> target) confusion pairs,
    every example labelled source flips to target with probability flip_prob.
    An example is considered by at most one pair (the highest-ranked one
    matching its label).
    """
    if not 0.0 <= flip_prob <= 1.0:
        raise ValueError(f"flip probability must lie in [0, 1], got {flip_prob}")
    selected = most_confused_pairs(confusion, pairs)
    target_for = np.full(max(ds.num_classes, np.shape(confusion)[0]), -1, dtype=np.int64)
    for src, tgt in reversed(selected):  # the highest-ranked pair of a source wins
        target_for[src] = tgt
    rng = np.random.default_rng(seed)
    draws = rng.random(ds.n)
    targets = target_for[ds.labels]
    flip = (targets >= 0) & (draws < flip_prob)
    labels = np.where(flip, targets, ds.labels)
    return replace(
        ds,
        features=ds.features.copy(),
        labels=labels,
        corrupted=labels != ds.original_labels,
    )


def make_relevance_skew(
    ds: LabeledDataset,
    high_frac: float = 0.2,
    keep_frac: float = 0.06,
    seed: int = 0,
) -> LabeledDataset:
    """Keep a random fifth (by default) of classes whole; subsample the rest.

    Surviving examples of subsampled classes get the low-relevance flag. The
    per-class kept count is round(keep_frac * count); an empty class is an
    error since the dataset would no longer cover all labels.
    """
    n_high = math.ceil(high_frac * ds.num_classes)
    if n_high < 1:
        raise ValueError("high_frac too small: no high-relevance class would remain")
    rng = np.random.default_rng(seed)
    high_classes = set(rng.choice(ds.num_classes, size=n_high, replace=False).tolist())
    keep_idx: list[np.ndarray] = []
    low_ids: list[np.ndarray] = []
    for c in range(ds.num_classes):
        members = np.flatnonzero(ds.labels == c)
        if c in high_classes:
            keep_idx.append(members)
            continue
        n_keep = int(round(keep_frac * members.size))
        if n_keep < 1:
            raise ValueError(f"keep_frac {keep_frac} empties class {c} ({members.size} examples)")
        kept = members[np.sort(rng.choice(members.size, size=n_keep, replace=False))]
        keep_idx.append(kept)
        low_ids.append(ds.ids[kept])
    out = take(ds, np.sort(np.concatenate(keep_idx)))
    low = np.concatenate(low_ids) if low_ids else np.empty(0, dtype=np.int64)
    return replace(out, low_relevance=np.isin(out.ids, low))


def duplicate(ds: LabeledDataset, factor: int) -> LabeledDataset:
    """Repeat every example `factor` times; copies get fresh ids and a
    duplicate-of pointer back to the original."""
    if factor < 1 or int(factor) != factor:
        raise ValueError(f"duplication factor must be a positive integer, got {factor}")
    next_id = int(ds.ids.max()) + 1 if ds.n else 0
    rep = np.repeat(np.arange(ds.n), int(factor) - 1)
    rows = _rows(ds, np.concatenate([np.arange(ds.n), rep]))
    rows["ids"] = np.concatenate([ds.ids, next_id + np.arange(rep.size, dtype=np.int64)])
    rows["duplicate_of"] = np.concatenate([ds.duplicate_of, ds.ids[rep]])
    return replace(ds, **rows)


def dataset_hash(ds: LabeledDataset) -> str:
    """Content hash used to key cached irreducible-loss tables."""
    h = hashlib.sha256()
    h.update(f"{ds.n},{ds.dim},{ds.num_classes}".encode())
    for name in _PER_EXAMPLE:
        h.update(np.ascontiguousarray(getattr(ds, name)).tobytes())
    return h.hexdigest()


# (CSV column, LabeledDataset field, dtype) of the cache's leading integer columns
_FLAG_COLUMNS = (
    ("id", "ids", np.int64),
    ("label", "labels", np.int64),
    ("original_label", "original_labels", np.int64),
    ("corrupted", "corrupted", bool),
    ("low_relevance", "low_relevance", bool),
    ("duplicate_of", "duplicate_of", np.int64),
)
_COUNTS = ("classes", "n", "d")  # the cache header's own fields


def save_dataset_csv(ds: LabeledDataset, path, **provenance) -> None:
    """Cache format: one row per example,
    id,label,original_label,corrupted,low_relevance,duplicate_of,feature_0..d-1.

    provenance keywords (prepare passes built_from=... and seed=...) are
    appended to the header line as extra key=value fields."""
    write_numeric_table(
        path,
        "dataset",
        {"classes": ds.num_classes, "n": ds.n, "d": ds.dim, **provenance},
        [*(column for column, _, _ in _FLAG_COLUMNS), *(f"feature_{j}" for j in range(ds.dim))],
        np.stack([getattr(ds, field) for _, field, _ in _FLAG_COLUMNS], axis=1, dtype=np.int64),
        ds.features,
    )


def load_dataset_csv(path) -> LabeledDataset:
    """A dataset from a file save_dataset_csv wrote, or any file in its
    format. Refused, naming the file: another tag, a header without classes,
    n or d (or with a non-integer one), a row that is not 6 integers then d
    floats, a row count other than n, and a non-finite feature."""
    with open(path, "rb") as f:
        counts = dict(zip(_COUNTS, read_numeric_header(f, "dataset", path, *_COUNTS)))
        bad = [f"{key}={value}" for key, value in counts.items() if not (value.isascii() and value.isdigit())]
        if bad:
            raise ValueError(f"{path}: header counts must be non-negative integers, got {' '.join(bad)}")
        classes, n, d = map(int, counts.values())
        flags, features = read_numeric_rows(f, path, len(_FLAG_COLUMNS), d)
    if len(flags) != n:
        raise ValueError(f"{path}: expected {n} rows, found {len(flags)}")
    finite = np.isfinite(features).all(axis=1)
    if not finite.all():
        row = int(np.argmin(finite))
        raise ValueError(f"{path}: row {row + 1} (id {flags[row, 0]}) has a non-finite feature")
    return LabeledDataset(
        features=features,
        num_classes=classes,
        **{field: flags[:, j].astype(dtype) for j, (_, field, dtype) in enumerate(_FLAG_COLUMNS)},
    )
