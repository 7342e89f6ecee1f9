"""Independent reference implementations used to check the library.

Everything here is deliberately written with a different algorithm (explicit
loops, brute-force sorting, numerical differentiation) than the code under
test, so agreement is meaningful. The paired t-test is here because only the
tests use it. The dataset-cache and IL-table writers and readers here go
through the `csv` module with one `repr` per value, as the library did
before it moved those two formats to one `%` per row and `np.loadtxt`.
"""
from __future__ import annotations

import hashlib
import itertools
import math

import numpy as np
from scipy import stats as _scipy_stats

from rholoss import nn
from rholoss.data import LabeledDataset
from rholoss.records import read_table, write_table


def fd_gradients(model, x, y, mode="eval", bn_stat_source="running", seed=1234, h=1e-5):
    """Central finite differences of the mean cross-entropy w.r.t. every parameter.

    The same dropout mask seed is replayed for every evaluation so the loss
    is a deterministic function of the parameters.
    """

    def loss():
        rng = np.random.default_rng(seed)
        logits = nn.forward(model, x, mode=mode, bn_stat_source=bn_stat_source, rng=rng)
        return float(nn.cross_entropy(logits, y).mean())

    grads = {}
    for name, p in nn.parameters(model).items():
        g = np.zeros_like(p)
        flat = p.ravel()
        gflat = g.ravel()
        for k in range(flat.size):
            orig = flat[k]
            flat[k] = orig + h
            lp = loss()
            flat[k] = orig - h
            lm = loss()
            flat[k] = orig
            gflat[k] = (lp - lm) / (2.0 * h)
        grads[name] = g
    return grads


def max_rel_error(analytic: dict, numeric: dict, floor=1e-6) -> float:
    # The floor absorbs finite-difference roundoff (~1e-11) on components
    # whose true gradient is exactly zero, e.g. pre-batchnorm biases.
    worst = 0.0
    for name in analytic:
        a = analytic[name].ravel()
        n = numeric[name].ravel()
        for ak, nk in zip(a, n):
            denom = max(abs(ak), abs(nk), floor)
            worst = max(worst, abs(ak - nk) / denom)
    return worst


def grad_norm_oracle(model, x, y):
    """One example's gradient norm the long way: the full gradient dict from
    `nn.backward` on that row, in eval mode with running statistics, squared
    entry by entry."""
    x = np.asarray(x, dtype=np.float64).reshape(1, -1)
    grads = nn.backward(model, x, [int(y)], mode="eval", bn_stat_source="running")
    return math.sqrt(sum(float((g**2).sum()) for g in grads.values()))


def explicit_forward(weights, biases, x):
    """Plain-python MLP forward: nested loops, ReLU between hidden layers."""
    batch = [list(row) for row in x]
    n_layers = len(weights)
    for l, (w, b) in enumerate(zip(weights, biases)):
        out = []
        for row in batch:
            new = []
            for j in range(len(b)):
                acc = b[j]
                for i, v in enumerate(row):
                    acc += v * w[i][j]
                if l < n_layers - 1:
                    acc = max(acc, 0.0)
                new.append(acc)
            out.append(new)
        batch = out
    return np.asarray(batch)


def direct_cross_entropy(logits, labels):
    """log(sum(exp)) - logit[label], without max subtraction (oracle use only)."""
    out = []
    for row, y in zip(logits, labels):
        out.append(math.log(sum(math.exp(v) for v in row)) - row[y])
    return np.asarray(out)


def brute_ranks(x):
    """Average ranks by pairwise comparison, O(n^2)."""
    x = np.asarray(x, dtype=float)
    ranks = np.empty(x.size)
    for i, v in enumerate(x):
        below = int((x < v).sum())
        ties = int((x == v).sum())
        ranks[i] = below + (ties + 1) / 2.0
    return ranks


def brute_spearman(xs, ys):
    rx = brute_ranks(xs)
    ry = brute_ranks(ys)
    if np.std(rx) == 0 or np.std(ry) == 0:
        return None
    return float(np.corrcoef(rx, ry)[0, 1])


def paired_one_sided_t(a, b) -> tuple[float, float]:
    """One-sided paired t-test of the alternative mean(a) < mean(b).

    Returns (t, p). With zero variance in the differences the p-value
    degenerates to 0 or 1 depending on the sign of the mean difference.
    """
    d = np.asarray(a, dtype=np.float64) - np.asarray(b, dtype=np.float64)
    n = d.size
    if n < 2:
        raise ValueError("need at least 2 pairs")
    sd = d.std(ddof=1)
    if sd == 0.0:
        return (-np.inf if d.mean() < 0 else np.inf), (0.0 if d.mean() < 0 else 1.0)
    t = d.mean() / (sd / np.sqrt(n))
    p = float(_scipy_stats.t.cdf(t, df=n - 1))
    return float(t), p


def brute_top_k(scores, k, tie_seed):
    """Sort by (-score, position-in-shuffle) and take the first k indices."""
    scores = np.asarray(scores, dtype=float)
    perm = np.random.default_rng(tie_seed).permutation(scores.size)
    pos = np.empty(scores.size, dtype=int)
    pos[perm] = np.arange(scores.size)
    keyed = sorted(range(scores.size), key=lambda i: (-scores[i], pos[i]))
    return set(keyed[:k])


def successive_sampling_set_probs(scores, n_b, temperature=1.0):
    """Exact probability of each selected set (a sorted tuple) when n_b
    candidates are drawn one at a time without replacement, each with
    probability score**(1/T) renormalized over the candidates left; found by
    enumerating every ordered sequence of draws."""
    p = np.asarray(scores, dtype=float) ** (1.0 / temperature)
    sets: dict[tuple, float] = {}
    for order in itertools.permutations(range(p.size), n_b):
        prob, left = 1.0, p.sum()
        for i in order:
            prob *= p[i] / left
            left -= p[i]
        key = tuple(sorted(order))
        sets[key] = sets.get(key, 0.0) + prob
    return sets


def inverse_draw_weights(scores, idx, temperature=1.0):
    """The de-biasing weights of a selected set: 1 / (initial draw
    probability), normalized to mean 1."""
    p = np.asarray(scores, dtype=float) ** (1.0 / temperature)
    w = p.sum() / p[np.asarray(idx)]
    return w * (len(w) / w.sum())


class LoopOptimizer:
    """SGD/AdamW as one update per parameter array, with moment buffers keyed
    by parameter name: the per-parameter loop the fused flat step replaced."""

    def __init__(self, kind, learning_rate, weight_decay=0.0, beta1=0.9, beta2=0.999, eps=1e-8):
        self.kind = kind
        self.learning_rate = learning_rate
        self.weight_decay = weight_decay
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.exp_avg: dict = {}
        self.exp_avg_sq: dict = {}
        self.step_count = 0

    def step(self, model, grads):
        params = nn.parameters(model)
        if self.kind == "sgd":
            for name, p in params.items():
                p -= self.learning_rate * grads[name]
            self.step_count += 1
            return
        self.step_count += 1
        t = self.step_count
        bc1 = 1.0 - self.beta1**t
        bc2 = 1.0 - self.beta2**t
        for name, p in params.items():
            g = grads[name]
            if name not in self.exp_avg:
                self.exp_avg[name] = np.zeros_like(p)
                self.exp_avg_sq[name] = np.zeros_like(p)
            m = self.exp_avg[name]
            v = self.exp_avg_sq[name]
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * g * g
            if self.weight_decay != 0.0:
                p -= self.learning_rate * self.weight_decay * p
            p -= self.learning_rate * (m / bc1) / (np.sqrt(v / bc2) + self.eps)


def train_members_one_at_a_time(models, loop_opts, x, y, budget_epochs, tol, batch_size, rngs):
    """Each ordinary model trained to convergence on its own, one after the
    other, with its own `LoopOptimizer` and generator: what lockstep training
    of their stack must reproduce. Full shuffled passes in minibatches until
    the relative improvement of the mean loss drops below tol, capped at
    budget_epochs."""
    for model, opt, rng in zip(models, loop_opts, rngs):
        if budget_epochs == 0 or len(x) == 0:
            continue

        def mean_loss():
            return float(nn.cross_entropy(nn.forward(model, x), y).mean())

        prev = mean_loss()
        for _ in range(budget_epochs):
            perm = rng.permutation(len(x))
            for start in range(0, len(x), batch_size):
                idx = perm[start : start + batch_size]
                opt.step(model, nn.backward(model, x[idx], y[idx]))
            cur = mean_loss()
            if prev - cur < tol * max(prev, 1e-12):
                break
            prev = cur


# (CSV column, LabeledDataset field, dtype) of the dataset cache's integer columns
_CACHE_FLAGS = (
    ("id", "ids", np.int64),
    ("label", "labels", np.int64),
    ("original_label", "original_labels", np.int64),
    ("corrupted", "corrupted", bool),
    ("low_relevance", "low_relevance", bool),
    ("duplicate_of", "duplicate_of", np.int64),
)


def save_dataset_csv_oracle(ds, path, **provenance):
    """The dataset cache through csv.writer, one repr per feature."""
    flags = np.stack([getattr(ds, field) for _, field, _ in _CACHE_FLAGS], axis=1).astype(np.int64)
    rows = (f + [repr(v) for v in x] for f, x in zip(flags.tolist(), ds.features.tolist()))
    write_table(
        path,
        "dataset",
        {"classes": ds.num_classes, "n": ds.n, "d": ds.dim, **provenance},
        [*(column for column, _, _ in _CACHE_FLAGS), *(f"feature_{j}" for j in range(ds.dim))],
        rows,
    )


def load_dataset_csv_oracle(path):
    """The dataset cache through csv.reader, one string per cell."""
    meta, rows = read_table(path, "dataset")
    n, d, k = int(meta["n"]), int(meta["d"]), len(_CACHE_FLAGS)
    assert len(rows) == n and all(len(row) == k + d for row in rows)
    flags = np.array([row[:k] for row in rows], dtype=np.int64).reshape(n, k)
    features = np.array([row[k:] for row in rows], dtype=np.float64).reshape(n, d)
    return LabeledDataset(
        features=features,
        num_classes=int(meta["classes"]),
        **{field: flags[:, j].astype(dtype) for j, (_, field, dtype) in enumerate(_CACHE_FLAGS)},
    )


def il_content_hash_oracle(values: dict, scheme: str) -> str:
    """The IL table's provenance hash over an id -> value dict, one update per id."""
    h = hashlib.sha256()
    for ex_id in sorted(values):
        h.update(f"{ex_id}:{values[ex_id]!r};".encode())
    h.update(scheme.encode())
    return h.hexdigest()


def save_il_table_oracle(values: dict, scheme: str, path, **built_from):
    """The IL table of an id -> value dict through csv.writer."""
    write_table(
        path,
        "il-table",
        {**built_from, "provenance": il_content_hash_oracle(values, scheme), "scheme": scheme},
        ["id", "il_value"],
        ([ex_id, repr(values[ex_id])] for ex_id in sorted(values)),
    )
