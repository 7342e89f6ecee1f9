"""Independent reference implementations used to check the library.

Everything here is deliberately written with a different algorithm (explicit
loops, brute-force sorting, numerical differentiation) than the code under
test, so agreement is meaningful. The paired t-test and `read_table` are here
because only the tests use them. The dataset-cache and IL-table writers and
readers here go through the `csv` module with one `repr` per value, as the
library did before it moved those two formats to one `%` per row and
`np.loadtxt`.
"""
from __future__ import annotations

import copy
import csv
import hashlib
import itertools
import math

import numpy as np
from scipy import stats as _scipy_stats

from rholoss import nn
from rholoss.data import LabeledDataset
from rholoss.ladder import RUNGS
from rholoss.records import read_header, write_table
from rholoss.selection import candidate_chunks, select_top_k


def fd_gradients(model, x, y, mode="eval", bn_stat_source="running", seed=1234, h=1e-5):
    """Central finite differences of the mean cross-entropy w.r.t. every
    parameter, one element of model.params at a time, as a vector laid out
    like it.

    The same dropout mask seed is replayed for every evaluation so the loss
    is a deterministic function of the parameters.
    """

    def loss():
        rng = np.random.default_rng(seed)
        logits = nn.forward(model, x, mode=mode, bn_stat_source=bn_stat_source, rng=rng)
        return float(nn.cross_entropy(logits, y).mean())

    flat = model.params
    grads = np.zeros_like(flat)
    for k in range(flat.size):
        orig = flat[k]
        flat[k] = orig + h
        lp = loss()
        flat[k] = orig - h
        lm = loss()
        flat[k] = orig
        grads[k] = (lp - lm) / (2.0 * h)
    return grads


def max_rel_error(analytic, numeric, floor=1e-6) -> float:
    # The floor absorbs finite-difference roundoff (~1e-11) on components
    # whose true gradient is exactly zero, e.g. pre-batchnorm biases.
    worst = 0.0
    for ak, nk in zip(np.ravel(analytic), np.ravel(numeric), strict=True):
        denom = max(abs(ak), abs(nk), floor)
        worst = max(worst, abs(ak - nk) / denom)
    return worst


def grad_norm_oracle(model, x, y):
    """One example's gradient norm the long way: the full gradient from
    `nn.backward` on that row, in eval mode with running statistics, squared
    entry by entry and summed parameter by parameter."""
    x = np.asarray(x, dtype=np.float64).reshape(1, -1)
    grads = nn.backward(model, x, [int(y)], mode="eval", bn_stat_source="running")
    return math.sqrt(sum(float((g**2).sum()) for g in nn.param_views(model, grads).values()))


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


def textbook_adamw_step(p, m, v, t, learning_rate, beta1, beta2, eps, weight_decay):
    """The parameters after one AdamW update in the textbook form
    p - lr*wd*p - lr*(m/bc1) / (sqrt(v/bc2) + eps), with bc = 1 - beta**t,
    from moments m and v that already include this step's gradient. t is a
    step count, or one count per row of a (k, P) stack; p is not changed."""
    def bias_correction(beta):
        return np.array([[1.0 - beta**c] for c in t]) if np.ndim(t) else 1.0 - beta**t

    bc1, bc2 = bias_correction(beta1), bias_correction(beta2)
    return p - learning_rate * weight_decay * p - learning_rate * (m / bc1) / (np.sqrt(v / bc2) + eps)


class LoopOptimizer:
    """SGD/AdamW as one update per parameter array, with the gradient vector
    split by `nn.param_views` and moment buffers keyed by parameter name: the
    per-parameter loop the fused flat step replaced, in the same arithmetic
    as the fused step."""

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

    def step(self, model, g):
        grads = nn.param_views(model, g)
        params = nn.parameters(model)
        if self.kind == "sgd":
            for name, p in params.items():
                p -= self.learning_rate * grads[name]
            self.step_count += 1
            return
        self.step_count += 1
        t = self.step_count
        lr = self.learning_rate
        bc1 = 1.0 - self.beta1**t
        c2 = math.sqrt(1.0 - self.beta2**t)
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
            if lr == 0.0:
                continue
            if self.weight_decay != 0.0:
                p *= 1.0 - lr * self.weight_decay
            p -= (lr * c2 / bc1) * (m / (np.sqrt(v) + self.eps * c2))


def train_members_one_at_a_time(models, loop_opts, x, y, budget_epochs, tol, batch_size, rngs, rows=None):
    """Each ordinary model trained to convergence on its own, one after the
    other, with its own `LoopOptimizer` and generator: what lockstep training
    of their stack must reproduce. Model j trains on all of (x, y), or on the
    rows of them that rows[j] names, gathered first. Full shuffled passes in
    minibatches until the relative improvement of the mean loss drops below
    tol, capped at budget_epochs."""
    for j, (model, opt, rng) in enumerate(zip(models, loop_opts, rngs)):
        xs, ys = (x, y) if rows is None else (x[rows[j]], y[rows[j]])
        if budget_epochs == 0 or len(xs) == 0:
            continue

        def mean_loss():
            return float(nn.cross_entropy(nn.forward(model, xs), ys).mean())

        prev = mean_loss()
        for _ in range(budget_epochs):
            perm = rng.permutation(len(xs))
            for start in range(0, len(xs), batch_size):
                idx = perm[start : start + batch_size]
                opt.step(model, nn.backward(model, xs[idx], ys[idx]))
            cur = mean_loss()
            if prev - cur < tol * max(prev, 1e-12):
                break
            prev = cur


def ladder_rung_by_rung(pool, holdout, cfg) -> dict[str, list[np.ndarray]]:
    """Each rung's candidate scores per step, with the ladder run one rung
    after the other over the whole schedule and every model trained on its
    own with a `LoopOptimizer`: what `ladder.run_ladder`, which runs the rungs
    step by step and trains members in stacks, must reproduce. Seeds and
    streams are drawn as run_ladder documents them."""
    ss = np.random.SeedSequence(cfg.seed).spawn(4)
    perm_rng, tie_rng = (np.random.default_rng(seq) for seq in ss[:2])
    schedule = list(candidate_chunks(pool.n, cfg.n_B, cfg.n_b, perm_rng, tie_rng))
    init_seeds = np.random.default_rng(ss[2]).integers(0, 2**31 - 1, size=8)
    sizes = (pool.dim, *cfg.hidden, pool.num_classes)
    small_sizes = (pool.dim, *cfg.small_hidden, pool.num_classes)
    k = cfg.ensemble_size

    def ensemble(seed):
        return [nn.init_mlp(sizes, seed=int(s)) for s in np.random.SeedSequence(seed).generate_state(k)]

    def with_optimizers(models):
        opt = cfg.optimizer
        return [(m, LoopOptimizer(opt.kind, opt.learning_rate, weight_decay=opt.weight_decay)) for m in models]

    def converge(members, x, y, budget, rngs):
        models, opts = zip(*members)
        train_members_one_at_a_time(models, opts, x, y, budget, cfg.convergence_tol, cfg.batch_size, rngs)

    def loss(members, x, y):
        if len(members) == 1:
            return nn.cross_entropy(nn.forward(members[0][0], x), y)
        return nn.ensemble_cross_entropy(nn.stack_models(m for m, _ in members), x, y)

    pre = [np.random.default_rng(seq) for seq in ss[3].spawn(k + 2)]
    fitted = {
        "single": with_optimizers([nn.init_mlp(sizes, seed=int(init_seeds[0]))]),
        "small": with_optimizers([nn.init_mlp(small_sizes, seed=int(init_seeds[1]))]),
        "ensemble": with_optimizers(ensemble(int(init_seeds[2]))),
    }
    for members, rngs in zip(fitted.values(), ([pre[0]], [pre[1]], pre[2:])):
        converge(members, holdout.features, holdout.labels, cfg.il_pretrain_epochs, rngs)
    fresh = {
        "single": lambda: with_optimizers([nn.init_mlp(sizes, seed=int(init_seeds[3]))]),
        "ensemble": lambda: with_optimizers(ensemble(int(init_seeds[4]))),
    }

    scores = {}
    for index, (name, (target_src, il_src, regime, il_regime)) in enumerate(RUNGS.items()):
        target, il = fresh[target_src](), copy.deepcopy(fitted[il_src])
        streams = np.random.SeedSequence([cfg.seed, index]).spawn(len(target) + len(il))
        rngs = [np.random.default_rng(seq) for seq in streams]
        seen_x, seen_y, scores[name] = [], [], []
        for chunk, n_sel, tie_seed in schedule:
            x, y = pool.features[chunk], pool.labels[chunk]
            s = loss(target, x, y) - loss(il, x, y)
            scores[name].append(s)
            sel = select_top_k(s, n_sel, tie_seed)
            seen_x.append(x[sel])
            seen_y.append(y[sel])
            for members, how, rows, data in (
                (target, regime, rngs[: len(target)], (np.concatenate(seen_x), np.concatenate(seen_y))),
                (il, il_regime, rngs[len(target) :], (np.concatenate([holdout.features, *seen_x]),
                                                      np.concatenate([holdout.labels, *seen_y]))),
            ):
                if how == "converged":
                    converge(members, *data, cfg.convergence_epochs, rows)
                elif how == "single-step":
                    for model, opt in members:
                        opt.step(model, nn.backward(model, x[sel], y[sel]))
    return scores


def read_table(path, tag: str) -> tuple[dict[str, str], list[list[str]]]:
    """(header fields, rows as lists of strings) of a file `records.write_table`
    wrote; the column row is skipped."""
    with open(path, newline="") as f:
        meta = read_header(f.readline(), tag, path)
        reader = csv.reader(f)
        next(reader, None)
        return meta, list(reader)


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
