"""Selection scoring rules and pickers.

Everything here is a pure function of a frozen model snapshot, a candidate
batch, and (for some rules) a table of irreducible losses. Scoring never
mutates the model; picking the batch is a single-threaded reduction.

Ranking rules share one tie-break convention: candidates are shuffled with a
seeded permutation before a stable sort, so constant scores make top-k an
exact uniform random subset. Uniform selection is implemented as exactly
that special case.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import LabeledDataset
from .nn import MlpModel, batched_logits, cross_entropy, forward, mc_dropout_predict, per_example_grad_norm, softmax

LOSS_BASED_KINDS = ("rho-loss", "train-loss", "neg-il", "uniform")
GRAD_KINDS = ("grad-norm", "grad-norm-is")
AL_KINDS = ("bald", "cond-entropy", "pred-entropy", "loss-minus-cond-entropy")
OFFLINE_KINDS = ("svp-entropy",)
ALL_KINDS = LOSS_BASED_KINDS + GRAD_KINDS + AL_KINDS + OFFLINE_KINDS

NEEDS_IL = ("rho-loss", "neg-il")


@dataclass(frozen=True)
class SelectionPolicy:
    """Tagged choice of scoring rule plus rule-specific settings.

    mc_samples applies to the Monte-Carlo-dropout acquisition kinds,
    temperature to grad-norm importance sampling, keep_fraction to the
    offline entropy-proxy filter.
    """

    kind: str
    mc_samples: int = 16
    temperature: float = 1.0
    keep_fraction: float = 0.5

    def __post_init__(self):
        if self.kind not in ALL_KINDS:
            raise ValueError(f"kind must be one of {'|'.join(ALL_KINDS)}, got {self.kind!r}")
        if self.kind in AL_KINDS:
            if self.mc_samples < 1:
                raise ValueError(f"mc_samples must be >= 1 for Monte-Carlo acquisition, got {self.mc_samples}")
            if self.kind == "bald" and self.mc_samples < 2:
                raise ValueError(f"mc_samples must be >= 2 for bald to decompose the entropy, got {self.mc_samples}")
        if self.kind == "grad-norm-is" and self.temperature <= 0:
            raise ValueError(f"temperature must be > 0, got {self.temperature}")
        if self.kind in OFFLINE_KINDS and not 0.0 < self.keep_fraction <= 1.0:
            raise ValueError(f"keep_fraction must lie in (0, 1], got {self.keep_fraction}")

    @property
    def needs_il(self) -> bool:
        return self.kind in NEEDS_IL


@dataclass
class ScoredBatch:
    """One step's candidate batch after scoring and selection."""

    candidate_ids: np.ndarray
    scores: np.ndarray
    selected_indices: np.ndarray  # positions into the candidate batch, ascending
    weights: np.ndarray | None = None  # importance-sampling weights, mean 1

    @property
    def selected_ids(self) -> np.ndarray:
        return self.candidate_ids[self.selected_indices]


def score_grad_norm(model: MlpModel, x, labels, last_layer_only: bool = False) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(labels, dtype=np.int64)
    return np.array(
        [per_example_grad_norm(model, x[i], y[i], last_layer_only=last_layer_only) for i in range(x.shape[0])]
    )


def chunk_select_count(chunk_size: int, n_b: int, n_B: int) -> int:
    """How many to select from a chunk: n_b from a full chunk of n_B, the same
    fraction (at least one) from a partial last chunk."""
    if chunk_size >= n_B:
        return n_b
    return max(1, int(round(n_b * chunk_size / n_B)))


def select_top_k(scores, n_b: int, tie_seed: int) -> np.ndarray:
    """Positions of the n_b largest scores, ties broken uniformly at random.

    A seeded shuffle is applied before a stable descending sort, which makes
    the selected set among tied scores a uniform random subset. Returned
    positions are in ascending order (the caller keeps candidate order).
    """
    s = np.asarray(scores, dtype=np.float64)
    if n_b > s.size:
        raise ValueError(f"cannot select {n_b} from {s.size} candidates")
    if n_b < 0:
        raise ValueError(f"n_b must be >= 0, got {n_b}")
    perm = np.random.default_rng(tie_seed).permutation(s.size)
    order = perm[np.argsort(-s[perm], kind="stable")]
    return np.sort(order[:n_b])


def sample_grad_norm_is(scores, n_b: int, seed_or_rng, temperature: float = 1.0):
    """Sample n_b candidates without replacement with probability ~ score,
    and return de-biasing weights.

    Probabilities are score**(1/temperature), renormalized after each draw.
    Weights are proportional to the inverse of the *initial* inclusion-draw
    probability and normalized to mean 1 within the selected set, so the
    weighted selected-gradient estimator tracks the candidate-mean gradient.

    When fewer than n_b candidates have nonzero probability, all of them are
    taken (inclusion certain) and the rest of the batch is filled uniformly
    from the zero-probability candidates; each pick is weighted by the
    inverse of its inclusion probability. All-zero scores therefore reduce
    to uniform sampling with unit weights.
    """
    s = np.asarray(scores, dtype=np.float64)
    if np.any(s < 0):
        raise ValueError("grad-norm importance sampling needs nonnegative scores")
    if n_b > s.size:
        raise ValueError(f"cannot sample {n_b} from {s.size} candidates")
    if n_b == 0:
        return np.zeros(0, dtype=np.int64), np.zeros(0)
    rng = seed_or_rng if isinstance(seed_or_rng, np.random.Generator) else np.random.default_rng(seed_or_rng)
    with np.errstate(over="ignore"):
        p = s ** (1.0 / temperature)
        total = p.sum()
    if not np.isfinite(total):
        # Scores near the float maximum overflow the powers or their sum;
        # scaled by the largest score, every power and the sum stay finite.
        p = (s / s.max()) ** (1.0 / temperature)
        total = p.sum()
    if total > 0.0:
        p = p / total
    positive = p > 0.0
    n_sure = int(positive.sum())
    if n_sure < n_b:
        rest = np.flatnonzero(~positive)
        fill = rng.choice(rest, size=n_b - n_sure, replace=False)
        idx = np.sort(np.concatenate([np.flatnonzero(positive), fill]))
        # Relative weights: 1 for a fill pick, fill/rest (its inclusion
        # probability) for a certain one, so all-fill batches get exact ones.
        w = np.where(positive[idx], fill.size / rest.size, 1.0)
        return idx, w * (n_b / w.sum())
    remaining = p.copy()
    chosen: list[int] = []
    for _ in range(n_b):
        probs = remaining / remaining.sum()
        pick = int(rng.choice(s.size, p=probs))
        chosen.append(pick)
        remaining[pick] = 0.0
    idx = np.sort(np.asarray(chosen, dtype=np.int64))
    with np.errstate(over="ignore"):
        w = 1.0 / p[idx]
        if not np.isfinite(w.sum()):
            # Probabilities spanning more than the float range overflow 1/p;
            # scaling by the smallest one keeps every relative weight in (0, 1].
            w = p[idx].min() / p[idx]
    w *= n_b / w.sum()
    return idx, w


def entropy(probs) -> np.ndarray:
    """Row-wise Shannon entropy in nats; zero-probability terms contribute 0."""
    p = np.asarray(probs, dtype=np.float64)
    plogp = np.where(p > 0, p * np.log(np.where(p > 0, p, 1.0)), 0.0)
    return -plogp.sum(axis=-1)


def al_scores_from_samples(kind: str, samples, losses=None) -> np.ndarray:
    """Acquisition scores from a stack of Monte-Carlo softmax samples.

    samples has shape (k, batch, classes). bald is the mutual information
    (predictive entropy minus mean per-sample entropy); the loss variant
    replaces the irreducible-loss term of reducible-loss scoring with the
    mean conditional entropy and is the only label-aware kind here.
    """
    samples = np.asarray(samples, dtype=np.float64)
    predictive = samples.mean(axis=0)
    mean_conditional = entropy(samples).mean(axis=0)
    if kind == "pred-entropy":
        return entropy(predictive)
    if kind == "cond-entropy":
        return mean_conditional
    if kind == "bald":
        if samples.shape[0] < 2:
            raise ValueError("bald needs at least 2 Monte-Carlo samples")
        return entropy(predictive) - mean_conditional
    if kind == "loss-minus-cond-entropy":
        if losses is None:
            raise ValueError("loss-minus-cond-entropy needs per-candidate losses")
        return np.asarray(losses, dtype=np.float64) - mean_conditional
    raise ValueError(f"unknown acquisition kind {kind!r}")


def score_al(
    kind: str,
    model: MlpModel,
    x,
    labels=None,
    mc_samples: int = 16,
    rng: np.random.Generator | None = None,
) -> np.ndarray:
    """Monte-Carlo-dropout acquisition scores for a candidate batch."""
    if kind == "bald" and mc_samples < 2:
        raise ValueError("bald needs mc_samples >= 2")
    samples = mc_dropout_predict(model, x, mc_samples, rng=rng)
    losses = None
    if kind == "loss-minus-cond-entropy":
        if labels is None:
            raise ValueError("loss-minus-cond-entropy uses the label")
        losses = cross_entropy(forward(model, x), labels)
    return al_scores_from_samples(kind, samples, losses=losses)


def svp_offline_select(
    proxy_model: MlpModel,
    pool: LabeledDataset,
    keep_fraction: float,
    seed: int = 0,
    batch_size: int = 1024,
) -> np.ndarray:
    """Offline coreset filter: keep the ids with highest predictive entropy
    under a cheap proxy model. The subset is fixed for a whole training run."""
    if not 0.0 < keep_fraction <= 1.0:
        raise ValueError(f"keep_fraction must lie in (0, 1], got {keep_fraction}")
    scores = entropy(softmax(batched_logits(proxy_model, pool.features, batch_size)))
    n_keep = max(1, int(round(keep_fraction * pool.n)))
    kept = select_top_k(scores, n_keep, tie_seed=seed)
    return pool.ids[kept]


def score_candidates(
    policy: SelectionPolicy,
    model: MlpModel,
    x,
    labels,
    candidate_ids,
    losses,
    il_values_fn,
    rng: np.random.Generator,
) -> np.ndarray:
    """Dispatch a policy to its per-candidate scores.

    losses are the precomputed per-candidate cross-entropies of the snapshot;
    il_values_fn(ids, x, labels) supplies irreducible losses when the policy
    needs them (table lookup in the frozen scheme, a live model otherwise).
    rho-loss is training loss minus irreducible loss and may be negative.
    """
    kind = policy.kind
    if kind == "uniform":
        return np.zeros(len(candidate_ids))
    if kind == "train-loss":
        return np.array(losses, dtype=np.float64)
    if kind == "rho-loss":
        return np.asarray(losses, dtype=np.float64) - il_values_fn(candidate_ids, x, labels)
    if kind == "neg-il":
        return -il_values_fn(candidate_ids, x, labels)
    if kind in GRAD_KINDS:
        return score_grad_norm(model, x, labels)
    if kind in AL_KINDS:
        return score_al(kind, model, x, labels=labels, mc_samples=policy.mc_samples, rng=rng)
    raise ValueError(f"policy kind {kind!r} cannot be scored online (offline kinds pre-filter the pool)")


def score_and_select(
    policy: SelectionPolicy,
    model: MlpModel,
    x,
    labels,
    candidate_ids,
    losses,
    il_values_fn,
    n_b: int,
    tie_seed: int,
    rng: np.random.Generator,
) -> ScoredBatch:
    scores = score_candidates(policy, model, x, labels, candidate_ids, losses, il_values_fn, rng)
    if policy.kind == "grad-norm-is":
        idx, weights = sample_grad_norm_is(scores, n_b, rng, temperature=policy.temperature)
        return ScoredBatch(np.asarray(candidate_ids), scores, idx, weights=weights)
    idx = select_top_k(scores, n_b, tie_seed)
    return ScoredBatch(np.asarray(candidate_ids), scores, idx)
