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
from .nn import MlpModel, batched_logits, mc_dropout_predict, per_example_grad_norm, softmax

LOSS_BASED_KINDS = ("rho-loss", "train-loss", "neg-il", "uniform")
GRAD_KINDS = ("grad-norm", "grad-norm-is")
AL_KINDS = ("bald", "cond-entropy", "pred-entropy", "loss-minus-cond-entropy")
OFFLINE_KINDS = ("svp-entropy",)
ALL_KINDS = LOSS_BASED_KINDS + GRAD_KINDS + AL_KINDS + OFFLINE_KINDS

NEEDS_IL = ("rho-loss", "neg-il")
READS_LOSSES = ("rho-loss", "train-loss", "loss-minus-cond-entropy")


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
        if self.kind == "grad-norm-is" and not 0 < self.temperature < np.inf:
            raise ValueError(f"temperature must be finite and > 0, got {self.temperature}")
        if self.kind in OFFLINE_KINDS and not 0.0 < self.keep_fraction <= 1.0:
            raise ValueError(f"keep_fraction must lie in (0, 1], got {self.keep_fraction}")

    @property
    def needs_il(self) -> bool:
        return self.kind in NEEDS_IL

    @property
    def reads_losses(self) -> bool:
        """Whether scoring reads the candidates' losses under the snapshot."""
        return self.kind in READS_LOSSES


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


def score_grad_norm(model: MlpModel, x, labels) -> np.ndarray:
    """Each candidate's gradient norm (`nn.per_example_grad_norm`).

    The kernel takes a whole 2-D batch, but this loop calls it once per
    candidate, on that candidate's one-row batch, through this module's name
    for it: `perfbench` wraps that name and its hard-scoring check wants one
    call per candidate. Once that check counts rows instead (ROADMAP item 1),
    one call on the batch replaces the loop.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(labels, dtype=np.int64).ravel()
    if y.shape != (x.shape[0],):
        raise ValueError(f"got {x.shape[0]} examples but labels of shape {y.shape}")
    return np.array([per_example_grad_norm(model, x[i : i + 1], y[i : i + 1])[0] for i in range(x.shape[0])])


def chunk_select_count(chunk_size: int, n_b: int, n_B: int) -> int:
    """How many to select from a chunk: n_b from a full chunk of n_B, the same
    fraction (at least one) from a partial last chunk."""
    if chunk_size >= n_B:
        return n_b
    return max(1, int(round(n_b * chunk_size / n_B)))


def smallest_chunk(n: int, n_B: int) -> int:
    """Rows in the last chunk of `candidate_chunks` over a pool of n: the
    chunk with the fewest rows, which selects the fewest."""
    return n % n_B or n_B


def candidate_chunks(n: int, n_B: int, n_b: int, perm_rng, tie_rng):
    """One epoch's candidate schedule over a pool of n: yields (chunk,
    select_count, tie_seed) for each n_B-sized chunk of a permutation drawn
    from perm_rng, so every position appears in exactly one chunk. The tie
    seed, one draw from tie_rng per chunk, seeds `select_top_k`."""
    perm = perm_rng.permutation(n)
    for start in range(0, n, n_B):
        chunk = perm[start : start + n_B]
        yield chunk, chunk_select_count(chunk.size, n_b, n_B), int(tie_rng.integers(0, 2**31 - 1))


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
    """Sample n_b candidates without replacement with probability ~
    score**(1/temperature), and return de-biasing weights.

    One Gumbel-top-k draw (Kool et al. 2019, arXiv:1903.06059): the n_b
    largest keys log p + Gumbel noise are distributed as n_b successive draws,
    each renormalized over the candidates left. log p is taken relative to the
    largest score, in log space, so no power or ratio under- or overflows.
    Weights are the inverse of each pick's *initial* draw probability, taken
    relative to the least likely pick so each lies in (0, 1], then normalized
    to mean 1 within the selected set, so the weighted selected-gradient
    estimator tracks the candidate-mean gradient.

    When fewer than n_b candidates have log p above -inf (the rest have zero
    scores, or relative probabilities that underflow even in log space, which
    takes a temperature below about 1e-305), all of them are taken (inclusion
    certain) and the rest of the batch is filled uniformly from the others;
    each pick is weighted by the inverse of its inclusion probability.
    All-zero scores therefore reduce to uniform sampling with unit weights.
    """
    s = np.asarray(scores, dtype=np.float64)
    if not np.all((s >= 0) & np.isfinite(s)):
        raise ValueError("grad-norm importance sampling needs finite nonnegative scores")
    if n_b > s.size:
        raise ValueError(f"cannot sample {n_b} from {s.size} candidates")
    if n_b == 0:
        return np.zeros(0, dtype=np.int64), np.zeros(0)
    rng = seed_or_rng if isinstance(seed_or_rng, np.random.Generator) else np.random.default_rng(seed_or_rng)
    with np.errstate(divide="ignore", over="ignore"):
        # All-zero scores subtract log 1, so every log p stays -inf.
        logp = (np.log(s) - np.log(s.max() or 1.0)) / temperature
    positive = logp > -np.inf
    n_sure = int(positive.sum())
    if n_sure < n_b:
        rest = np.flatnonzero(~positive)
        fill = rng.choice(rest, size=n_b - n_sure, replace=False)
        idx = np.sort(np.concatenate([np.flatnonzero(positive), fill]))
        # Relative weights: 1 for a fill pick, fill/rest (its inclusion
        # probability) for a certain one, so all-fill batches get exact ones.
        w = np.where(positive[idx], fill.size / rest.size, 1.0)
        return idx, w * (n_b / w.sum())
    idx = np.sort(np.argsort(logp + rng.gumbel(size=s.size))[-n_b:])
    w = np.exp(logp[idx].min() - logp[idx])
    return idx, w * (n_b / w.sum())


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
    losses=None,
    mc_samples: int = 16,
    rng: np.random.Generator | None = None,
) -> np.ndarray:
    """Monte-Carlo-dropout acquisition scores for a candidate batch. losses
    are the candidates' per-example losses under the scored snapshot; only
    loss-minus-cond-entropy reads them."""
    if kind == "bald" and mc_samples < 2:
        raise ValueError("bald needs mc_samples >= 2")
    samples = mc_dropout_predict(model, x, mc_samples, rng=rng)
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

    losses are the precomputed per-candidate cross-entropies of the snapshot,
    required when the policy reads them and None allowed otherwise;
    il_values_fn(ids, x, labels) supplies irreducible losses when the policy
    needs them (table lookup in the frozen scheme, a live model otherwise).
    rho-loss is training loss minus irreducible loss and may be negative.
    """
    kind = policy.kind
    if policy.reads_losses and losses is None:
        raise ValueError(f"policy {kind!r} scores candidate losses, but none were given")
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
        return score_al(kind, model, x, losses=losses, mc_samples=policy.mc_samples, rng=rng)
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
