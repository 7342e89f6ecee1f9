"""Selection scoring rules and pickers.

Everything here is a pure function of a frozen model snapshot, a candidate
batch, and (for some rules) a table of irreducible losses. Scoring never
mutates the model; picking the batch is a single-threaded reduction.
`score_and_select` is the one place that maps a policy kind to its scorer
and its picker; the scorers and pickers below it know no policy.

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

AL_KINDS = ("bald", "cond-entropy", "pred-entropy", "loss-minus-cond-entropy")
OFFLINE_KINDS = ("svp-entropy",)
ALL_KINDS = ("rho-loss", "train-loss", "neg-il", "uniform", "grad-norm", "grad-norm-is") + AL_KINDS + OFFLINE_KINDS

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
        if self.kind in AL_KINDS and self.mc_samples < 1:
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

    scores: np.ndarray
    selected_indices: np.ndarray  # positions into the candidate batch, ascending
    weights: np.ndarray | None = None  # importance-sampling weights, mean 1


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
    """Row-wise Shannon entropy in nats over the last axis; zero, negative
    and NaN entries contribute 0."""
    p = np.asarray(probs, dtype=np.float64)
    positive = p > 0
    plogp = np.log(p, out=np.zeros_like(p), where=positive)
    np.multiply(p, plogp, out=plogp, where=positive)
    return -plogp.sum(axis=-1)


def score_al(
    kind: str,
    model: MlpModel,
    x,
    losses=None,
    mc_samples: int = 16,
    rng: np.random.Generator | None = None,
) -> np.ndarray:
    """Monte-Carlo-dropout acquisition scores for a candidate batch, from
    mc_samples softmax samples drawn with dropout on. bald is the mutual
    information (predictive entropy minus mean per-sample entropy). The loss
    variant replaces the irreducible-loss term of reducible-loss scoring with
    the mean conditional entropy; it alone reads losses, the candidates'
    per-example losses under the scored snapshot."""
    if kind not in AL_KINDS:
        raise ValueError(f"unknown acquisition kind {kind!r}")
    if kind == "bald" and mc_samples < 2:
        raise ValueError("bald needs mc_samples >= 2")
    if kind == "loss-minus-cond-entropy" and losses is None:
        raise ValueError("loss-minus-cond-entropy needs per-candidate losses")
    samples = mc_dropout_predict(model, x, mc_samples, rng=rng)
    if kind == "pred-entropy":
        return entropy(samples.mean(axis=0))
    mean_conditional = entropy(samples).mean(axis=0)
    if kind == "cond-entropy":
        return mean_conditional
    if kind == "loss-minus-cond-entropy":
        return np.asarray(losses, dtype=np.float64) - mean_conditional
    return entropy(samples.mean(axis=0)) - mean_conditional


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
    """Score a candidate batch under policy and pick n_b of it: the one
    dispatch from a policy kind to its scorer and its picker.

    losses are the snapshot's per-candidate cross-entropies, required when
    the policy reads them; il_values_fn(ids, x, labels) supplies irreducible
    losses (table lookup in the frozen scheme, a live model otherwise).
    grad-norm-is samples with rng and weights its pick; every other kind
    takes the top n_b, ties broken by tie_seed.
    """
    kind = policy.kind
    if policy.reads_losses and losses is None:
        raise ValueError(f"policy {kind!r} scores candidate losses, but none were given")
    if kind == "grad-norm-is":
        scores = score_grad_norm(model, x, labels)
        idx, weights = sample_grad_norm_is(scores, n_b, rng, temperature=policy.temperature)
        return ScoredBatch(scores, idx, weights)
    if kind == "uniform":
        scores = np.zeros(len(candidate_ids))
    elif kind == "train-loss":
        scores = np.array(losses, dtype=np.float64)
    elif kind == "rho-loss":
        scores = np.asarray(losses, dtype=np.float64) - il_values_fn(candidate_ids, x, labels)
    elif kind == "neg-il":
        scores = -il_values_fn(candidate_ids, x, labels)
    elif kind == "grad-norm":
        scores = score_grad_norm(model, x, labels)
    elif kind in AL_KINDS:
        scores = score_al(kind, model, x, losses, policy.mc_samples, rng)
    else:
        raise ValueError(f"policy kind {kind!r} cannot be scored online (offline kinds pre-filter the pool)")
    return ScoredBatch(scores, select_top_k(scores, n_b, tie_seed))
