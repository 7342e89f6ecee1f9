"""Dense multilayer perceptrons on float64 numpy arrays, with hand-written backprop.

A model is a plain dataclass of parameter arrays; gradients are dicts keyed by
parameter name and shaped like the parameters. Forward passes distinguish the
dropout mode ("train"/"eval") from the batch-normalization statistics source
("batch"/"running"), because batch selection and model updates legitimately
combine them differently: scoring a candidate batch wants deterministic
activations but fresh batch statistics, while a training step wants both.
"""
from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field

import numpy as np

Array = np.ndarray


class NonFiniteLogitsError(ValueError):
    """A forward pass produced NaN or infinite logits, as when training diverges."""

_MODES = ("train", "eval")
_BN_SOURCES = ("batch", "running")


def _as_batch(x, width: int, name: str = "x") -> Array:
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != width:
        raise ValueError(f"{name} must be 2-D with {width} columns, got shape {x.shape}")
    if not np.all(np.isfinite(x)):
        raise ValueError(f"{name} contains non-finite values")
    return x


def _as_labels(labels, n_classes: int) -> Array:
    y = np.asarray(labels, dtype=np.int64).ravel()
    if y.size and (y.min() < 0 or y.max() >= n_classes):
        raise ValueError(f"labels must lie in [0, {n_classes}), got range [{y.min()}, {y.max()}]")
    return y


def softmax(logits: Array) -> Array:
    """Row-wise softmax, stable under large logits."""
    z = np.asarray(logits, dtype=np.float64)
    z = z - z.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


def log_softmax(logits: Array) -> Array:
    z = np.asarray(logits, dtype=np.float64)
    m = z.max(axis=1, keepdims=True)
    return z - m - np.log(np.exp(z - m).sum(axis=1, keepdims=True))


def cross_entropy(logits: Array, labels) -> Array:
    """Per-example negative log-likelihood of the integer labels.

    Computed as logsumexp(logits) - logits[label] with max subtraction, so the
    result is finite and nonnegative by construction for any finite logits.
    """
    z = np.asarray(logits, dtype=np.float64)
    if z.ndim != 2:
        raise ValueError(f"logits must be 2-D, got shape {z.shape}")
    y = _as_labels(labels, z.shape[1])
    if y.size != z.shape[0]:
        raise ValueError(f"got {z.shape[0]} logit rows but {y.size} labels")
    m = z.max(axis=1)
    lse = m + np.log(np.exp(z - m[:, None]).sum(axis=1))
    return lse - z[np.arange(z.shape[0]), y]


@dataclass
class BatchNormLayer:
    """Per-feature affine normalization with running statistics."""

    gamma: Array
    beta: Array
    running_mean: Array
    running_var: Array
    momentum: float = 0.1
    eps: float = 1e-5


@dataclass
class MlpModel:
    """Fully connected rectifier network; the last layer emits raw logits.

    Hidden layers apply, in order: linear, optional batch normalization,
    ReLU, optional dropout. The output layer is purely linear.
    """

    layer_sizes: tuple[int, ...]
    weights: list[Array]
    biases: list[Array]
    dropout_rate: float = 0.0
    batchnorm: list[BatchNormLayer] | None = None

    @property
    def input_dim(self) -> int:
        return self.layer_sizes[0]

    @property
    def n_classes(self) -> int:
        return self.layer_sizes[-1]

    @property
    def n_layers(self) -> int:
        return len(self.weights)


def init_mlp(
    layer_sizes,
    seed: int = 0,
    dropout_rate: float = 0.0,
    batchnorm: bool = False,
) -> MlpModel:
    """Seeded uniform init in [-1/sqrt(fan_in), +1/sqrt(fan_in)] for weights and biases."""
    sizes = tuple(int(s) for s in layer_sizes)
    if len(sizes) < 2 or any(s < 1 for s in sizes):
        raise ValueError(f"layer_sizes needs >= 2 positive widths, got {sizes}")
    if not 0.0 <= dropout_rate < 1.0:
        raise ValueError(f"dropout_rate must lie in [0, 1), got {dropout_rate}")
    rng = np.random.default_rng(seed)
    weights, biases = [], []
    for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
        bound = 1.0 / math.sqrt(fan_in)
        weights.append(rng.uniform(-bound, bound, size=(fan_in, fan_out)))
        biases.append(rng.uniform(-bound, bound, size=fan_out))
    bn = None
    if batchnorm:
        bn = [
            BatchNormLayer(
                gamma=np.ones(w),
                beta=np.zeros(w),
                running_mean=np.zeros(w),
                running_var=np.ones(w),
            )
            for w in sizes[1:-1]
        ]
    return MlpModel(sizes, weights, biases, dropout_rate=dropout_rate, batchnorm=bn)


def clone_model(model: MlpModel) -> MlpModel:
    bn = None
    if model.batchnorm is not None:
        bn = [
            BatchNormLayer(
                l.gamma.copy(), l.beta.copy(), l.running_mean.copy(), l.running_var.copy(),
                momentum=l.momentum, eps=l.eps,
            )
            for l in model.batchnorm
        ]
    return MlpModel(
        model.layer_sizes,
        [w.copy() for w in model.weights],
        [b.copy() for b in model.biases],
        dropout_rate=model.dropout_rate,
        batchnorm=bn,
    )


def parameters(model: MlpModel) -> dict[str, Array]:
    """Live views of every trainable array, in a stable order."""
    params: dict[str, Array] = {}
    for l in range(model.n_layers):
        params[f"w{l}"] = model.weights[l]
        params[f"b{l}"] = model.biases[l]
    if model.batchnorm is not None:
        for l, bn in enumerate(model.batchnorm):
            params[f"bn{l}_gamma"] = bn.gamma
            params[f"bn{l}_beta"] = bn.beta
    return params


def model_id(model: MlpModel) -> str:
    """Content hash of the parameters; identifies a model snapshot on disk."""
    h = hashlib.sha256()
    h.update(repr(model.layer_sizes).encode())
    h.update(repr(model.dropout_rate).encode())
    for _, p in sorted(parameters(model).items()):
        h.update(np.ascontiguousarray(p).tobytes())
    return h.hexdigest()[:16]


def _check_mode(mode: str, bn_stat_source: str) -> None:
    if mode not in _MODES:
        raise ValueError(f"mode must be one of {_MODES}, got {mode!r}")
    if bn_stat_source not in _BN_SOURCES:
        raise ValueError(f"bn_stat_source must be one of {_BN_SOURCES}, got {bn_stat_source!r}")


def _bn_forward(bn: BatchNormLayer, z: Array, source: str, update_running: bool):
    if source == "batch":
        if z.shape[0] < 2:
            raise ValueError("batch statistics need a batch of size >= 2")
        mu = z.mean(axis=0)
        var = z.var(axis=0)
        inv = 1.0 / np.sqrt(var + bn.eps)
        centered = z - mu
        if update_running:
            n = z.shape[0]
            bn.running_mean = (1.0 - bn.momentum) * bn.running_mean + bn.momentum * mu
            bn.running_var = (1.0 - bn.momentum) * bn.running_var + bn.momentum * var * n / (n - 1)
    else:
        inv = 1.0 / np.sqrt(bn.running_var + bn.eps)
        centered = z - bn.running_mean
    xhat = centered * inv
    out = bn.gamma * xhat + bn.beta
    cache = {"source": source, "xhat": xhat, "inv": inv, "centered": centered}
    return out, cache


def _bn_backward(bn: BatchNormLayer, cache: dict, dout: Array):
    dgamma = (dout * cache["xhat"]).sum(axis=0)
    dbeta = dout.sum(axis=0)
    dxhat = dout * bn.gamma
    inv = cache["inv"]
    if cache["source"] == "batch":
        b = dout.shape[0]
        centered = cache["centered"]
        dvar = (dxhat * centered).sum(axis=0) * (-0.5) * inv**3
        dmu = -(dxhat.sum(axis=0)) * inv + dvar * (-2.0) * centered.mean(axis=0)
        dz = dxhat * inv + dvar * 2.0 * centered / b + dmu / b
    else:
        dz = dxhat * inv
    return dz, dgamma, dbeta


def _forward_cache(model, x, mode, bn_stat_source, rng, update_running):
    _check_mode(mode, bn_stat_source)
    x = _as_batch(x, model.input_dim)
    use_dropout = mode == "train" and model.dropout_rate > 0.0
    if use_dropout and rng is None:
        rng = np.random.default_rng()
    a = x
    cache = []
    last = model.n_layers - 1
    for l in range(model.n_layers):
        z = a @ model.weights[l] + model.biases[l]
        layer: dict = {"a_in": a}
        h = z
        if l < last:
            if model.batchnorm is not None:
                h, layer["bn"] = _bn_forward(model.batchnorm[l], h, bn_stat_source, update_running)
            layer["pre_act"] = h
            h = np.maximum(h, 0.0)
            if use_dropout:
                keep = 1.0 - model.dropout_rate
                mask = (rng.random(h.shape) < keep) / keep
                h = h * mask
                layer["mask"] = mask
        cache.append(layer)
        a = h
    if not np.all(np.isfinite(a)):
        raise NonFiniteLogitsError("forward pass produced non-finite logits")
    return a, cache


def forward(
    model: MlpModel,
    x,
    mode: str = "eval",
    bn_stat_source: str = "running",
    rng: np.random.Generator | None = None,
    update_running: bool = False,
) -> Array:
    """Logits for a batch.

    mode controls dropout only (identity in eval mode); bn_stat_source picks
    whether batch normalization uses statistics of this batch or the stored
    running ones. Running statistics are mutated only when update_running is
    set, so scoring passes never perturb the model.
    """
    logits, _ = _forward_cache(model, x, mode, bn_stat_source, rng, update_running)
    return logits


def predict_labels(model: MlpModel, x) -> Array:
    return np.argmax(forward(model, x), axis=1)


def backward(
    model: MlpModel,
    x,
    labels,
    mode: str = "train",
    bn_stat_source: str = "batch",
    rng: np.random.Generator | None = None,
    update_running: bool = False,
    sample_weights=None,
) -> dict[str, Array]:
    """Gradient of the mean cross-entropy over the batch w.r.t. every parameter.

    sample_weights, when given, reweight the per-example losses inside the
    mean (used by importance-sampling policies; weights are expected to
    average to 1 so the gradient scale matches the unweighted mean).
    """
    logits, cache = _forward_cache(model, x, mode, bn_stat_source, rng, update_running)
    y = _as_labels(labels, model.n_classes)
    b = logits.shape[0]
    if y.size != b:
        raise ValueError(f"got {b} examples but {y.size} labels")
    d = softmax(logits)
    d[np.arange(b), y] -= 1.0
    if sample_weights is None:
        d /= b
    else:
        w = np.asarray(sample_weights, dtype=np.float64).ravel()
        if w.size != b:
            raise ValueError(f"got {b} examples but {w.size} sample weights")
        d *= (w / b)[:, None]
    grads: dict[str, Array] = {}
    for l in reversed(range(model.n_layers)):
        layer = cache[l]
        if l < model.n_layers - 1:
            if "mask" in layer:
                d = d * layer["mask"]
            d = d * (layer["pre_act"] > 0)
            if "bn" in layer:
                d, dg, db = _bn_backward(model.batchnorm[l], layer["bn"], d)
                grads[f"bn{l}_gamma"] = dg
                grads[f"bn{l}_beta"] = db
        grads[f"w{l}"] = layer["a_in"].T @ d
        grads[f"b{l}"] = d.sum(axis=0)
        if l > 0:
            d = d @ model.weights[l].T
    return grads


def per_example_grad_norm(model: MlpModel, x, y, last_layer_only: bool = False) -> float:
    """Euclidean norm of one example's loss gradient over the full parameter set.

    Deterministic by construction: evaluated in eval mode with running batch
    statistics, so dropout and batch coupling never enter the score. The
    last_layer_only variant is the cheap upper-bound proxy some selection
    schemes use instead of the exact norm.
    """
    x = np.asarray(x, dtype=np.float64).reshape(1, -1)
    grads = backward(model, x, [int(y)], mode="eval", bn_stat_source="running")
    if last_layer_only:
        l = model.n_layers - 1
        items = [grads[f"w{l}"], grads[f"b{l}"]]
    else:
        items = list(grads.values())
    return math.sqrt(sum(float((g**2).sum()) for g in items))


def mc_dropout_predict(
    model: MlpModel, x, samples: int, rng: np.random.Generator | None = None
) -> Array:
    """Stack of `samples` stochastic softmax outputs under active dropout.

    Batch normalization, if present, uses running statistics; only the
    dropout masks vary between samples. Returns shape (samples, batch, classes).
    """
    if samples < 1:
        raise ValueError(f"samples must be >= 1, got {samples}")
    if rng is None:
        rng = np.random.default_rng()
    return np.stack(
        [softmax(forward(model, x, mode="train", bn_stat_source="running", rng=rng)) for _ in range(samples)]
    )


@dataclass
class EnsembleModel:
    """Bag of independently initialized MLPs sharing one architecture.

    The predictive distribution is the arithmetic mean of the member softmax
    outputs, which crudely stands in for averaging over a parameter posterior.
    """

    members: list[MlpModel] = field(default_factory=list)

    def __post_init__(self):
        if not self.members:
            raise ValueError("ensemble needs at least one member")
        sizes = self.members[0].layer_sizes
        if any(m.layer_sizes != sizes for m in self.members):
            raise ValueError("ensemble members must share layer sizes")

    @property
    def layer_sizes(self) -> tuple[int, ...]:
        return self.members[0].layer_sizes


def make_ensemble(layer_sizes, k: int, seed: int = 0, **kwargs) -> EnsembleModel:
    if k < 1:
        raise ValueError(f"ensemble size must be >= 1, got {k}")
    seeds = np.random.SeedSequence(seed).generate_state(k)
    return EnsembleModel([init_mlp(layer_sizes, seed=int(s), **kwargs) for s in seeds])


def ensemble_predict_proba(ens: EnsembleModel, x) -> Array:
    """Exact arithmetic mean of member softmax outputs (eval mode)."""
    probs = [softmax(forward(m, x)) for m in ens.members]
    return sum(probs) / len(probs)


def ensemble_cross_entropy(ens: EnsembleModel, x, labels) -> Array:
    """-log of the mean member probability of the true class, computed stably.

    Uses logsumexp over member log-probabilities so a single saturated member
    cannot underflow the mean to zero.
    """
    y = _as_labels(labels, ens.members[0].n_classes)
    logp = np.stack([log_softmax(forward(m, x)) for m in ens.members])
    picked = logp[:, np.arange(logp.shape[1]), y]  # (k, batch)
    m = picked.max(axis=0)
    lse = m + np.log(np.exp(picked - m).sum(axis=0))
    return math.log(len(ens.members)) - lse


def save_model(model: MlpModel, path) -> None:
    arrays = {f"w{l}": model.weights[l] for l in range(model.n_layers)}
    arrays.update({f"b{l}": model.biases[l] for l in range(model.n_layers)})
    meta = dict(
        layer_sizes=np.asarray(model.layer_sizes, dtype=np.int64),
        dropout_rate=np.float64(model.dropout_rate),
        has_bn=np.int64(model.batchnorm is not None),
    )
    if model.batchnorm is not None:
        for l, bn in enumerate(model.batchnorm):
            arrays[f"bn{l}_gamma"] = bn.gamma
            arrays[f"bn{l}_beta"] = bn.beta
            arrays[f"bn{l}_rmean"] = bn.running_mean
            arrays[f"bn{l}_rvar"] = bn.running_var
        meta["bn_momentum"] = np.float64(model.batchnorm[0].momentum)
        meta["bn_eps"] = np.float64(model.batchnorm[0].eps)
    np.savez(path, **arrays, **meta)


def load_model(path) -> MlpModel:
    with np.load(path) as z:
        sizes = tuple(int(s) for s in z["layer_sizes"])
        n_layers = len(sizes) - 1
        weights = [z[f"w{l}"].copy() for l in range(n_layers)]
        biases = [z[f"b{l}"].copy() for l in range(n_layers)]
        bn = None
        if int(z["has_bn"]):
            bn = [
                BatchNormLayer(
                    z[f"bn{l}_gamma"].copy(),
                    z[f"bn{l}_beta"].copy(),
                    z[f"bn{l}_rmean"].copy(),
                    z[f"bn{l}_rvar"].copy(),
                    momentum=float(z["bn_momentum"]),
                    eps=float(z["bn_eps"]),
                )
                for l in range(n_layers - 1)
            ]
        return MlpModel(sizes, weights, biases, dropout_rate=float(z["dropout_rate"]), batchnorm=bn)
