"""Dense multilayer perceptrons on float64 numpy arrays, with hand-written backprop.

A model keeps its trainable parameters in one flat float64 vector, `params`,
in `parameters` order; its weights, biases and batch-norm gamma/beta are
views of that vector, and running statistics are arrays of their own.
`backward` returns its gradient as one fresh vector of the same layout, so an
optimizer updates `params` in place from it without gathering or scattering;
`param_views` names the parts of either vector. Forward passes distinguish the
dropout mode ("train"/"eval") from the batch-normalization statistics source
("batch"/"running"), because batch selection and model updates legitimately
combine them differently: scoring a candidate batch wants deterministic
activations but fresh batch statistics, while a training step wants both.

A stacked model (`stack_models`) carries k same-shaped members along a
leading axis of every parameter (`params` is member-major, (k, P)), so one
call per layer op serves all of them.
Its input is either one (n, d) batch shared by every member or a (k, b, d)
batch per member, and member j computes, bit for bit, what the model it was
stacked from computes on its slice.

A forward pass that keeps no cache for a backward (`forward`, everything
built on it, and each sample of `mc_dropout_predict`) writes its hidden
layers into two float64 buffers that belong to the process, alternating
between layers, instead of allocating them per call: at a few hundred KB and
more, fresh arrays go back to the system between calls and are page-faulted
in again on the next. The buffers only grow, no caller ever sees them
(logits are a fresh array on every call), and the same GEMMs and ufuncs run
into them, so results are bit for bit those of fresh arrays. They are not
thread-safe: run concurrent passes in separate processes, as `rholoss run
--jobs` does. `backward` keeps its activations and allocates them per call.
The Monte-Carlo dropout pass is not built on `forward`: its first hidden
layer comes before any mask, so it computes that layer once per call, into
an array of its own, and runs only the rest per sample. It shares with
`_forward_cache` one recipe per layer op (`_hidden_layer`, `_dropout_mask`,
`_output_layer`).

`backward` and `per_example_grad_norm` share one walk down the cached
layers (`_backprop`). The norm is the grad-norm policies' score, and it
needs no gradient array: for one row, a dense layer's weight gradient is
the outer product of its input a_in and its delta d, so its squared norm is
||a_in||^2 * ||d||^2, and the bias adds ||d||^2; a batch-norm layer adds
||dout * xhat||^2 for gamma and ||dout||^2 for beta (Goodfellow 2015,
arXiv:1510.01799). That holds row by row only while every row passes
through the network alone, so the norms are taken in eval mode (no dropout
masks) with running statistics (no batch coupling).
"""
from __future__ import annotations

import functools
import math
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from .records import atomic_write

Array = np.ndarray


class NonFiniteLogitsError(ValueError):
    """A forward pass produced NaN or infinite logits, as when training diverges."""


@contextmanager
def diverging_at(place: str):
    """Name the place (a fit, an epoch, a ladder step) in the message of a
    NonFiniteLogitsError raised inside; nested places read outermost first."""
    try:
        yield
    except NonFiniteLogitsError as exc:
        raise NonFiniteLogitsError(f"{place}: {exc}") from exc


_MODES = ("train", "eval")
_BN_SOURCES = ("batch", "running")


def _as_batch(x, width: int, stack: tuple[int, ...]) -> Array:
    """A finite float batch: (n, width), or for a stack of k also (k, b, width)."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape[-1:] != (width,) or not (x.ndim == 2 or (stack and x.ndim == 3 and x.shape[0] == stack[0])):
        per_member = f" or 3-D with {stack[0]} members" if stack else ""
        raise ValueError(f"x must be 2-D{per_member} with {width} columns, got shape {x.shape}")
    if not np.isfinite(x).all():
        raise ValueError("x contains non-finite values")
    return x


def _as_labels(labels, n_classes: int, rows: tuple[int, ...]) -> Array:
    """Integer labels for logits whose leading shape is rows: (n,), or for a
    stack (k, n) with labels of shape (n,) shared or (k, n) per member."""
    y = np.asarray(labels, dtype=np.int64)
    if len(rows) == 1:
        y = y.ravel()
    if y.shape != rows[-y.ndim :]:
        raise ValueError(f"got {rows[-1]} examples but labels of shape {y.shape}")
    if y.size and (y.min() < 0 or y.max() >= n_classes):
        raise ValueError(f"labels must lie in [0, {n_classes}), got range [{y.min()}, {y.max()}]")
    return y


def _at_labels(z: Array, y: Array) -> tuple:
    """Index of each row's label entry in (n, c) or stacked (k, n, c) logits."""
    rows = np.arange(z.shape[-2])
    return (rows, y) if z.ndim == 2 else (np.arange(z.shape[0])[:, None], rows, y)


def softmax(logits: Array) -> Array:
    """Row-wise softmax over the last axis, stable under large logits."""
    z = np.asarray(logits, dtype=np.float64)
    z = z - z.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def log_softmax(logits: Array) -> Array:
    z = np.asarray(logits, dtype=np.float64)
    m = z.max(axis=-1, keepdims=True)
    return z - m - np.log(np.exp(z - m).sum(axis=-1, keepdims=True))


def cross_entropy(logits: Array, labels) -> Array:
    """Per-example negative log-likelihood of the integer labels.

    Computed as logsumexp(logits) - logits[label] with max subtraction, so the
    result is finite and nonnegative by construction for any finite logits.
    Stacked (k, n, c) logits give a (k, n) result.
    """
    z = np.asarray(logits, dtype=np.float64)
    if z.ndim not in (2, 3):
        raise ValueError(f"logits must be 2-D, or 3-D for a stack, got shape {z.shape}")
    y = _as_labels(labels, z.shape[-1], z.shape[:-1])
    m = z.max(axis=-1)
    lse = m + np.log(np.exp(z - m[..., None]).sum(axis=-1))
    return lse - z[_at_labels(z, y)]


@dataclass
class BatchNormLayer:
    """Per-feature affine normalization with running statistics. gamma and
    beta are views of the owning model's `params`, bound by `MlpModel`."""

    running_mean: Array
    running_var: Array
    momentum: float = 0.1
    eps: float = 1e-5
    gamma: Array = field(init=False, repr=False)
    beta: Array = field(init=False, repr=False)


@functools.cache
def _layout(sizes: tuple[int, ...], batchnorm: bool) -> tuple[tuple[str, int, int, tuple[int, ...]], ...]:
    """(name, start, stop, shape) of every trainable array in a flat vector,
    in `parameters` order: w0, b0, w1, b1, ..., then each batch-norm layer's
    gamma and beta."""
    shapes = [
        (f"{kind}{l}", shape)
        for l, (fan_in, fan_out) in enumerate(zip(sizes[:-1], sizes[1:]))
        for kind, shape in (("w", (fan_in, fan_out)), ("b", (fan_out,)))
    ]
    if batchnorm:
        shapes += [(f"bn{l}_{kind}", (width,)) for l, width in enumerate(sizes[1:-1]) for kind in ("gamma", "beta")]
    layout, start = [], 0
    for name, shape in shapes:
        layout.append((name, start, start + math.prod(shape), shape))
        start += math.prod(shape)
    return tuple(layout)


@dataclass
class MlpModel:
    """Fully connected rectifier network; the last layer emits raw logits.

    Hidden layers apply, in order: linear, optional batch normalization,
    ReLU, optional dropout. The output layer is purely linear. params holds
    every trainable value; weights, biases and the batch-norm layers' gamma
    and beta are views of it, bound at construction and again for a copy or
    an unpickled model, so write through them in place.
    """

    layer_sizes: tuple[int, ...]
    params: Array
    dropout_rate: float = 0.0
    batchnorm: list[BatchNormLayer] | None = None
    weights: list[Array] = field(init=False, repr=False)
    biases: list[Array] = field(init=False, repr=False)

    def __post_init__(self):
        size = _layout(self.layer_sizes, self.batchnorm is not None)[-1][2]  # where the last array stops
        p = self.params
        if p.dtype != np.float64 or p.ndim not in (1, 2) or p.shape[-1] != size:
            raise ValueError(f"params must be float64 of shape ({size},) or (k, {size}), got {p.dtype} {p.shape}")
        views = parameters(self)
        self.weights = [views[f"w{l}"] for l in range(self.n_layers)]
        self.biases = [views[f"b{l}"] for l in range(self.n_layers)]
        for l, bn in enumerate(self.batchnorm or ()):
            bn.gamma, bn.beta = views[f"bn{l}_gamma"], views[f"bn{l}_beta"]

    def __getstate__(self):
        """Copies and pickles carry params; the views are bound anew from it."""
        return {key: value for key, value in self.__dict__.items() if key not in ("weights", "biases")}

    def __setstate__(self, state):
        self.__dict__.update(state)
        self.__post_init__()

    @property
    def input_dim(self) -> int:
        return self.layer_sizes[0]

    @property
    def n_classes(self) -> int:
        return self.layer_sizes[-1]

    @property
    def n_layers(self) -> int:
        return len(self.layer_sizes) - 1

    @property
    def stack(self) -> tuple[int, ...]:
        """(k,) for a stack of k members, () for an ordinary model."""
        return self.params.shape[:-1]


def init_mlp(
    layer_sizes,
    seed: int = 0,
    dropout_rate: float = 0.0,
    batchnorm: bool = False,
) -> MlpModel:
    """Seeded uniform init in [-1/sqrt(fan_in), +1/sqrt(fan_in)] for weights
    and biases; batch-norm gamma starts at 1 and beta at 0."""
    sizes = tuple(int(s) for s in layer_sizes)
    if len(sizes) < 2 or any(s < 1 for s in sizes):
        raise ValueError(f"layer_sizes needs >= 2 positive widths, got {sizes}")
    if not 0.0 <= dropout_rate < 1.0:
        raise ValueError(f"dropout_rate must lie in [0, 1), got {dropout_rate}")
    bn = [BatchNormLayer(np.zeros(w), np.ones(w)) for w in sizes[1:-1]] if batchnorm else None
    size = _layout(sizes, bn is not None)[-1][2]  # where the last array stops
    model = MlpModel(sizes, np.zeros(size), dropout_rate=dropout_rate, batchnorm=bn)
    rng = np.random.default_rng(seed)
    for w, b in zip(model.weights, model.biases):
        bound = 1.0 / math.sqrt(w.shape[0])
        w[...] = rng.uniform(-bound, bound, size=w.shape)
        b[...] = rng.uniform(-bound, bound, size=b.shape)
    for layer in bn or ():
        layer.gamma[...] = 1.0
    return model


def param_views(model: MlpModel, flat: Array) -> dict[str, Array]:
    """Views of flat, a vector laid out like model.params ((P,), or (k, P)
    for a stack), keyed by parameter name and shaped like the parameters,
    in `parameters` order. An optimizer's moment vectors read the same way."""
    lead = flat.shape[:-1]
    return {
        name: flat[..., start:stop].reshape(*lead, *shape)
        for name, start, stop, shape in _layout(model.layer_sizes, model.batchnorm is not None)
    }


def parameters(model: MlpModel) -> dict[str, Array]:
    """Live views of every trainable array, in a stable order."""
    return param_views(model, model.params)


def _check_mode(mode: str, bn_stat_source: str) -> None:
    if mode not in _MODES:
        raise ValueError(f"mode must be one of {_MODES}, got {mode!r}")
    if bn_stat_source not in _BN_SOURCES:
        raise ValueError(f"bn_stat_source must be one of {_BN_SOURCES}, got {bn_stat_source!r}")


def _bn_forward(bn: BatchNormLayer, z: Array, source: str, update_running: bool, in_place: bool):
    """Normalize z; in place (into z) when in_place, which the cache-free pass
    asks for, and into fresh arrays that the backward cache keeps otherwise."""
    if source == "batch":
        if z.shape[0] < 2:
            raise ValueError("batch statistics need a batch of size >= 2")
        mu = z.mean(axis=0)
        var = z.var(axis=0)
        inv = 1.0 / np.sqrt(var + bn.eps)
        if update_running:
            n = z.shape[0]
            bn.running_mean = (1.0 - bn.momentum) * bn.running_mean + bn.momentum * mu
            bn.running_var = (1.0 - bn.momentum) * bn.running_var + bn.momentum * var * n / (n - 1)
    else:
        mu = bn.running_mean
        inv = 1.0 / np.sqrt(bn.running_var + bn.eps)
    out = z if in_place else None
    centered = np.subtract(z, mu, out=out)
    xhat = np.multiply(centered, inv, out=out)
    h = np.multiply(bn.gamma, xhat, out=out)
    h += bn.beta
    return h, {"source": source, "xhat": xhat, "inv": inv, "centered": centered}


def _bn_backward(bn: BatchNormLayer, cache: dict, dout: Array) -> Array:
    """The gradient w.r.t. the normalized layer's input, given dout w.r.t.
    its output."""
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
    return dz


_scratch = [np.empty(0), np.empty(0)]  # the cache-free pass's hidden-layer buffers


def _scratch_view(i: int, shape: tuple[int, ...]) -> Array:
    """A C-contiguous (shape) view of scratch buffer i. A buffer too small
    grows to at least twice its size, so passes that grow a little each call
    (the ladder's IL loss pass) reallocate it a few times, not every call."""
    size = math.prod(shape)
    if _scratch[i].size < size:
        _scratch[i] = np.empty(max(size, 2 * _scratch[i].size))
    return _scratch[i][:size].reshape(shape)


def _hidden_shape(model: MlpModel, l: int, a: Array) -> tuple[int, ...]:
    """Shape of hidden layer l's output on input a (a stack's is (k, n, width))."""
    w = model.weights[l]
    return (*w.shape[:-2], a.shape[-2], w.shape[-1])


def _hidden_layer(model: MlpModel, l: int, a: Array, bn_stat_source: str, update_running: bool, out=None):
    """Hidden layer l up to its dropout: a @ w + b, optional batch
    normalization, ReLU. With out, everything runs in place in out; without,
    into fresh arrays that the backward cache can keep. Returns (h, the
    batch-norm cache or None)."""
    z = np.matmul(a, model.weights[l], out=out)
    z += model.biases[l][..., None, :]
    bn = None
    if model.batchnorm is not None:
        z, bn = _bn_forward(model.batchnorm[l], z, bn_stat_source, update_running, out is not None)
    return np.maximum(z, 0.0, out=z), bn  # in place: no cache keeps the matmul's or batch norm's output


def _dropout_mask(shape: tuple[int, ...], rate: float, rng: np.random.Generator, out=None) -> Array:
    """An inverted-dropout mask: 1/(1 - rate) where a uniform draw from rng
    falls below 1 - rate, else 0, drawn into out or a fresh array. Multiplying
    by the rounded 1/(1 - rate) gives the same bits as dividing by 1 - rate."""
    keep = 1.0 - rate
    return np.multiply(np.less(rng.random(shape, out=out), keep, out=out), 1.0 / keep, out=out)


def _output_layer(model: MlpModel, a: Array) -> Array:
    """Logits a @ w + b of the last layer, in a fresh array, refused when not finite."""
    z = np.matmul(a, model.weights[-1])
    z += model.biases[-1][..., None, :]
    if not np.isfinite(z).all():
        raise NonFiniteLogitsError("forward pass produced non-finite logits")
    return z


def _check_rng(model: MlpModel, rng) -> None:
    if model.dropout_rate > 0.0 and rng is None:
        raise ValueError(f"rng is None, but dropout {model.dropout_rate} in train mode draws masks")


def _forward_cache(model, x, mode, bn_stat_source, rng, update_running, keep_cache=True):
    """Logits, and the per-layer cache that backward needs when keep_cache.

    Without a cache, hidden layer l is computed in place in scratch buffer
    l % 2 and never leaves the call; the other buffer, which holds the
    layer's input until its matmul is done, then takes the dropout draws.
    """
    _check_mode(mode, bn_stat_source)
    x = _as_batch(x, model.input_dim, model.stack)
    use_dropout = mode == "train" and model.dropout_rate > 0.0
    if use_dropout:
        _check_rng(model, rng)
    a = x
    cache = []
    for l in range(model.n_layers - 1):
        out = None if keep_cache else _scratch_view(l % 2, _hidden_shape(model, l, a))
        layer = {"a_in": a}
        a, layer["bn"] = _hidden_layer(model, l, a, bn_stat_source, update_running, out)
        if use_dropout:
            out = None if keep_cache else _scratch_view((l + 1) % 2, a.shape)
            layer["mask"] = _dropout_mask(a.shape, model.dropout_rate, rng, out)
            a = np.multiply(a, layer["mask"], out=a)
        cache.append(layer)
    cache.append({"a_in": a})
    return _output_layer(model, a), cache if keep_cache else []


def forward(
    model: MlpModel,
    x,
    mode: str = "eval",
    bn_stat_source: str = "running",
    rng: np.random.Generator | None = None,
) -> Array:
    """Logits for a batch.

    mode controls dropout only (identity in eval mode); rng draws its masks
    and is required when they are drawn. bn_stat_source picks whether batch
    normalization uses statistics of this batch or the stored running ones.
    Running statistics move only in a training step's `backward`, so scoring
    passes never perturb the model.
    """
    logits, _ = _forward_cache(model, x, mode, bn_stat_source, rng, False, keep_cache=False)
    return logits


def predict_labels(model: MlpModel, x) -> Array:
    return np.argmax(forward(model, x), axis=1)


def batched_logits(model: MlpModel, x, batch_size: int) -> Array:
    """Eval-mode logits with running statistics, batch_size rows per forward.

    Logits can differ in the last bit between batch sizes, so each caller
    keeps one fixed size.
    """
    x = np.asarray(x, dtype=np.float64)
    starts = range(0, max(len(x), 1), batch_size)  # one (empty) forward for an empty x
    return np.concatenate([forward(model, x[start : start + batch_size]) for start in starts])


def evaluate(model: MlpModel, test, batch_size: int = 1024) -> tuple[float, float]:
    """(accuracy, mean cross-entropy) on a labelled set, eval mode, running stats."""
    logits = batched_logits(model, test.features, batch_size)
    correct = int((np.argmax(logits, axis=1) == test.labels).sum())
    return correct / test.n, float(cross_entropy(logits, test.labels).mean())


def _output_delta(logits: Array, y: Array) -> Array:
    """softmax(logits) minus the one-hot labels: each row's loss gradient
    w.r.t. its logits."""
    d = softmax(logits)
    d[_at_labels(d, y)] -= 1.0
    return d


def _backprop(model: MlpModel, cache: list, d: Array):
    """Walk the cached layers from the top, starting from d, the gradient
    w.r.t. the logits. Yields (l, a_in, d, bn) for each layer l, last first:
    the layer's input, the gradient w.r.t. its linear output a_in @ w + b,
    and for a batch-normalized layer the pair (gradient w.r.t. the normalized
    output, xhat), else None. Layer l's parameter gradients are a_in.T @ d,
    the row sum of d and, from bn, the row sums of dout * xhat and dout."""
    for l in reversed(range(model.n_layers)):
        layer = cache[l]
        bn = None
        if l < model.n_layers - 1:
            if "mask" in layer:
                d = d * layer["mask"]
            d = d * (cache[l + 1]["a_in"] > 0)  # the ReLU gate: where a mask zeroed a_in it zeroed d too
            if layer["bn"] is not None:
                bn = (d, layer["bn"]["xhat"])
                d = _bn_backward(model.batchnorm[l], layer["bn"], d)
        yield l, layer["a_in"], d, bn
        if l > 0:
            d = d @ model.weights[l].swapaxes(-1, -2)


def backward(
    model: MlpModel,
    x,
    labels,
    mode: str = "train",
    bn_stat_source: str = "batch",
    rng: np.random.Generator | None = None,
    update_running: bool = False,
    sample_weights=None,
) -> Array:
    """Gradient of the mean cross-entropy over the batch w.r.t. every parameter,
    as one vector laid out like model.params: (P,), or (k, P) for a stack.
    update_running, with batch statistics, also moves the running ones.

    sample_weights, when given, reweight the per-example losses inside the
    mean (used by importance-sampling policies; weights are expected to
    average to 1 so the gradient scale matches the unweighted mean).
    """
    logits, cache = _forward_cache(model, x, mode, bn_stat_source, rng, update_running)
    b = logits.shape[-2]
    d = _output_delta(logits, _as_labels(labels, model.n_classes, logits.shape[:-1]))
    if sample_weights is None:
        d /= b
    else:
        w = np.asarray(sample_weights, dtype=np.float64).ravel()
        if w.size != b:
            raise ValueError(f"got {b} examples but {w.size} sample weights")
        d *= (w / b)[:, None]
    flat = np.empty_like(model.params)
    grads = param_views(model, flat)
    for l, a_in, d, bn in _backprop(model, cache, d):
        if bn is not None:
            dout, xhat = bn
            np.multiply(dout, xhat).sum(axis=0, out=grads[f"bn{l}_gamma"])
            dout.sum(axis=0, out=grads[f"bn{l}_beta"])
        np.matmul(a_in.swapaxes(-1, -2), d, out=grads[f"w{l}"])
        d.sum(axis=-2, out=grads[f"b{l}"])
    return flat


def per_example_grad_norm(model: MlpModel, x, y) -> Array:
    """Euclidean norm of each row's loss gradient over the full parameter set,
    for a 2-D batch x with one label per row.

    Deterministic by construction: evaluated in eval mode with running batch
    statistics, so dropout and batch coupling never enter the score, and
    summed in closed form from the deltas of one backprop (see the module
    docstring).
    """
    if model.stack:
        raise ValueError("per_example_grad_norm takes one model; split a stack with nn.unstack")
    logits, cache = _forward_cache(model, x, "eval", "running", None, False)
    d = _output_delta(logits, _as_labels(y, model.n_classes, logits.shape[:-1]))
    a_sq = np.empty((len(logits), model.n_layers))  # ||a_in||^2 per row and layer
    d_sq = np.empty_like(a_sq)  # ||d||^2
    bn_sq = np.zeros(len(logits))
    for l, a_in, d, bn in _backprop(model, cache, d):
        a_sq[:, l] = np.vecdot(a_in, a_in)
        d_sq[:, l] = np.vecdot(d, d)
        if bn is not None:
            dout, xhat = bn
            g = dout * xhat
            bn_sq += np.vecdot(g, g) + np.vecdot(dout, dout)
    a_sq[d_sq == 0.0] = 0.0  # a zero delta zeroes the weight gradient even where ||a_in||^2 overflowed
    return np.sqrt(np.vecdot(a_sq + 1.0, d_sq) + bn_sq)


def mc_dropout_predict(
    model: MlpModel, x, samples: int, rng: np.random.Generator | None = None
) -> Array:
    """Stack of `samples` stochastic softmax outputs under active dropout.

    Batch normalization, if present, uses running statistics; only the
    dropout masks, drawn from rng, vary between samples. Sample s draws its
    masks after sample s - 1's, layer by layer from the input up, so the
    samples and rng's end state are bit for bit those of `samples` successive
    `softmax(forward(model, x, mode="train", bn_stat_source="running", rng=rng))`
    calls. The first hidden layer precedes every mask, so it is computed once.
    Returns shape (samples, batch, classes), or (samples, k, batch, classes)
    for a stack of k.
    """
    if samples < 1:
        raise ValueError(f"samples must be >= 1, got {samples}")
    x = _as_batch(x, model.input_dim, model.stack)
    _check_rng(model, rng)
    first = x
    if model.n_layers > 1:
        first, _ = _hidden_layer(model, 0, x, "running", False, np.empty(_hidden_shape(model, 0, x)))
    probs = np.empty((samples, *model.stack, x.shape[-2], model.n_classes))
    for s in range(samples):
        a = first
        for l in range(model.n_layers - 1):
            if l > 0:
                a, _ = _hidden_layer(model, l, a, "running", False, _scratch_view(l % 2, _hidden_shape(model, l, a)))
            if model.dropout_rate > 0.0:
                mask = _dropout_mask(a.shape, model.dropout_rate, rng, _scratch_view((l + 1) % 2, a.shape))
                a = np.multiply(a, mask, out=_scratch_view(l % 2, a.shape))
        probs[s] = softmax(_output_layer(model, a))
    return probs


def stack_models(models) -> MlpModel:
    """One model holding `models` along a leading member axis, in order.

    Batch normalization and dropout are rejected: a stack keeps no per-member
    running statistics and draws no per-member dropout masks.
    """
    models = list(models)
    if not models:
        raise ValueError("a stack needs at least one model")
    sizes = models[0].layer_sizes
    if any(m.layer_sizes != sizes for m in models):
        raise ValueError("stacked models must share layer sizes")
    if any(m.batchnorm is not None or m.dropout_rate > 0.0 or m.stack for m in models):
        raise ValueError("only ordinary models without batch normalization or dropout can be stacked")
    return MlpModel(sizes, np.stack([m.params for m in models]))


def unstack(model: MlpModel) -> list[MlpModel]:
    """The members of a stacked model as ordinary models whose params are
    row views of the stack's.

    On a large shared batch, one forward per member is the faster choice: the
    stacked hidden layers are k times larger, and at a few MB they no longer
    stay in cache between a layer's matmul, bias, ReLU and the next matmul.
    """
    if not model.stack:
        raise ValueError("unstack needs a stacked model")
    return [MlpModel(model.layer_sizes, row) for row in model.params]


def ensemble_cross_entropy(model: MlpModel, x, labels) -> Array:
    """-log of the mean member probability of the true class under a stacked
    model, on the batch x shared by its members.

    Uses logsumexp over member log-probabilities so a single saturated member
    cannot underflow the mean to zero.
    """
    members = unstack(model)
    logp = np.stack([log_softmax(forward(m, x)) for m in members])
    picked = logp[_at_labels(logp, _as_labels(labels, model.n_classes, logp.shape[1:-1]))]  # (k, batch)
    m = picked.max(axis=0)
    lse = m + np.log(np.exp(picked - m).sum(axis=0))
    return math.log(len(members)) - lse


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
    with atomic_write(path, binary=True) as f:
        np.savez(f, **arrays, **meta)


def load_model(path) -> MlpModel:
    with np.load(path) as z:
        sizes = tuple(int(s) for s in z["layer_sizes"])
        bn = None
        if int(z["has_bn"]):
            bn = [
                BatchNormLayer(
                    z[f"bn{l}_rmean"], z[f"bn{l}_rvar"], momentum=float(z["bn_momentum"]), eps=float(z["bn_eps"])
                )
                for l in range(len(sizes) - 2)
            ]
        params = np.concatenate([z[name].ravel() for name, *_ in _layout(sizes, bn is not None)])
        return MlpModel(sizes, params, dropout_rate=float(z["dropout_rate"]), batchnorm=bn)
