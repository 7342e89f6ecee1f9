"""SGD and AdamW (decoupled weight decay) on a model's flat parameter vector.

A model keeps its parameters in one flat vector, `params`, and `backward`
returns its gradients as views of one vector of the same layout
(`nn.Gradients`). A step updates `params` in place from that vector with
whole-vector ufuncs; a name-keyed mapping of gradient arrays without the
vector is checked and gathered into one first. Each element's result does
not depend on how the parameters are split into arrays.

AdamW at step t, with bc1 = 1 - b1**t and c2 = sqrt(1 - b2**t), is

    m <- b1*m + (1-b1)*g;  v <- b2*v + ((1-b2)*g)*g
    p <- p * (1 - lr*wd)
    p <- p - (lr*c2/bc1) * m / (sqrt(v) + eps*c2)

This is the textbook p - lr*wd*p - lr*(m/bc1) / (sqrt(v/bc2) + eps) with
the bias corrections folded into two scalars, since sqrt(v/bc2) + eps =
(sqrt(v) + eps*c2) / c2 (Kingma & Ba, section 2), and the decoupled decay
as a plain scale of p (Loshchilov & Hutter). Only the rounding differs, by
a few ulps of |p| + |step|. A step then makes one elementwise division,
where the textbook form makes three, and needs one scratch vector.
The decay scales p before the adaptive term is taken off, so the term
itself is not decayed and the two lines sum to the textbook update. The
decay is skipped at wd = 0, and the whole parameter update at lr = 0, where
a step of -0 would turn a -0 parameter into +0.

For a stacked model (`nn.stack_models`) the vectors are member-major
(k, P), and each member keeps its own step count, so a member left out of a
step by the `active` mask resumes later exactly as if trained alone.

`train_step` is the one training step: the trainer, the live IL model, the
minibatch epoch and the ladder all take it.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .nn import Gradients, MlpModel, backward, parameters

OPTIMIZER_KINDS = ("sgd", "adamw")

# The layer sizes, the batch-norm flag and the shape of params: what fixes
# the layout of a model's flat vector.
Layout = tuple[tuple[int, ...], bool, tuple[int, ...]]


def _bias_correction(beta: float, counts: list[int]) -> float | np.ndarray:
    """1 - beta**t for the step counts of the stepping members: a float when
    they agree, else a (k, 1) column. Each power is Python's float power of an
    int, which numpy's array power does not match in the last bit for every
    t."""
    if min(counts) == max(counts):
        return 1.0 - beta ** counts[0]
    return np.array([1.0 - beta**t for t in counts])[:, None]


@dataclass
class OptimizerState:
    """Hyperparameters, step count and, for AdamW, the moment vectors.

    The moments are flat vectors laid out like the params of the model they
    were built for (`layout`); `nn.param_views` gives them back keyed by
    parameter name. For a stacked model step_count becomes a list of one
    count per member on the first step.
    """

    kind: str
    learning_rate: float
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    weight_decay: float = 0.0
    step_count: int | list[int] = 0
    layout: Layout | None = None
    flat_exp_avg: np.ndarray | None = None
    flat_exp_avg_sq: np.ndarray | None = None


def make_optimizer(
    kind: str,
    learning_rate: float,
    weight_decay: float = 0.0,
    beta1: float = 0.9,
    beta2: float = 0.999,
    eps: float = 1e-8,
) -> OptimizerState:
    if kind not in OPTIMIZER_KINDS:
        raise ValueError(f"optimizer kind must be one of {OPTIMIZER_KINDS}, got {kind!r}")
    if learning_rate < 0:
        raise ValueError(f"learning rate must be >= 0, got {learning_rate}")
    # at beta = 1 a bias correction is 0; at eps = 0 a gradient entry that was always 0 gives 0/0
    for name, beta in (("beta1", beta1), ("beta2", beta2)):
        if not 0.0 <= beta < 1.0:
            raise ValueError(f"{name} must be in [0, 1), got {beta}")
    if not 0.0 < eps < math.inf:
        raise ValueError(f"eps must be finite and > 0, got {eps}")
    return OptimizerState(kind, learning_rate, beta1=beta1, beta2=beta2, eps=eps, weight_decay=weight_decay)


def _flat_gradient(model: MlpModel, grads) -> np.ndarray:
    """The gradient as one vector laid out like model.params: the vector of
    `nn.Gradients` as it is, else the name-keyed arrays checked and gathered."""
    if isinstance(grads, Gradients):
        g = grads.flat
        if g.shape != model.params.shape:
            raise ValueError(f"gradient vector shape {g.shape} does not match params shape {model.params.shape}")
        return g
    params = parameters(model)
    for name, p in params.items():
        if name not in grads:
            raise ValueError(f"missing gradient for parameter {name!r}")
        g = grads[name]
        if g.shape != p.shape:
            raise ValueError(f"gradient shape {g.shape} does not match parameter {name!r} shape {p.shape}")
    return np.concatenate([grads[name].reshape(*model.stack, -1) for name in params], axis=-1)


def optimizer_step(state: OptimizerState, model: MlpModel, grads: dict[str, np.ndarray], active=None):
    """Apply one update to model.params in place; returns (model, state) for chaining.

    SGD is the bare rule p <- p - lr * g. AdamW scales p by 1 - lr * wd
    (decoupled weight decay), then takes the bias-corrected adaptive term off
    it, as the module docstring gives. Moment vectors are allocated lazily on
    the first step; a later step on a different parameter layout raises
    ValueError. For a stacked model, active is an optional boolean mask over
    the members: the parameters, moments and step count of a member outside
    it stay untouched. The gradient arrays are only read.
    """
    g = _flat_gradient(model, grads)
    layout = (model.layer_sizes, model.batchnorm is not None, model.params.shape)
    if state.kind == "adamw" and state.layout is not None and layout != state.layout:
        raise ValueError(f"parameter layout {layout} differs from the one the moments were built for {state.layout}")
    stack = model.stack
    if active is not None and not stack:
        raise ValueError("an active-member mask needs a stacked model")
    if stack and isinstance(state.step_count, int):
        state.step_count = [state.step_count] * stack[0]
    # None when every member steps; else the stepping members, whose rows of
    # the flat vectors are worked on as copies and scattered back.
    rows = None if active is None or np.all(active) else np.flatnonzero(active)
    if rows is not None and rows.size == 0:
        return model, state
    if state.kind == "adamw" and state.layout is None:
        state.layout = layout
        state.flat_exp_avg = np.zeros_like(model.params)
        state.flat_exp_avg_sq = np.zeros_like(model.params)
    p = model.params
    if not stack:
        state.step_count += 1
    elif rows is None:
        state.step_count = [t + 1 for t in state.step_count]
    else:
        p, g = p[rows], g[rows]
        for j in rows:
            state.step_count[j] += 1
    s = np.empty_like(p)  # scratch
    lr = state.learning_rate
    if state.kind == "sgd":
        np.multiply(g, lr, out=s)
        p -= s
    else:
        m, v = state.flat_exp_avg, state.flat_exp_avg_sq
        t = state.step_count if stack else [state.step_count]
        if rows is not None:
            m, v, t = m[rows], v[rows], [t[j] for j in rows]
        # m <- b1*m + (1-b1)*g;  v <- b2*v + ((1-b2)*g)*g
        m *= state.beta1
        np.multiply(g, 1.0 - state.beta1, out=s)
        m += s
        v *= state.beta2
        np.multiply(g, 1.0 - state.beta2, out=s)
        s *= g
        v += s
        if lr != 0.0:  # at 0 the step is +-0, and p - (-0) would turn a -0 parameter into +0
            bc1 = _bias_correction(state.beta1, t)
            c2 = np.sqrt(_bias_correction(state.beta2, t))
            if state.weight_decay != 0.0:
                p *= 1.0 - lr * state.weight_decay
            # p <- p - (lr*c2/bc1) * m / (sqrt(v) + eps*c2)
            np.sqrt(v, out=s)
            s += state.eps * c2
            np.divide(m, s, out=s)
            s *= lr * c2 / bc1
            p -= s
        if rows is not None:
            state.flat_exp_avg[rows] = m
            state.flat_exp_avg_sq[rows] = v
    if rows is not None:
        model.params[rows] = p
    return model, state


def train_step(model: MlpModel, opt: OptimizerState, x, y, rng=None, sample_weights=None, active=None) -> None:
    """The one training step: backward in train mode with batch statistics,
    which also update the running ones, then `optimizer_step`. rng draws the
    dropout masks; sample_weights and active are as in backward and optimizer_step."""
    grads = backward(
        model, x, y, mode="train", bn_stat_source="batch", rng=rng, update_running=True, sample_weights=sample_weights
    )
    optimizer_step(opt, model, grads, active)


def train_epoch(model: MlpModel, opt: OptimizerState, x, y, batch_size: int, rng, active=None, rows=None) -> None:
    """One shuffled pass over a training set in minibatches, one `train_step` each.

    The training set is all of (x, y), or the rows of x and y that rows
    names. rng draws the permutation and any dropout masks. A stacked model
    takes one generator per member as rng, the optional active mask of
    `optimizer_step`, and rows as a (k, n) index array, one training set per
    member: each active member shuffles its own set with its own generator
    and steps on its own minibatches, while the others draw nothing and stay
    untouched. Members that share a set index the same rows of x, so no
    data is copied per member.
    """
    n = x.shape[0] if rows is None else rows.shape[-1]
    if model.stack:
        on = np.ones(model.stack, dtype=bool) if active is None else active
        perm = np.stack([r.permutation(n) if a else np.arange(n) for r, a in zip(rng, on, strict=True)])
        rng = None  # a stack has no dropout
        active = None if on.all() else on
    else:
        perm = rng.permutation(n)
    if rows is not None:
        perm = np.take_along_axis(rows, perm, axis=-1)
    for start in range(0, n, batch_size):
        idx = perm[..., start : start + batch_size]
        train_step(model, opt, x[idx], y[idx], rng, active=active)
