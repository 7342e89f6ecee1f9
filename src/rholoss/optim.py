"""SGD and AdamW (decoupled weight decay) over named parameter dicts.

One step gathers the gradients and the parameters, in `nn.parameters` order,
into one flat vector each, updates the parameter vector with whole-vector
ufuncs, and copies it back into the parameter arrays. Every element goes
through the same operations in the same order as a per-parameter update, so
the result does not depend on how the parameters are split into arrays.

For a stacked model (`nn.stack_models`) the flat vectors are member-major
(k, P), and each member keeps its own step count, so a member left out of a
step by the `active` mask resumes later exactly as if trained alone.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .nn import MlpModel, backward, parameters

OPTIMIZER_KINDS = ("sgd", "adamw")

Layout = tuple[tuple[str, tuple[int, ...]], ...]


def _views(flat: np.ndarray, layout: Layout) -> dict[str, np.ndarray]:
    """Name-keyed views of a flat (P,) or member-major (k, P) vector, each
    shaped like its parameter."""
    views, start = {}, 0
    for name, shape in layout:
        stop = start + math.prod(shape[flat.ndim - 1 :])
        views[name] = flat[..., start:stop].reshape(shape)
        start = stop
    return views


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

    The moments are flat vectors over the parameter layout (names and shapes,
    in `nn.parameters` order) they were built for; exp_avg and exp_avg_sq
    give them back keyed by parameter name. For a stacked model step_count
    becomes a list of one count per member on the first step.
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

    @property
    def exp_avg(self) -> dict[str, np.ndarray]:
        return {} if self.flat_exp_avg is None else _views(self.flat_exp_avg, self.layout)

    @property
    def exp_avg_sq(self) -> dict[str, np.ndarray]:
        return {} if self.flat_exp_avg_sq is None else _views(self.flat_exp_avg_sq, self.layout)


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
    return OptimizerState(kind, learning_rate, beta1=beta1, beta2=beta2, eps=eps, weight_decay=weight_decay)


def optimizer_step(state: OptimizerState, model: MlpModel, grads: dict[str, np.ndarray], active=None):
    """Apply one update in place; returns (model, state) for chaining.

    SGD is the bare rule p <- p - lr * g. AdamW applies decoupled weight decay
    p <- p - lr * wd * p independently of the bias-corrected adaptive term.
    Moment vectors are allocated lazily on the first step; a later step on a
    different parameter layout raises ValueError. For a stacked model, active
    is an optional boolean mask over the members: the parameters, moments and
    step count of a member outside it stay untouched.
    """
    params = parameters(model)
    for name, p in params.items():
        if name not in grads:
            raise ValueError(f"missing gradient for parameter {name!r}")
        g = grads[name]
        if g.shape != p.shape:
            raise ValueError(f"gradient shape {g.shape} does not match parameter {name!r} shape {p.shape}")
    if state.kind == "adamw":
        layout = tuple((name, p.shape) for name, p in params.items())
        if state.layout is not None and layout != state.layout:
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
    whole = np.concatenate([q.reshape(*stack, -1) for q in params.values()], axis=-1)
    g = np.concatenate([grads[name].reshape(*stack, -1) for name in params], axis=-1)
    if state.kind == "adamw" and state.layout is None:
        state.layout = layout
        state.flat_exp_avg = np.zeros_like(whole)
        state.flat_exp_avg_sq = np.zeros_like(whole)
    p = whole
    if not stack:
        state.step_count += 1
    elif rows is None:
        state.step_count = [t + 1 for t in state.step_count]
    else:
        p, g = whole[rows], g[rows]
        for j in rows:
            state.step_count[j] += 1
    s = np.empty_like(p)  # scratch; g becomes the second scratch once the moments are updated
    lr = state.learning_rate
    if state.kind == "sgd":
        np.multiply(g, lr, out=s)
        p -= s
    else:
        m, v = state.flat_exp_avg, state.flat_exp_avg_sq
        t = state.step_count if stack else [state.step_count]
        if rows is not None:
            m, v, t = m[rows], v[rows], [t[j] for j in rows]
        bc1 = _bias_correction(state.beta1, t)
        bc2 = _bias_correction(state.beta2, t)
        # m <- b1*m + (1-b1)*g;  v <- b2*v + ((1-b2)*g)*g
        m *= state.beta1
        np.multiply(g, 1.0 - state.beta1, out=s)
        m += s
        v *= state.beta2
        np.multiply(g, 1.0 - state.beta2, out=s)
        s *= g
        v += s
        if state.weight_decay != 0.0:  # at 0, p - 0*p would turn a -0 parameter into +0
            np.multiply(p, lr * state.weight_decay, out=s)
            p -= s
        # p <- p - (lr*(m/bc1)) / (sqrt(v/bc2) + eps)
        np.divide(m, bc1, out=s)
        s *= lr
        np.divide(v, bc2, out=g)
        np.sqrt(g, out=g)
        g += state.eps
        s /= g
        p -= s
        if rows is not None:
            state.flat_exp_avg[rows] = m
            state.flat_exp_avg_sq[rows] = v
    if rows is not None:
        whole[rows] = p
    members = stack[0] if stack else 1
    start = 0
    for q in params.values():  # a member left out writes back its unchanged values
        stop = start + q.size // members
        q[...] = whole[..., start:stop].reshape(q.shape)
        start = stop
    return model, state


def train_epoch(model: MlpModel, opt: OptimizerState, x, y, batch_size: int, rng, active=None) -> None:
    """One shuffled pass over (x, y) in minibatches, one optimizer step each.

    Train mode with batch statistics, which also update the running ones; rng
    draws the permutation and any dropout masks. A stacked model takes one
    generator per member as rng, and the optional active mask of
    `optimizer_step`: each active member shuffles with its own generator and
    steps on its own minibatches, while the others draw nothing and stay
    untouched.
    """
    n = x.shape[0]
    if model.stack:
        on = np.ones(model.stack, dtype=bool) if active is None else active
        perm = np.stack([r.permutation(n) if a else np.arange(n) for r, a in zip(rng, on, strict=True)])
        rng = None  # a stack has no dropout
        active = None if on.all() else on
    else:
        perm = rng.permutation(n)
    for start in range(0, n, batch_size):
        idx = perm[..., start : start + batch_size]
        grads = backward(model, x[idx], y[idx], mode="train", bn_stat_source="batch", rng=rng, update_running=True)
        optimizer_step(opt, model, grads, active)
