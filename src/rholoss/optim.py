"""SGD and AdamW (decoupled weight decay) over named parameter dicts."""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .nn import MlpModel, parameters

OPTIMIZER_KINDS = ("sgd", "adamw")


@dataclass
class OptimizerState:
    kind: str
    learning_rate: float
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    weight_decay: float = 0.0
    exp_avg: dict[str, np.ndarray] = field(default_factory=dict)
    exp_avg_sq: dict[str, np.ndarray] = field(default_factory=dict)
    step_count: int = 0


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


def optimizer_step(state: OptimizerState, model: MlpModel, grads: dict[str, np.ndarray]):
    """Apply one update in place; returns (model, state) for chaining.

    SGD is the bare rule p <- p - lr * g. AdamW applies decoupled weight decay
    p <- p - lr * wd * p independently of the bias-corrected adaptive term.
    Moment buffers are allocated lazily, keyed and shape-checked per parameter.
    """
    params = parameters(model)
    for name, p in params.items():
        if name not in grads:
            raise ValueError(f"missing gradient for parameter {name!r}")
        g = grads[name]
        if g.shape != p.shape:
            raise ValueError(f"gradient shape {g.shape} does not match parameter {name!r} shape {p.shape}")
    if state.kind == "sgd":
        for name, p in params.items():
            p -= state.learning_rate * grads[name]
        state.step_count += 1
        return model, state

    state.step_count += 1
    t = state.step_count
    bc1 = 1.0 - state.beta1**t
    bc2 = 1.0 - state.beta2**t
    for name, p in params.items():
        g = grads[name]
        if name not in state.exp_avg:
            state.exp_avg[name] = np.zeros_like(p)
            state.exp_avg_sq[name] = np.zeros_like(p)
        m = state.exp_avg[name]
        v = state.exp_avg_sq[name]
        m *= state.beta1
        m += (1.0 - state.beta1) * g
        v *= state.beta2
        v += (1.0 - state.beta2) * g * g
        if state.weight_decay != 0.0:
            p -= state.learning_rate * state.weight_decay * p
        p -= state.learning_rate * (m / bc1) / (np.sqrt(v / bc2) + state.eps)
    return model, state
