import copy

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rholoss import nn
from rholoss.optim import make_optimizer, optimizer_step

from oracles import LoopOptimizer


def scalar_model(theta: float) -> nn.MlpModel:
    model = nn.init_mlp((1, 1), seed=0)
    model.weights[0][:] = theta
    model.biases[0][:] = 0.0
    return model


def grads_like(model, w, b=0.0):
    return {"w0": np.full_like(model.weights[0], w), "b0": np.full_like(model.biases[0], b)}


def test_sgd_exact_update():
    model = scalar_model(1.0)
    opt = make_optimizer("sgd", 0.1)
    optimizer_step(opt, model, grads_like(model, 2.0))
    assert model.weights[0][0, 0] == pytest.approx(0.8, abs=0.0)
    assert opt.step_count == 1


def adamw_first_step_expected(theta, g, lr, beta1, beta2, eps, wd):
    # Closed form for step 1: bias correction cancels the (1-beta) factors,
    # so the adaptive term is g / (|g| + eps).
    m_hat = (1 - beta1) * g / (1 - beta1)
    v_hat = (1 - beta2) * g * g / (1 - beta2)
    return theta - lr * wd * theta - lr * m_hat / (np.sqrt(v_hat) + eps)


@pytest.mark.parametrize(
    "theta,g,lr,wd",
    [
        (1.0, 2.0, 1e-3, 0.01),
        (-0.5, 0.3, 1e-2, 0.1),
        (2.0, -4.0, 1e-3, 0.0),
        (0.25, 1e-6, 1e-4, 0.01),
        (-3.0, -0.01, 5e-3, 0.05),
    ],
)
def test_adamw_first_step_matches_closed_form(theta, g, lr, wd):
    model = scalar_model(theta)
    opt = make_optimizer("adamw", lr, weight_decay=wd)
    optimizer_step(opt, model, grads_like(model, g))
    expected = adamw_first_step_expected(theta, g, lr, opt.beta1, opt.beta2, opt.eps, wd)
    assert model.weights[0][0, 0] == pytest.approx(expected, abs=1e-12)


def test_adamw_zero_gradient_zero_decay_is_identity():
    model = scalar_model(1.5)
    opt = make_optimizer("adamw", 1e-2, weight_decay=0.0)
    optimizer_step(opt, model, grads_like(model, 0.0))
    assert model.weights[0][0, 0] == 1.5


def test_adamw_multi_step_matches_manual_recurrence():
    rng = np.random.default_rng(0)
    model = scalar_model(0.7)
    opt = make_optimizer("adamw", 1e-3, weight_decay=0.01)
    theta, m, v = 0.7, 0.0, 0.0
    for t in range(1, 8):
        g = float(rng.standard_normal())
        optimizer_step(opt, model, grads_like(model, g))
        m = opt.beta1 * m + (1 - opt.beta1) * g
        v = opt.beta2 * v + (1 - opt.beta2) * g * g
        theta = theta - 1e-3 * 0.01 * theta - 1e-3 * (m / (1 - opt.beta1**t)) / (
            np.sqrt(v / (1 - opt.beta2**t)) + opt.eps
        )
        assert model.weights[0][0, 0] == pytest.approx(theta, abs=1e-14)
    assert opt.step_count == 7


def test_optimizer_rejects_shape_mismatch():
    model = nn.init_mlp((2, 3), seed=0)
    opt = make_optimizer("sgd", 0.1)
    with pytest.raises(ValueError):
        optimizer_step(opt, model, {"w0": np.zeros((3, 2)), "b0": np.zeros(3)})
    with pytest.raises(ValueError):
        optimizer_step(opt, model, {"w0": np.zeros((2, 3))})


def test_optimizer_rejects_unknown_kind():
    with pytest.raises(ValueError):
        make_optimizer("rmsprop", 0.1)


def test_moment_buffers_track_parameter_shapes():
    model = nn.init_mlp((3, 4, 2), seed=1)
    opt = make_optimizer("adamw", 1e-3)
    grads = nn.backward(model, np.zeros((2, 3)), [0, 1])
    optimizer_step(opt, model, grads)
    for name, p in nn.parameters(model).items():
        assert opt.exp_avg[name].shape == p.shape
        assert opt.exp_avg_sq[name].shape == p.shape


@settings(max_examples=80, deadline=None)
@given(
    kind=st.sampled_from(["sgd", "adamw"]),
    hidden=st.lists(st.integers(1, 9), min_size=0, max_size=3),
    batchnorm=st.booleans(),
    lr=st.floats(0.0, 1.0),
    beta1=st.floats(0.0, 0.999),
    beta2=st.floats(0.0, 0.9999),
    weight_decay=st.sampled_from([0.0, 1e-4, 0.01, 0.5]),
    steps=st.integers(1, 20),
    seed=st.integers(0, 2**16),
)
def test_fused_step_matches_per_parameter_loop_bitwise(kind, hidden, batchnorm, lr, beta1, beta2, weight_decay, steps, seed):
    rng = np.random.default_rng(seed)
    sizes = (int(rng.integers(1, 6)), *hidden, int(rng.integers(1, 5)))
    model = nn.init_mlp(sizes, seed=seed, batchnorm=batchnorm and len(hidden) > 0)
    twin = copy.deepcopy(model)
    opt = make_optimizer(kind, lr, weight_decay=weight_decay, beta1=beta1, beta2=beta2)
    loop = LoopOptimizer(kind, lr, weight_decay=weight_decay, beta1=beta1, beta2=beta2)
    for _ in range(steps):
        grads = {}
        for name, p in nn.parameters(model).items():
            g = rng.standard_normal(p.shape) * 10.0 ** rng.integers(-8, 4, size=p.shape)
            g[rng.random(p.shape) < 0.2] = 0.0
            grads[name] = g
        optimizer_step(opt, model, grads)
        loop.step(twin, grads)
    assert opt.step_count == loop.step_count == steps
    for name, p in nn.parameters(model).items():
        assert np.array_equal(p, nn.parameters(twin)[name])
        if kind == "adamw":
            assert np.array_equal(opt.exp_avg[name], loop.exp_avg[name])
            assert np.array_equal(opt.exp_avg_sq[name], loop.exp_avg_sq[name])


def test_moments_survive_deepcopy_as_name_keyed_views():
    model = nn.init_mlp((3, 4, 2), seed=1, batchnorm=True)
    opt = make_optimizer("adamw", 1e-3, weight_decay=0.01)
    x, y = np.random.default_rng(0).standard_normal((5, 3)), [0, 1, 0, 1, 1]
    optimizer_step(opt, model, nn.backward(model, x, y))
    model2, opt2 = copy.deepcopy((model, opt))
    for m, o in ((model, opt), (model2, opt2)):
        optimizer_step(o, m, nn.backward(m, x, y))
    for name, p in nn.parameters(model).items():
        assert np.array_equal(p, nn.parameters(model2)[name])
        assert np.array_equal(opt.exp_avg[name], opt2.exp_avg[name])
        assert np.shares_memory(opt2.exp_avg[name], opt2.flat_exp_avg)
        assert not np.shares_memory(opt2.exp_avg[name], opt.flat_exp_avg)


def test_adamw_rejects_a_layout_other_than_its_moments():
    opt = make_optimizer("adamw", 1e-3)
    model = nn.init_mlp((3, 4, 2), seed=1)
    optimizer_step(opt, model, nn.backward(model, np.zeros((2, 3)), [0, 1]))
    before = opt.flat_exp_avg.copy()
    for other in (nn.init_mlp((3, 5, 2), seed=1), nn.init_mlp((3, 4, 2), seed=1, batchnorm=True)):
        with pytest.raises(ValueError, match="layout"):
            optimizer_step(opt, other, nn.backward(other, np.zeros((2, 3)), [0, 1]))
    assert opt.step_count == 1
    assert np.array_equal(opt.flat_exp_avg, before)
