import ast
import copy
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rholoss
from rholoss import nn
from rholoss.optim import make_optimizer, optimizer_step, train_step

from oracles import LoopOptimizer, textbook_adamw_step


# The fused AdamW step and the textbook form differ only in rounding. Adding
# up the roundings of both chains bounds the gap by about 8 ulps of
# |p| + |step|; over 3000 random states it was at most 2.7.
ULPS_FROM_TEXTBOOK = 8.0


def scalar_model(theta: float) -> nn.MlpModel:
    model = nn.init_mlp((1, 1), seed=0)
    model.weights[0][:] = theta
    model.biases[0][:] = 0.0
    return model


def grads_like(model, w, b=0.0):
    """A gradient vector for a `scalar_model`: w0, then b0."""
    assert model.params.shape == (2,)
    return np.array([w, b])


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


@pytest.mark.parametrize("kind", ["sgd", "adamw"])
@pytest.mark.parametrize("k", [0, 2])  # 0: an ordinary model
def test_optimizer_step_refuses_a_name_keyed_dict_and_a_wrong_shape_vector(kind, k):
    # a gradient is one vector laid out like params, as backward returns it; nn.param_views names its parts
    if k:
        model = nn.stack_models([nn.init_mlp((2, 3), seed=j) for j in range(k)])
    else:
        model = nn.init_mlp((2, 3), seed=0)
    shape = model.params.shape
    before = model.params.copy()
    opt = make_optimizer(kind, 0.1)
    for g in (
        np.zeros((*shape[:-1], 8)),
        np.zeros((*shape[:-1], 10)),
        np.zeros((1, *shape)),
        nn.param_views(model, np.ones(shape)),
    ):
        message = f"gradient shape {np.shape(g)} does not match params shape {shape}"
        with pytest.raises(ValueError, match=re.escape(message)):
            optimizer_step(opt, model, g)
    assert np.array_equal(model.params, before)
    assert opt.step_count == 0 and opt.flat_exp_avg is None


def test_optimizer_rejects_unknown_kind():
    with pytest.raises(ValueError):
        make_optimizer("rmsprop", 0.1)


@pytest.mark.parametrize(
    "kwargs,name",
    [
        ({"beta1": 1.0}, "beta1"),
        ({"beta1": -0.1}, "beta1"),
        ({"beta2": 1.0}, "beta2"),
        ({"beta2": float("nan")}, "beta2"),
        ({"eps": 0.0}, "eps"),
        ({"eps": -1e-8}, "eps"),
        ({"eps": float("inf")}, "eps"),
        ({"eps": float("nan")}, "eps"),
    ],
)
def test_make_optimizer_refuses_betas_and_eps_that_break_the_update(kwargs, name):
    # at beta = 1 one step turns every parameter into NaN; at eps = 0 an always-zero gradient gives 0/0
    with pytest.raises(ValueError, match=f"^{name} must be"):
        make_optimizer("adamw", 1e-3, **kwargs)


def test_moment_buffers_track_parameter_shapes():
    model = nn.init_mlp((3, 4, 2), seed=1)
    opt = make_optimizer("adamw", 1e-3)
    grads = nn.backward(model, np.zeros((2, 3)), [0, 1])
    optimizer_step(opt, model, grads)
    assert opt.flat_exp_avg.shape == opt.flat_exp_avg_sq.shape == model.params.shape
    m, v = nn.param_views(model, opt.flat_exp_avg), nn.param_views(model, opt.flat_exp_avg_sq)
    for name, p in nn.parameters(model).items():
        assert m[name].shape == v[name].shape == p.shape


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
        g = np.empty_like(model.params)
        for part in nn.param_views(model, g).values():
            part[...] = rng.standard_normal(part.shape) * 10.0 ** rng.integers(-8, 4, size=part.shape)
            part[rng.random(part.shape) < 0.2] = 0.0
        optimizer_step(opt, model, g)
        loop.step(twin, g)
    assert opt.step_count == loop.step_count == steps
    for name, p in nn.parameters(model).items():
        assert np.array_equal(p, nn.parameters(twin)[name])
        if kind == "adamw":
            assert np.array_equal(nn.param_views(model, opt.flat_exp_avg)[name], loop.exp_avg[name])
            assert np.array_equal(nn.param_views(model, opt.flat_exp_avg_sq)[name], loop.exp_avg_sq[name])


@settings(max_examples=80, deadline=None)
@given(
    k=st.sampled_from([0, 1, 3]),  # 0: an ordinary model
    hidden=st.lists(st.integers(1, 9), min_size=0, max_size=3),
    batchnorm=st.booleans(),
    lr=st.floats(0.0, 1.0),
    beta1=st.floats(0.0, 0.999),
    beta2=st.floats(0.0, 0.9999),
    weight_decay=st.sampled_from([0.0, 1e-4, 0.01, 0.5]),
    counts=st.lists(st.integers(0, 10**4 - 1), min_size=3, max_size=3),
    seed=st.integers(0, 2**16),
)
def test_fused_adamw_step_is_within_a_few_ulps_of_the_textbook_form(
    k, hidden, batchnorm, lr, beta1, beta2, weight_decay, counts, seed
):
    # one step from a random state, each stack member at its own step count
    rng = np.random.default_rng(seed)
    sizes = (int(rng.integers(1, 6)), *hidden, int(rng.integers(1, 5)))
    if k:  # a stack has no batch norm
        model = nn.stack_models([nn.init_mlp(sizes, seed=seed + j) for j in range(k)])
    else:
        model = nn.init_mlp(sizes, seed=seed, batchnorm=batchnorm and len(hidden) > 0)
    shape = model.params.shape
    scale = 10.0 ** rng.integers(-8, 4, size=shape)
    model.params[...] = rng.standard_normal(shape) * 10.0 ** rng.integers(-3, 3, size=shape)
    p0 = model.params.copy()
    opt = make_optimizer("adamw", lr, weight_decay=weight_decay, beta1=beta1, beta2=beta2)
    opt.step_count = counts[:k] if k else counts[0]
    opt.layout = (model.layer_sizes, model.batchnorm is not None, shape)
    opt.flat_exp_avg = rng.standard_normal(shape) * scale
    opt.flat_exp_avg_sq = rng.random(shape) * scale**2
    g = rng.standard_normal(shape) * scale
    g[rng.random(shape) < 0.2] = 0.0
    optimizer_step(opt, model, g)
    want = textbook_adamw_step(
        p0, opt.flat_exp_avg, opt.flat_exp_avg_sq, opt.step_count, lr, beta1, beta2, opt.eps, weight_decay
    )
    ulp = np.finfo(float).eps * (np.abs(p0) + np.abs(want - p0))
    assert np.all(np.abs(model.params - want) <= ULPS_FROM_TEXTBOOK * ulp)


@pytest.mark.parametrize("weight_decay", [0.0, 0.01])
@pytest.mark.parametrize("k", [0, 3])  # 0: an ordinary model
def test_adamw_at_learning_rate_zero_leaves_the_parameters_bit_identical(k, weight_decay):
    rng = np.random.default_rng(k)
    if k:
        model = nn.stack_models([nn.init_mlp((3, 4, 2), seed=j) for j in range(k)])
    else:
        model = nn.init_mlp((3, 4, 2), seed=0, batchnorm=True)
    model.params[..., ::2] = -0.0
    before = model.params.tobytes()
    opt = make_optimizer("adamw", 0.0, weight_decay=weight_decay)
    for _ in range(3):
        optimizer_step(opt, model, rng.standard_normal(model.params.shape))
    assert model.params.tobytes() == before
    # the moments still step, and some are negative: a step of -0 there would turn -0 into +0
    assert (opt.flat_exp_avg[..., ::2] < 0).any() and opt.flat_exp_avg_sq.all()


def test_moments_survive_deepcopy_as_name_keyed_views():
    model = nn.init_mlp((3, 4, 2), seed=1, batchnorm=True)
    opt = make_optimizer("adamw", 1e-3, weight_decay=0.01)
    x, y = np.random.default_rng(0).standard_normal((5, 3)), [0, 1, 0, 1, 1]
    optimizer_step(opt, model, nn.backward(model, x, y))
    model2, opt2 = copy.deepcopy((model, opt))
    for m, o in ((model, opt), (model2, opt2)):
        optimizer_step(o, m, nn.backward(m, x, y))
    m, m2 = nn.param_views(model, opt.flat_exp_avg), nn.param_views(model2, opt2.flat_exp_avg)
    for name, p in nn.parameters(model).items():
        assert np.array_equal(p, nn.parameters(model2)[name])
        assert np.array_equal(m[name], m2[name])
        assert np.shares_memory(m2[name], opt2.flat_exp_avg)
        assert not np.shares_memory(m2[name], opt.flat_exp_avg)


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


@settings(max_examples=60, deadline=None)
@given(
    kind=st.sampled_from(["sgd", "adamw"]),
    k=st.integers(1, 4),
    start=st.sampled_from([0, 6, 22, 999]),
    beta2=st.sampled_from([0.999, 0.99, 0.5]),
    weight_decay=st.sampled_from([0.0, 0.01]),
    steps=st.integers(1, 10),
    seed=st.integers(0, 2**16),
)
def test_masked_members_are_untouched_and_the_rest_step_as_if_alone(kind, k, start, beta2, weight_decay, steps, seed):
    # at beta2 = 0.999, numpy's array power and Python's ** first disagree at t = 7
    rng = np.random.default_rng(seed)
    members = [nn.init_mlp((3, 4, 2), seed=seed + j) for j in range(k)]
    stack = nn.stack_models(members)
    opt = make_optimizer(kind, 0.01, weight_decay=weight_decay, beta2=beta2)
    opt.step_count = [start] * k
    loops = [LoopOptimizer(kind, 0.01, weight_decay=weight_decay, beta2=beta2) for _ in members]
    for loop in loops:
        loop.step_count = start
    for _ in range(steps):
        active = rng.random(k) < 0.6
        g = np.empty_like(stack.params)
        for part in nn.param_views(stack, g).values():
            part[...] = rng.standard_normal(part.shape)
        before_stack, before_opt = copy.deepcopy((stack, opt))
        optimizer_step(opt, stack, g, active=active)
        for j in range(k):
            if active[j]:
                loops[j].step(members[j], g[j])
                continue
            assert opt.step_count[j] == before_opt.step_count[j]
            for name, p in nn.parameters(stack).items():
                assert np.array_equal(p[j], nn.parameters(before_stack)[name][j])
                if before_opt.layout is not None:
                    for moment in ("flat_exp_avg", "flat_exp_avg_sq"):
                        now, then = (nn.param_views(stack, getattr(o, moment)) for o in (opt, before_opt))
                        assert np.array_equal(now[name][j], then[name][j])
    for j, (member, loop) in enumerate(zip(members, loops)):
        assert opt.step_count[j] == loop.step_count
        for name, p in nn.parameters(member).items():
            assert np.array_equal(nn.parameters(stack)[name][j], p)
            if kind == "adamw" and loop.exp_avg:
                assert np.array_equal(nn.param_views(stack, opt.flat_exp_avg)[name][j], loop.exp_avg[name])
                assert np.array_equal(nn.param_views(stack, opt.flat_exp_avg_sq)[name][j], loop.exp_avg_sq[name])


def test_active_mask_needs_a_stacked_model():
    model = nn.init_mlp((3, 4, 2), seed=1)
    with pytest.raises(ValueError, match="stacked"):
        optimizer_step(make_optimizer("sgd", 0.1), model, nn.backward(model, np.zeros((2, 3)), [0, 1]), active=[True])


def _hand_step(model, opt, x, y, rng=None, sample_weights=None, active=None):
    grads = nn.backward(
        model, x, y, mode="train", bn_stat_source="batch", rng=rng, update_running=True, sample_weights=sample_weights
    )
    optimizer_step(opt, model, grads, active)


def _state_bytes(model, opt) -> bytes:
    """Parameters, running statistics, moments and step counts, as bytes."""
    arrays = list(nn.parameters(model).values())
    for bn in model.batchnorm or ():
        arrays += [bn.running_mean, bn.running_var]
    arrays += [opt.flat_exp_avg, opt.flat_exp_avg_sq, np.asarray(opt.step_count)]
    return b"".join(np.ascontiguousarray(a).tobytes() for a in arrays if a is not None)


def test_train_step_is_a_train_mode_backward_then_an_optimizer_step_bitwise():
    model = nn.init_mlp((4, 6, 5, 3), seed=2, dropout_rate=0.3, batchnorm=True)
    start = copy.deepcopy(model)
    twin = copy.deepcopy(model)
    opt, twin_opt = (make_optimizer("adamw", 0.01, weight_decay=0.01) for _ in range(2))
    rng, twin_rng = np.random.default_rng(4), np.random.default_rng(4)  # dropout masks
    data_rng = np.random.default_rng(3)
    for _ in range(3):
        x, y = data_rng.standard_normal((8, 4)), data_rng.integers(0, 3, 8)
        w = data_rng.random(8) + 0.5
        w *= 8 / w.sum()
        train_step(model, opt, x, y, rng, sample_weights=w)
        _hand_step(twin, twin_opt, x, y, twin_rng, sample_weights=w)
    assert _state_bytes(model, opt) == _state_bytes(twin, twin_opt)
    assert not np.array_equal(model.batchnorm[0].running_mean, start.batchnorm[0].running_mean)


def test_train_step_on_a_stack_honours_the_active_mask_bitwise():
    stack = nn.stack_models([nn.init_mlp((3, 5, 2), seed=s) for s in range(3)])
    twin = copy.deepcopy(stack)
    opt, twin_opt = (make_optimizer("adamw", 0.01, weight_decay=0.01) for _ in range(2))
    data_rng = np.random.default_rng(5)
    for active in ([True, False, True], [False, True, True], [True, True, True]):
        x, y = data_rng.standard_normal((3, 6, 3)), data_rng.integers(0, 2, (3, 6))
        train_step(stack, opt, x, y, active=np.array(active))
        _hand_step(twin, twin_opt, x, y, active=np.array(active))
    assert opt.step_count == [2, 2, 3]
    assert _state_bytes(stack, opt) == _state_bytes(twin, twin_opt)


@settings(max_examples=60, deadline=None)
@given(
    kind=st.sampled_from(["sgd", "adamw"]),
    k=st.sampled_from([0, 1, 3]),  # 0: an ordinary model
    batchnorm=st.booleans(),
    dropout=st.sampled_from([0.0, 0.3]),
    weighted=st.booleans(),
    masked=st.booleans(),
    steps=st.integers(1, 6),
    seed=st.integers(0, 2**16),
)
def test_train_step_matches_a_per_parameter_gather_and_scatter_bitwise(
    kind, k, batchnorm, dropout, weighted, masked, steps, seed
):
    # the reference trains each member on its own, one array per parameter,
    # with each gradient named by nn.param_views and moments keyed by name
    rng = np.random.default_rng(seed)
    sizes = (4, 6, 5, 3)
    if k:  # a stack has neither batch norm nor dropout
        members = [nn.init_mlp(sizes, seed=seed + j) for j in range(k)]
        model = nn.stack_models(copy.deepcopy(members))
    else:
        members = [nn.init_mlp(sizes, seed=seed, dropout_rate=dropout, batchnorm=batchnorm)]
        model = copy.deepcopy(members[0])
    opt = make_optimizer(kind, 0.05, weight_decay=0.01)
    loops = [LoopOptimizer(kind, 0.05, weight_decay=0.01) for _ in members]
    mask_rng, twin_mask_rng = np.random.default_rng(seed), np.random.default_rng(seed)  # dropout masks
    for _ in range(steps):
        x = rng.standard_normal((k, 8, 4) if k else (8, 4))
        y = rng.integers(0, 3, x.shape[:-1])
        w = rng.random(8) + 0.5 if weighted else None
        active = rng.random(k) < 0.6 if k and masked else None
        train_step(model, opt, x, y, None if k else mask_rng, sample_weights=w, active=active)
        for j, (member, loop) in enumerate(zip(members, loops)):
            if active is None or active[j]:
                grads = nn.backward(
                    member, x[j] if k else x, y[j] if k else y, mode="train", bn_stat_source="batch",
                    rng=None if k else twin_mask_rng, update_running=True, sample_weights=w,
                )
                loop.step(member, grads)
    counts = np.broadcast_to(opt.step_count, (max(k, 1),))
    rows = model.params if k else model.params[None]
    for j, (member, loop) in enumerate(zip(members, loops)):
        assert counts[j] == loop.step_count
        assert np.array_equal(rows[j], member.params)
        for bn, twin_bn in zip(model.batchnorm or (), member.batchnorm or ()):
            assert np.array_equal(bn.running_mean, twin_bn.running_mean)
            assert np.array_equal(bn.running_var, twin_bn.running_var)
        if loop.exp_avg:
            m, v = nn.param_views(model, opt.flat_exp_avg), nn.param_views(model, opt.flat_exp_avg_sq)
            for name in loop.exp_avg:
                assert np.array_equal(m[name][j] if k else m[name], loop.exp_avg[name]), name
                assert np.array_equal(v[name][j] if k else v[name], loop.exp_avg_sq[name]), name


@pytest.mark.parametrize("kind", ["sgd", "adamw"])
def test_optimizer_step_only_reads_the_gradient_vector(kind):
    model = nn.init_mlp((3, 4, 2), seed=1, batchnorm=True)
    opt = make_optimizer(kind, 0.01, weight_decay=0.01)
    grads = nn.backward(model, np.random.default_rng(0).standard_normal((5, 3)), [0, 1, 0, 1, 1])
    assert type(grads) is np.ndarray and grads.shape == model.params.shape
    before = grads.copy()
    for _ in range(2):
        optimizer_step(opt, model, grads)
    assert np.array_equal(grads, before)
    with pytest.raises(ValueError, match="shape"):
        optimizer_step(opt, nn.init_mlp((3, 5, 2), seed=1, batchnorm=True), grads)


def _files_calling(name: str) -> set[str]:
    """Modules of the package that call a function named name, bare or as an attribute."""
    found = set()
    for path in Path(rholoss.__file__).parent.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call):
                func = node.func
                if getattr(func, "id", None) == name or getattr(func, "attr", None) == name:
                    found.add(path.name)
    return found


def test_only_optim_takes_a_training_step():
    # every trainer steps through optim.train_step; nn.py's own backward call scores gradient norms
    assert _files_calling("optimizer_step") == {"optim.py"}
    callers = _files_calling("backward")
    assert "optim.py" in callers and callers <= {"optim.py", "nn.py"}
