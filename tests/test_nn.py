import copy
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rholoss import nn
from rholoss.ladder import _take
from rholoss.optim import make_optimizer, optimizer_step, train_step

from oracles import direct_cross_entropy, explicit_forward, fd_gradients, grad_norm_oracle, max_rel_error


def test_zero_weight_model_gives_uniform_softmax():
    model = nn.init_mlp((4, 8, 10), seed=0)
    for w in model.weights:
        w[:] = 0.0
    for b in model.biases:
        b[:] = 0.0
    x = np.random.default_rng(0).standard_normal((3, 4))
    logits = nn.forward(model, x)
    assert np.all(logits == 0.0)
    probs = nn.softmax(logits)
    assert np.allclose(probs, 0.1, atol=1e-15)


def test_single_layer_identity_forward():
    model = nn.init_mlp((3, 3), seed=0)
    model.weights[0][:] = np.eye(3)
    model.biases[0][:] = 0.0
    x = np.eye(3)
    assert np.allclose(nn.forward(model, x), x)


def test_forward_matches_explicit_loop_oracle():
    model = nn.init_mlp((2, 3, 2), seed=7)
    x = np.random.default_rng(5).standard_normal((4, 2))
    expected = explicit_forward([w.tolist() for w in model.weights], [b.tolist() for b in model.biases], x.tolist())
    assert np.allclose(nn.forward(model, x), expected, atol=1e-12)


def test_forward_rejects_bad_width():
    model = nn.init_mlp((4, 3), seed=0)
    with pytest.raises(ValueError):
        nn.forward(model, np.zeros((2, 5)))


def test_forward_rejects_non_finite_input():
    model = nn.init_mlp((2, 3), seed=0)
    with pytest.raises(ValueError):
        nn.forward(model, np.array([[1.0, np.nan]]))


def test_softmax_rows_sum_to_one():
    rng = np.random.default_rng(1)
    for _ in range(20):
        logits = rng.standard_normal((8, 5)) * rng.uniform(1, 50)
        assert np.allclose(nn.softmax(logits).sum(axis=1), 1.0, atol=1e-9)


def test_cross_entropy_uniform_logits():
    for c in (2, 10, 100):
        logits = np.zeros((3, c))
        losses = nn.cross_entropy(logits, [0] * 3)
        assert np.allclose(losses, math.log(c), atol=1e-12)


def test_cross_entropy_saturated_true_class():
    # probability 1 - 1e-12 on the true class -> loss about 1e-12
    p = 1.0 - 1e-12
    logits = np.array([[math.log(p), math.log(1 - p)]])
    loss = nn.cross_entropy(logits, [0])[0]
    assert loss == pytest.approx(1e-12, rel=1e-2)


def test_cross_entropy_matches_direct_logsumexp_oracle():
    rng = np.random.default_rng(2)
    logits = rng.standard_normal((50, 7)) * 3
    labels = rng.integers(0, 7, 50)
    assert np.allclose(nn.cross_entropy(logits, labels), direct_cross_entropy(logits, labels), atol=1e-12)


def test_cross_entropy_nonnegative_and_label_range():
    rng = np.random.default_rng(3)
    logits = rng.standard_normal((100, 4)) * 10
    labels = rng.integers(0, 4, 100)
    assert np.all(nn.cross_entropy(logits, labels) >= 0.0)
    with pytest.raises(ValueError):
        nn.cross_entropy(logits, [4] * 100)


def test_backward_saturated_correct_predictions():
    model = nn.init_mlp((2, 2), seed=0)
    model.weights[0][:] = np.array([[60.0, -60.0], [-60.0, 60.0]])
    model.biases[0][:] = 0.0
    x = np.array([[1.0, 0.0], [0.0, 1.0]])
    grads = nn.backward(model, x, [0, 1])
    assert math.sqrt(float((grads**2).sum())) < 1e-9


@pytest.mark.parametrize(
    "sizes,kwargs,mode,bn_src",
    [
        ((5, 8, 3), {}, "eval", "running"),
        ((4, 6, 6, 3), {}, "eval", "running"),
        ((5, 8, 3), {"batchnorm": True}, "eval", "batch"),
        ((5, 8, 3), {"batchnorm": True}, "eval", "running"),
        ((5, 8, 3), {"dropout_rate": 0.4}, "train", "running"),
        ((4, 6, 6, 3), {"batchnorm": True, "dropout_rate": 0.3}, "train", "batch"),
    ],
)
def test_backward_matches_finite_differences(sizes, kwargs, mode, bn_src):
    rng = np.random.default_rng(11)
    model = nn.init_mlp(sizes, seed=13, **kwargs)
    x = rng.standard_normal((6, sizes[0]))
    y = rng.integers(0, sizes[-1], 6)
    analytic_rng = np.random.default_rng(1234)
    analytic = nn.backward(model, x, y, mode=mode, bn_stat_source=bn_src, rng=analytic_rng)
    numeric = fd_gradients(model, x, y, mode=mode, bn_stat_source=bn_src, seed=1234)
    assert max_rel_error(analytic, numeric) < 1e-4


def test_backward_duplicated_batch_equals_single_point():
    model = nn.init_mlp((3, 5, 2), seed=4)
    x = np.array([[0.3, -1.0, 2.0]])
    g1 = nn.backward(model, x, [1])
    g4 = nn.backward(model, np.repeat(x, 4, axis=0), [1, 1, 1, 1])
    assert np.allclose(g1, g4, atol=1e-12)


def test_backward_sample_weights_scale_gradient():
    model = nn.init_mlp((3, 4, 2), seed=5)
    rng = np.random.default_rng(6)
    x = rng.standard_normal((4, 3))
    y = rng.integers(0, 2, 4)
    base = nn.backward(model, x, y)
    weighted = nn.backward(model, x, y, sample_weights=np.ones(4))
    assert np.allclose(base, weighted)


def test_per_example_grad_norm_matches_backward_on_singleton():
    model = nn.init_mlp((4, 6, 3), seed=8)
    rng = np.random.default_rng(9)
    for _ in range(5):
        x = rng.standard_normal(4)
        y = int(rng.integers(0, 3))
        grads = nn.backward(model, x.reshape(1, -1), [y], mode="eval", bn_stat_source="running")
        expected = math.sqrt(float((grads**2).sum()))
        assert nn.per_example_grad_norm(model, x.reshape(1, -1), [y])[0] == pytest.approx(expected, abs=1e-10)


def test_per_example_grad_norm_saturated_is_tiny():
    model = nn.init_mlp((2, 2), seed=0)
    model.weights[0][:] = np.array([[80.0, -80.0], [-80.0, 80.0]])
    model.biases[0][:] = 0.0
    assert nn.per_example_grad_norm(model, [[1.0, 0.0]], [0])[0] < 1e-9


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    hidden=st.lists(st.integers(1, 12), min_size=1, max_size=3),
    n_in=st.integers(1, 8),
    n_classes=st.integers(2, 6),
    batchnorm=st.booleans(),
    dropout=st.floats(0.05, 0.9),
    logit_scale=st.sampled_from([1.0, 40.0, 1e3]),
    x_scale=st.sampled_from([1.0, 30.0, 1e3]),
    seed=st.integers(0, 2**16),
)
def test_closed_form_grad_norm_matches_the_full_gradient(hidden, n_in, n_classes, batchnorm, dropout, logit_scale, x_scale, seed):
    # eval mode ignores the dropout rate; running statistics, gamma and beta
    # are far from their init so batch norm is not the identity
    rng = np.random.default_rng(seed)
    model = nn.init_mlp((n_in, *hidden, n_classes), seed=seed, dropout_rate=dropout, batchnorm=batchnorm)
    for bn in model.batchnorm or []:
        bn.running_mean = rng.normal(0.0, 2.0, bn.gamma.shape)
        bn.running_var = rng.uniform(0.05, 4.0, bn.gamma.shape)
        bn.gamma[...] = rng.uniform(-2.0, 2.0, bn.gamma.shape)
        bn.beta[...] = rng.normal(0.0, 1.0, bn.gamma.shape)
    model.weights[-1] *= logit_scale  # large scales saturate the softmax
    x = rng.uniform(-x_scale, x_scale, (4, n_in))
    y = rng.integers(0, n_classes, 4)
    for i in range(4):
        got = nn.per_example_grad_norm(model, x[i : i + 1], y[i : i + 1])[0]
        assert got >= 0.0  # also false for NaN
        # below ~1e-140 the squares of both forms fall into subnormals, where neither keeps relative precision
        assert got == pytest.approx(grad_norm_oracle(model, x[i], y[i]), rel=1e-12, abs=1e-140)


def test_per_example_grad_norm_of_a_batch_is_each_rows_norm():
    model = nn.init_mlp((4, 7, 5, 3), seed=3, batchnorm=True)
    rng = np.random.default_rng(4)
    for bn in model.batchnorm:
        bn.running_mean = rng.normal(0.0, 1.0, bn.gamma.shape)
        bn.gamma[...] = rng.uniform(0.5, 2.0, bn.gamma.shape)
    x = rng.standard_normal((6, 4))
    y = rng.integers(0, 3, 6)
    norms = nn.per_example_grad_norm(model, x, y)
    assert norms.shape == (6,)
    for i in range(6):
        assert norms[i] == pytest.approx(grad_norm_oracle(model, x[i], y[i]), rel=1e-12)
    with pytest.raises(ValueError, match=r"got 6 examples but labels of shape \(5,\)"):
        nn.per_example_grad_norm(model, x, y[:5])
    with pytest.raises(ValueError, match=r"x must be 2-D with 4 columns, got shape \(4,\)"):
        nn.per_example_grad_norm(model, x[0], y[:1])  # one row is a (1, d) batch


def test_per_example_grad_norm_overflowed_input_norm_times_zero_delta_is_zero():
    # ||x||^2 overflows to inf, and the saturated softmax makes the delta exactly 0
    model = nn.init_mlp((2, 2), seed=0)
    model.weights[0][:] = np.array([[80.0, -80.0], [-80.0, 80.0]])
    with np.errstate(over="ignore"):
        assert nn.per_example_grad_norm(model, [[1e200, 0.0]], [0])[0] == 0.0 == grad_norm_oracle(model, [1e200, 0.0], 0)


def test_per_example_grad_norm_refuses_a_stack():
    stack = nn.stack_models([nn.init_mlp((4, 5, 3), seed=s) for s in (1, 2)])
    with pytest.raises(ValueError, match=r"nn\.unstack"):
        nn.per_example_grad_norm(stack, np.ones((1, 4)), [1])


def test_mc_dropout_zero_rate_identical_samples():
    model = nn.init_mlp((3, 4, 2), seed=1, dropout_rate=0.0)
    x = np.random.default_rng(2).standard_normal((5, 3))
    samples = nn.mc_dropout_predict(model, x, 4, rng=np.random.default_rng(0))
    for k in range(1, 4):
        assert np.array_equal(samples[0], samples[k])


def test_mc_dropout_single_sample_equals_train_forward():
    model = nn.init_mlp((3, 4, 2), seed=1, dropout_rate=0.5)
    x = np.random.default_rng(2).standard_normal((5, 3))
    sample = nn.mc_dropout_predict(model, x, 1, rng=np.random.default_rng(42))[0]
    direct = nn.softmax(nn.forward(model, x, mode="train", rng=np.random.default_rng(42)))
    assert np.array_equal(sample, direct)


def test_a_dropout_mask_is_never_drawn_without_a_generator():
    # an unseeded fallback made two backward calls on one batch give different gradients
    model = nn.init_mlp((3, 4, 2), seed=1, dropout_rate=0.5)
    x = np.random.default_rng(2).standard_normal((5, 3))
    for call in (
        lambda: nn.forward(model, x, mode="train"),
        lambda: nn.backward(model, x, [0, 1, 0, 1, 1]),
        lambda: nn.mc_dropout_predict(model, x, 2),
    ):
        with pytest.raises(ValueError, match="^rng is None"):
            call()
    # eval mode draws no mask, so it needs no generator
    assert np.array_equal(nn.forward(model, x), nn.forward(model, x, rng=np.random.default_rng(0)))


@pytest.mark.parametrize("kwargs", [{}, {"batchnorm": True}])
def test_a_model_without_dropout_needs_no_generator(kwargs):
    model = nn.init_mlp((3, 4, 2), seed=1, dropout_rate=0.0, **kwargs)
    x = np.random.default_rng(2).standard_normal((5, 3))
    y = [0, 1, 0, 1, 1]
    assert np.array_equal(nn.forward(model, x, mode="train"), nn.forward(model, x, mode="eval"))
    g1, g2 = nn.backward(model, x, y), nn.backward(model, x, y)
    assert np.array_equal(g1, g2)
    samples = nn.mc_dropout_predict(model, x, 2)
    assert np.array_equal(samples[0], samples[1])


def _assert_mc_is_successive_train_forwards(model, x, samples):
    mc_rng, forward_rng = np.random.default_rng(4), np.random.default_rng(4)
    got = nn.mc_dropout_predict(model, x, samples, rng=mc_rng)
    want = np.stack([
        nn.softmax(nn.forward(model, x, mode="train", bn_stat_source="running", rng=forward_rng))
        for _ in range(samples)
    ])
    assert got.shape == want.shape and got.tobytes() == want.tobytes()
    assert mc_rng.random() == forward_rng.random()  # both generators end in one state


@pytest.mark.parametrize("samples", [1, 7])
@pytest.mark.parametrize("batchnorm", [False, True])
@pytest.mark.parametrize("dropout", [0.0, 0.1, 0.5])
@pytest.mark.parametrize("sizes", [(5, 3), (5, 6, 3), (5, 6, 4, 7, 3)])
def test_mc_dropout_samples_are_successive_train_forwards(sizes, dropout, batchnorm, samples):
    model = nn.init_mlp(sizes, seed=3, dropout_rate=dropout, batchnorm=batchnorm)
    stats_rng = np.random.default_rng(8)
    for bn in model.batchnorm or ():  # every batch-norm array off its default
        bn.running_mean = stats_rng.standard_normal(bn.running_mean.shape)
        bn.running_var = stats_rng.uniform(0.5, 2.0, bn.running_var.shape)
        bn.gamma[...] = stats_rng.uniform(0.5, 1.5, bn.gamma.shape)
        bn.beta[...] = stats_rng.standard_normal(bn.beta.shape)
    _assert_mc_is_successive_train_forwards(model, np.random.default_rng(9).standard_normal((11, 5)), samples)


@pytest.mark.parametrize("per_member", [False, True])
def test_mc_dropout_on_a_stack_is_successive_train_forwards(per_member):
    sizes = (5, 6, 4, 3)
    stack = nn.MlpModel(sizes, np.stack([nn.init_mlp(sizes, seed=s).params for s in (1, 2, 3)]), dropout_rate=0.3)
    x = np.random.default_rng(9).standard_normal((3, 11, 5) if per_member else (11, 5))
    _assert_mc_is_successive_train_forwards(stack, x, 4)
    assert nn.mc_dropout_predict(stack, x, 2, rng=np.random.default_rng(0)).shape == (2, 3, 11, 3)


def test_mc_dropout_rejects_zero_samples():
    model = nn.init_mlp((3, 4, 2), seed=1, dropout_rate=0.5)
    with pytest.raises(ValueError):
        nn.mc_dropout_predict(model, np.zeros((1, 3)), 0)


def test_mc_dropout_mean_approaches_mask_enumeration():
    # 2 hidden units, dropout 0.5: enumerate all 4 masks exactly. At seed 6
    # both units are live on x (pre-activations 0.764 and 0.068), so the four
    # masks give four distinct softmaxes.
    model = nn.init_mlp((2, 2, 2), seed=6, dropout_rate=0.5)
    x = np.array([[0.7, -0.2]])
    keep = 0.5
    h = np.maximum(x @ model.weights[0] + model.biases[0], 0.0)
    assert (h > 0).all()
    outcomes = np.array([
        nn.softmax((h * np.array([m0, m1]) / keep) @ model.weights[1] + model.biases[1])[0]
        for m0 in (0.0, 1.0)
        for m1 in (0.0, 1.0)
    ])
    # 200 000 independent masks: 100 samples over 2 000 copies of the row
    samples = nn.mc_dropout_predict(model, np.repeat(x, 2000, axis=0), 100, rng=np.random.default_rng(7))
    distance = np.abs(samples.reshape(-1, 1, 2) - outcomes).max(axis=-1)
    assert (distance.min(axis=1) <= 1e-12).all()  # every sample is one mask's softmax
    share = np.bincount(distance.argmin(axis=1), minlength=4) / distance.shape[0]
    assert np.allclose(share, 0.25, atol=0.01)
    # the no-dropout prediction is ~0.005 away from this mean
    assert np.allclose(samples.mean(axis=(0, 1)), outcomes.mean(axis=0), atol=1e-3)


def test_ensemble_mean_is_exact_average():
    members = [nn.init_mlp((3, 4, 2), seed=s) for s in (1, 2)]
    stack = nn.stack_models(members)
    x = np.random.default_rng(5).standard_normal((6, 3))
    p0 = nn.softmax(nn.forward(members[0], x))
    p1 = nn.softmax(nn.forward(members[1], x))
    probs = nn.softmax(nn.forward(stack, x)).mean(axis=0)
    assert np.array_equal(probs, (p0 + p1) / 2)
    assert np.allclose(probs.sum(axis=1), 1.0, atol=1e-12)


def test_ensemble_member_order_does_not_matter():
    members = [nn.init_mlp((3, 4, 2), seed=s) for s in (1, 2, 3)]
    x = np.random.default_rng(5).standard_normal((4, 3))
    a = nn.softmax(nn.forward(nn.stack_models(members), x)).mean(axis=0)
    b = nn.softmax(nn.forward(nn.stack_models(members[::-1]), x)).mean(axis=0)
    assert np.allclose(a, b, atol=1e-14)


def test_ensemble_cross_entropy_matches_mean_prob():
    members = [nn.init_mlp((3, 4, 5), seed=s) for s in (4, 5, 6)]
    stack = nn.stack_models(members)
    x = np.random.default_rng(8).standard_normal((7, 3))
    y = np.random.default_rng(9).integers(0, 5, 7)
    probs = nn.softmax(nn.forward(stack, x)).mean(axis=0)
    expected = -np.log(probs[np.arange(7), y])
    assert np.allclose(nn.ensemble_cross_entropy(stack, x, y), expected, atol=1e-12)


def test_ensemble_requires_matching_architectures():
    with pytest.raises(ValueError):
        nn.stack_models([nn.init_mlp((3, 4, 2), seed=1), nn.init_mlp((3, 5, 2), seed=2)])


@pytest.mark.parametrize("kwargs", [{"batchnorm": True}, {"dropout_rate": 0.1}])
def test_stack_rejects_batchnorm_and_dropout(kwargs):
    with pytest.raises(ValueError):
        nn.stack_models([nn.init_mlp((3, 4, 2), seed=1, **kwargs)])


@settings(max_examples=40, deadline=None)
@given(
    k=st.integers(1, 4),
    sizes=st.lists(st.integers(1, 6), min_size=2, max_size=4),
    rows=st.integers(0, 5),
    per_member=st.booleans(),
    seed=st.integers(0, 2**16),
)
def test_stacked_member_computes_what_its_model_computes_bitwise(k, sizes, rows, per_member, seed):
    # one row takes the outer-product weight gradient, zero rows the empty GEMM
    members = [nn.init_mlp(sizes, seed=seed + j) for j in range(k)]
    stack = nn.stack_models(members)
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((k, rows, sizes[0]) if per_member else (rows, sizes[0]))
    y = rng.integers(0, sizes[-1], (k, rows) if per_member else rows)
    logits = nn.forward(stack, x)
    losses = nn.cross_entropy(logits, y)
    grads = nn.backward(stack, x, y) if rows else None
    for j, m in enumerate(members):
        xj, yj = (x[j], y[j]) if per_member else (x, y)
        assert np.array_equal(logits[j], nn.forward(m, xj))
        assert np.array_equal(losses[j], nn.cross_entropy(nn.forward(m, xj), yj))
        if rows:
            assert np.array_equal(grads[j], nn.backward(m, xj, yj))


def _scratch_test_models(seed):
    """Models sharing input width 5 and 4 classes, so one chunk feeds them all:
    a batch-norm dropout model as the trainer trains, a live IL model with
    dropout, a plain one and a stack of three."""
    trainer = nn.init_mlp((5, 9, 7, 4), seed=seed, dropout_rate=0.2, batchnorm=True)
    rng = np.random.default_rng(seed)
    for bn in trainer.batchnorm:
        bn.gamma[...], bn.beta[...] = rng.uniform(0.5, 2.0, bn.gamma.size), rng.standard_normal(bn.beta.size)
        bn.running_mean, bn.running_var = rng.standard_normal(bn.gamma.size), rng.uniform(0.5, 2.0, bn.gamma.size)
    return {
        "trainer": trainer,
        "il": nn.init_mlp((5, 6, 4), seed=seed + 1, dropout_rate=0.3),
        "plain": nn.init_mlp((5, 8, 3, 6, 4), seed=seed + 2),
        "stack": nn.stack_models([nn.init_mlp((5, 8, 8, 4), seed=seed + 3 + j) for j in range(3)]),
    }


_call = st.tuples(
    st.sampled_from(["trainer", "il", "plain", "stack"]),
    st.one_of(st.integers(0, 9), st.sampled_from([320, 800, 1333, 2000])),
    st.sampled_from(["eval", "train"]),
    st.sampled_from(["batch", "running"]),
    st.booleans(),  # same chunk as the previous call, when the widths allow
    st.booleans(),  # per-member input for the stack
)


@settings(max_examples=60, deadline=None)
@given(calls=st.lists(_call, min_size=1, max_size=6), seed=st.integers(0, 2**16))
@example(  # one step of run_original_selection: candidate logits, the live IL model's on the chunk, the next chunk
    calls=[("trainer", 320, "eval", "batch", False, False), ("il", 320, "eval", "running", True, False),
           ("trainer", 320, "eval", "batch", False, False), ("stack", 2000, "eval", "running", False, True)],
    seed=0,
)
def test_forward_is_the_cache_keeping_pass_bitwise_and_hands_out_no_buffer(calls, seed):
    models = _scratch_test_models(seed)
    data_rng = np.random.default_rng(seed)
    kept = []  # (array a call returned or took, a copy made at the time)
    x = None
    for i, (name, rows, mode, source, same_chunk, per_member) in enumerate(calls):
        model = models[name]
        shape = (3, rows, 5) if name == "stack" and per_member else (rows, 5)
        if not (same_chunk and x is not None and x.shape == shape):
            x = data_rng.standard_normal(shape)
        kwargs = dict(mode=mode, bn_stat_source=source)
        if model.batchnorm is not None and source == "batch" and rows < 2:
            with pytest.raises(ValueError, match="batch of size >= 2"):
                nn.forward(model, x, rng=np.random.default_rng(i), **kwargs)
            continue
        logits = nn.forward(model, x, rng=np.random.default_rng(i), **kwargs)
        cached, _ = nn._forward_cache(model, x, rng=np.random.default_rng(i), update_running=False, **kwargs)
        assert logits.shape == cached.shape and logits.tobytes() == cached.tobytes()
        if model.batchnorm is None and (mode == "eval" or model.dropout_rate == 0.0):
            members = [(model.weights, model.biases)] if not model.stack else [
                ([w[j] for w in model.weights], [b[j] for b in model.biases]) for j in range(model.stack[0])
            ]
            for j, (ws, bs) in enumerate(members):
                xj, got = (x[j] if x.ndim == 3 else x), (logits[j] if model.stack else logits)
                expected = explicit_forward([w.tolist() for w in ws], [b.tolist() for b in bs], xj[:40].tolist())
                assert np.allclose(got[:40], expected.reshape(-1, 4), rtol=1e-12, atol=1e-12)
        kept += [(logits, logits.copy()), (x, x.copy())]
        for arr, copy in kept:
            assert arr.tobytes() == copy.tobytes()


def test_a_repeated_forward_allocates_no_hidden_layer():
    # tracemalloc sees numpy's data buffers; one 800 x 128 hidden layer is 819 200 bytes
    model = nn.init_mlp((32, 128, 128, 10), seed=0)
    x = np.random.default_rng(0).standard_normal((800, 32))
    first = nn.forward(model, x)
    tracemalloc.start()
    try:
        second = nn.forward(model, x)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert np.array_equal(first, second)
    assert peak < 800 * 128 * 8


def test_stacked_inputs_and_labels_are_checked():
    stack = nn.stack_models([nn.init_mlp((3, 4, 2), seed=s) for s in (1, 2)])
    with pytest.raises(ValueError, match="3-D with 2 members"):
        nn.forward(stack, np.zeros((3, 4, 3)))
    with pytest.raises(ValueError, match="labels of shape"):
        nn.backward(stack, np.zeros((2, 4, 3)), np.zeros((3, 4), dtype=int))
    with pytest.raises(ValueError, match="stacked model"):
        nn.ensemble_cross_entropy(nn.init_mlp((3, 4, 2), seed=1), np.zeros((4, 3)), np.zeros(4, dtype=int))


def test_batchnorm_permutation_equivariance():
    model = nn.init_mlp((4, 6, 3), seed=12, batchnorm=True)
    rng = np.random.default_rng(13)
    x = rng.standard_normal((10, 4))
    perm = rng.permutation(10)
    out = nn.forward(model, x, bn_stat_source="batch")
    out_perm = nn.forward(model, x[perm], bn_stat_source="batch")
    assert np.allclose(out[perm], out_perm, atol=1e-12)


def test_batchnorm_running_stats_update_only_when_asked():
    # a forward never moves them; a backward moves them when asked
    model = nn.init_mlp((4, 6, 3), seed=12, batchnorm=True, dropout_rate=0.2)
    x = np.random.default_rng(1).standard_normal((8, 4))
    y = np.zeros(8, dtype=int)
    before = copy.deepcopy(model.batchnorm)
    for mode in ("eval", "train"):
        nn.forward(model, x, mode=mode, bn_stat_source="batch", rng=np.random.default_rng(2))
    with pytest.raises(TypeError, match="update_running"):
        nn.forward(model, x, bn_stat_source="batch", update_running=True)
    nn.backward(model, x, y, rng=np.random.default_rng(2))
    for bn, then in zip(model.batchnorm, before):
        assert np.array_equal(bn.running_mean, then.running_mean)
        assert np.array_equal(bn.running_var, then.running_var)
    nn.backward(model, x, y, rng=np.random.default_rng(2), update_running=True)
    assert not np.array_equal(model.batchnorm[0].running_mean, before[0].running_mean)
    assert not np.array_equal(model.batchnorm[0].running_var, before[0].running_var)


def test_training_is_bit_deterministic_under_seed():
    def run():
        model = nn.init_mlp((4, 8, 3), seed=21, dropout_rate=0.2)
        opt = make_optimizer("adamw", 1e-3, weight_decay=0.01)
        rng = np.random.default_rng(77)
        data_rng = np.random.default_rng(78)
        x = data_rng.standard_normal((64, 4))
        y = data_rng.integers(0, 3, 64)
        for _ in range(20):
            idx = rng.permutation(64)[:16]
            grads = nn.backward(model, x[idx], y[idx], mode="train", rng=rng)
            optimizer_step(opt, model, grads)
        return model

    a, b = run(), run()
    for pa, pb in zip(nn.parameters(a).values(), nn.parameters(b).values()):
        assert np.array_equal(pa, pb)


def test_model_save_load_roundtrip(tmp_path):
    model = nn.init_mlp((5, 7, 4), seed=3, dropout_rate=0.1, batchnorm=True)
    x = np.random.default_rng(0).standard_normal((6, 5))
    nn.backward(model, x, np.zeros(6, dtype=int), mode="eval", update_running=True)  # moves the running statistics
    path = tmp_path / "model.npz"
    nn.save_model(model, path)
    loaded = nn.load_model(path)
    assert loaded.layer_sizes == model.layer_sizes
    assert loaded.dropout_rate == model.dropout_rate
    assert np.array_equal(nn.forward(loaded, x), nn.forward(model, x))
    assert np.array_equal(loaded.params, model.params)


def _trainable_arrays(model):
    """The model's weights, biases and batch-norm gamma/beta, keyed like `nn.parameters`."""
    arrays = {}
    for l, (w, b) in enumerate(zip(model.weights, model.biases)):
        arrays[f"w{l}"], arrays[f"b{l}"] = w, b
    for l, bn in enumerate(model.batchnorm or ()):
        arrays[f"bn{l}_gamma"], arrays[f"bn{l}_beta"] = bn.gamma, bn.beta
    return arrays


def assert_views_of_params(model):
    """Every trainable array is the matching slice of params, and a write
    through params reaches it; running statistics are arrays of their own."""
    arrays = _trainable_arrays(model)
    assert list(arrays) == list(nn.parameters(model))
    before = model.params.copy()
    model.params += 1.0
    for name, expected in nn.param_views(model, before).items():
        assert np.shares_memory(arrays[name], model.params), name
        assert np.array_equal(arrays[name], expected + 1.0), name
    model.params[...] = before
    for bn in model.batchnorm or ():
        assert not np.shares_memory(bn.running_mean, model.params)
        assert not np.shares_memory(bn.running_var, model.params)


def assert_shares_no_memory(a, b):
    for x in (a.params, *_trainable_arrays(a).values()):
        for y in (b.params, *_trainable_arrays(b).values()):
            assert not np.shares_memory(x, y)


def test_every_trainable_array_is_a_view_of_params_however_the_model_was_made(tmp_path):
    plain = nn.init_mlp((3, 5, 4, 2), seed=1, dropout_rate=0.2, batchnorm=True)
    assert plain.params.shape == (3 * 5 + 5 + 5 * 4 + 4 + 4 * 2 + 2 + 2 * (5 + 4),)
    assert_views_of_params(plain)
    x = np.random.default_rng(0).standard_normal((6, 3))
    nn.backward(plain, x, np.zeros(6, dtype=int), mode="eval", update_running=True)
    nn.save_model(plain, tmp_path / "model.npz")
    assert_views_of_params(nn.load_model(tmp_path / "model.npz"))

    stack = nn.stack_models([nn.init_mlp((3, 5, 2), seed=s) for s in range(3)])
    assert stack.params.shape == (3, 3 * 5 + 5 + 5 * 2 + 2)
    assert_views_of_params(stack)
    for j, member in enumerate(nn.unstack(stack)):
        assert member.params.base is stack.params  # a row view, not a copy
        assert_views_of_params(member)
        member.params[0] = 7.0 + j
        assert stack.weights[0][j, 0, 0] == 7.0 + j

    opt = make_optimizer("adamw", 0.01)
    train_step(stack, opt, np.zeros((3, 4, 3)), np.zeros((3, 4), dtype=int))
    part, part_opt = _take((stack, opt), slice(1, None))
    assert part.params.shape == part_opt.flat_exp_avg.shape == part_opt.flat_exp_avg_sq.shape == (2, 32)
    assert np.array_equal(part.params, stack.params[1:])
    assert_views_of_params(part)
    assert_shares_no_memory(part, stack)

    for model in (plain, stack):
        twin = copy.deepcopy(model)
        assert np.array_equal(twin.params, model.params)
        assert_views_of_params(twin)
        assert_shares_no_memory(twin, model)
