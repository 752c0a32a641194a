import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gradsel.model import DimensionMismatchError, ModelConfig, Network, Workspace, _log1pexp_sigmoid
from gradsel.project import gaussian_projection
from reference import (
    allocating_network,
    finite_difference_margin_gradient,
    margin,
    margin_gradients,
    masked_sigmoid,
    reordered_margin_gradient_product,
    textbook_margin_head,
)


def _grad(net, params, x, label):
    """Margin gradient of the one sample (x, label) through the batched path."""
    return margin_gradients(net, params, x[None, :], np.asarray([label]))[0]


def _loss(net, params, x, label):
    return float(net.losses(params, x[None, :], np.asarray([label]))[0])


def _reference_margin_gradient(net, params, x, y):
    """Row-by-row reference: one sample forward, its margin delta built class
    by class, then the backward pass over that single row, each layer's
    gradient the outer product of its delta and its input."""
    cfg = net.config
    work, acts, Z = net._forward(params, x[None, :])
    if cfg.is_binary:
        delta = np.array([2.0 * y - 1.0])  # the label's sign
    else:
        blocks = []
        for z, label in zip(Z.reshape(cfg.num_positions, cfg.num_classes), np.atleast_1d(y)):
            others = np.delete(np.arange(cfg.num_classes), label)
            e = np.exp(z[others] - z[others].max())
            block = np.zeros(cfg.num_classes)
            block[others] = -e / e.sum()
            block[label] = 1.0
            blocks.append(block / cfg.num_positions)
        delta = np.concatenate(blocks)
    grad = np.empty(net.param_count)
    for i, d in net._layer_deltas(work, acts, delta[None, :]):
        w0, w1, b1 = net._offsets[i]
        grad[w0:w1] = np.outer(d[0], acts[i][0]).ravel()
        grad[w1:b1] = d[0]
    return grad


def test_param_count_matches_hand_count():
    # 3 inputs -> 4 hidden -> 1 output: (3*4 + 4) + (4*1 + 1) = 21
    assert Network(ModelConfig(input_dim=3, hidden_dims=(4,), num_classes=2)).param_count == 21


def test_zero_init_scale_gives_zero_vector():
    cfg = ModelConfig(input_dim=3, hidden_dims=(4,), num_classes=2, init_scale=0.0, seed=9)
    params = Network(cfg).init_params()
    assert params.shape == (21,)
    assert np.all(params == 0.0)


def test_init_determinism():
    cfg = ModelConfig(input_dim=5, hidden_dims=(8, 4), num_classes=3, seed=123)
    a = Network(cfg).init_params()
    b = Network(cfg).init_params()
    assert np.array_equal(a, b)


def test_zero_params_binary_margin_is_zero():
    cfg = ModelConfig(input_dim=4, hidden_dims=(6,), num_classes=2)
    net = Network(cfg)
    assert margin(net, np.zeros(net.param_count), np.array([1.0, -2.0, 0.5, 3.0]), 1) == 0.0


def test_uniform_softmax_margin():
    # zero params -> uniform softmax over K=10 -> log(0.1 / 0.9)
    cfg = ModelConfig(input_dim=3, hidden_dims=(), num_classes=10)
    net = Network(cfg)
    h = margin(net, np.zeros(net.param_count), np.array([0.3, -0.7, 1.1]), 4)
    assert h == pytest.approx(math.log(0.1 / 0.9), abs=1e-12)


def test_margin_softmax_identity():
    # exp(h) / (1 + exp(h)) must equal the softmax probability of the label,
    # computed here independently from raw logits
    cfg = ModelConfig(input_dim=5, hidden_dims=(16,), num_classes=7, seed=2)
    net = Network(cfg)
    params = net.init_params()
    rng = np.random.default_rng(0)
    for label in (0, 3, 6):
        x = rng.standard_normal(5)
        z = net._forward(params, x[None, :])[2][0]
        p = np.exp(z - z.max())
        p /= p.sum()
        h = margin(net, params, x, label)
        assert math.exp(h) / (1 + math.exp(h)) == pytest.approx(p[label], abs=1e-12)


def test_loss_at_zero_margin_is_log2():
    cfg = ModelConfig(input_dim=4, hidden_dims=(6,), num_classes=2)
    net = Network(cfg)
    assert _loss(net, np.zeros(net.param_count), np.ones(4), 0) == pytest.approx(math.log(2), abs=1e-12)


def test_uniform_softmax_loss():
    cfg = ModelConfig(input_dim=3, hidden_dims=(), num_classes=10)
    net = Network(cfg)
    x = np.array([0.3, -0.7, 1.1])
    assert _loss(net, np.zeros(net.param_count), x, 2) == pytest.approx(math.log(10), abs=1e-12)


def test_loss_equals_logistic_of_margin():
    # log(1 + exp(-h)) == -log p_y whenever h = log(p_y / (1 - p_y))
    cfg = ModelConfig(input_dim=6, hidden_dims=(12,), num_classes=5, seed=3)
    net = Network(cfg)
    params = net.init_params()
    rng = np.random.default_rng(1)
    for _ in range(5):
        x, label = rng.standard_normal(6), int(rng.integers(5))
        h = margin(net, params, x, label)
        assert _loss(net, params, x, label) == pytest.approx(math.log1p(math.exp(-h)), abs=1e-12)


@pytest.mark.parametrize("num_classes,positions", [(2, 1), (10, 1), (10, 3)])
def test_margin_gradient_matches_finite_differences(num_classes, positions):
    cfg = ModelConfig(
        input_dim=4, hidden_dims=(8,), num_classes=num_classes,
        num_positions=positions, seed=5,
    )
    net = Network(cfg)
    params = net.init_params()
    rng = np.random.default_rng(2)
    x = rng.standard_normal(4)
    label = rng.integers(num_classes, size=positions) if positions > 1 else 1
    g = _grad(net, params, x, label)
    fd = finite_difference_margin_gradient(net, params, x, label, step=1e-5)
    assert np.linalg.norm(g - fd) / np.linalg.norm(g) <= 1e-5


@pytest.mark.parametrize("activation", ["tanh", "relu"])
@pytest.mark.parametrize("num_classes,positions", [(2, 1), (10, 1), (10, 3)])
def test_margin_gradients_match_row_loop(num_classes, positions, activation):
    # the batched outer-product path equals the one-sample-at-a-time
    # reference row by row, through two hidden layers, and matches central
    # differences
    cfg = ModelConfig(
        input_dim=5, hidden_dims=(7, 6), activation=activation,
        num_classes=num_classes, num_positions=positions, seed=11,
    )
    net = Network(cfg)
    params = net.init_params()
    rng = np.random.default_rng(4)
    n = 9
    X = rng.standard_normal((n, 5))
    shape = (n, positions) if positions > 1 else (n,)
    labels = rng.integers(num_classes, size=shape)
    G = margin_gradients(net, params, X, labels)
    assert G.shape == (n, net.param_count)
    for i in range(n):
        ref = _reference_margin_gradient(net, params, X[i], labels[i])
        assert np.max(np.abs(G[i] - ref)) <= 1e-12 * max(1.0, np.max(np.abs(ref)))
    for i in (0, n - 1):
        fd = finite_difference_margin_gradient(net, params, X[i], labels[i], step=1e-5)
        assert np.linalg.norm(G[i] - fd) / np.linalg.norm(G[i]) <= 1e-5
    if positions > 1:
        for bad in (labels[:, 0], labels.ravel()):
            with pytest.raises(ValueError, match="expected labels of shape"):
                margin_gradients(net, params, X, bad)


@pytest.mark.parametrize("activation", ["tanh", "relu"])
@pytest.mark.parametrize("num_classes,positions", [(2, 1), (10, 1), (10, 3)])
def test_loss_gradient_matches_finite_differences(num_classes, positions, activation):
    # the training gradient is the central difference of the mean batch loss
    cfg = ModelConfig(
        input_dim=4, hidden_dims=(6, 5), activation=activation,
        num_classes=num_classes, num_positions=positions, seed=13,
    )
    net = Network(cfg)
    rng = np.random.default_rng(8)
    # nonzero biases keep every relu pre-activation away from its kink
    params = net.init_params() + 0.1 * rng.standard_normal(net.param_count)
    n = 7
    X = rng.standard_normal((n, 4))
    labels = rng.integers(num_classes, size=(n, positions) if positions > 1 else (n,))
    g = net.loss_gradient(params, X, labels)
    fd = np.empty_like(params)
    step = 1e-5
    for i in range(len(params)):
        hi, lo = params.copy(), params.copy()
        hi[i] += step
        lo[i] -= step
        fd[i] = (net.losses(hi, X, labels).mean() - net.losses(lo, X, labels).mean()) / (2 * step)
    assert np.linalg.norm(g - fd) / np.linalg.norm(g) <= 1e-6
    if num_classes > 2:
        # one position per label column: flattened labels must not pass
        for op in (net.loss_gradient, net.losses, net.margins):
            with pytest.raises(ValueError, match="expected labels of shape"):
                op(params, X, np.repeat(labels, 2))


def test_linear_binary_gradient_is_feature_vector():
    # no hidden layer, binary head: the margin is the logit signed by the
    # label, so dh/dW = (2 label - 1) x and dh/db = 2 label - 1
    cfg = ModelConfig(input_dim=5, hidden_dims=(), num_classes=2, seed=1)
    net = Network(cfg)
    params = net.init_params()
    x = np.array([0.5, -1.5, 2.0, 0.0, 3.0])
    for label in (0, 1):
        g = _grad(net, params, x, label)
        assert np.allclose(g[:5], (2 * label - 1) * x, atol=1e-14)
        assert g[5] == pytest.approx(2 * label - 1, abs=1e-14)


def test_generative_identical_positions_equal_single_position():
    cfg_multi = ModelConfig(input_dim=4, hidden_dims=(6,), num_classes=10, num_positions=3, seed=8)
    net_multi = Network(cfg_multi)
    params = net_multi.init_params()
    x = np.array([1.0, 0.0, -1.0, 0.5])

    # make the three position heads identical by copying the first block
    layers = net_multi.unpack(params)
    W_out, b_out = layers[-1]
    for pos in (1, 2):
        W_out[10 * pos : 10 * (pos + 1)] = W_out[:10]
        b_out[10 * pos : 10 * (pos + 1)] = b_out[:10]

    g3 = _grad(net_multi, params, x, [4, 4, 4])

    cfg_one = ModelConfig(input_dim=4, hidden_dims=(6,), num_classes=10, num_positions=1, seed=8)
    net_one = Network(cfg_one)
    p_one = np.concatenate([params[: 4 * 6 + 6], W_out[:10].ravel(), b_out[:10]])
    g1 = _grad(net_one, p_one, x, 4)

    # trunk gradients agree; each head block of g3 is one third of g1's head
    trunk = 4 * 6 + 6
    assert np.allclose(g3[:trunk], g1[:trunk], atol=1e-12)
    head3 = g3[trunk:].reshape(-1)
    head1 = g1[trunk:]
    w_blocks = head3[: 30 * 6].reshape(3, 10 * 6)
    for blk in w_blocks:
        assert np.allclose(blk, head1[: 10 * 6] / 3.0, atol=1e-12)
    assert margin(net_multi, params, x, [4, 4, 4]) == pytest.approx(margin(net_one, p_one, x, 4), abs=1e-12)


def test_margin_and_gradient_bitwise_deterministic():
    cfg = ModelConfig(input_dim=6, hidden_dims=(10,), num_classes=2, seed=42)
    net = Network(cfg)
    params = net.init_params()
    x = np.linspace(-1, 1, 6)
    assert margin(net, params, x, 1) == margin(net, params, x, 1)
    g1 = _grad(net, params, x, 1)
    g2 = _grad(net, params, x, 1)
    assert np.array_equal(g1, g2)


def test_dimension_mismatch_raises():
    cfg = ModelConfig(input_dim=4, hidden_dims=(3,), num_classes=2)
    net = Network(cfg)
    with pytest.raises(DimensionMismatchError):
        margin(net, np.zeros(net.param_count + 1), np.zeros(4), 0)
    with pytest.raises(DimensionMismatchError):
        margin(net, np.zeros(net.param_count), np.zeros(5), 0)


def test_relu_activation_gradient():
    cfg = ModelConfig(input_dim=4, hidden_dims=(8,), activation="relu", num_classes=2, seed=6)
    net = Network(cfg)
    params = net.init_params()
    x = np.array([0.4, -0.2, 1.3, 0.9])
    g = _grad(net, params, x, 1)
    fd = finite_difference_margin_gradient(net, params, x, 1, step=1e-5)
    assert np.linalg.norm(g - fd) / np.linalg.norm(g) <= 1e-5


def test_config_validation():
    with pytest.raises(ValueError):
        ModelConfig(input_dim=0, hidden_dims=(4,))
    with pytest.raises(ValueError):
        ModelConfig(input_dim=3, hidden_dims=(4,), activation="gelu")
    with pytest.raises(ValueError):
        ModelConfig(input_dim=3, hidden_dims=(4,), num_classes=1)


HEADS = [(2, 1), (3, 1), (10, 1), (4, 3)]  # binary, multi-class, multi-position

SIGMOID_SPECIALS = [math.nan, -math.nan, 0.0, -0.0, math.inf, -math.inf, 800.0, -800.0,
                    5e-324, -5e-324, 2.2250738585072014e-308, -1e-310, 36.0, -36.0, 710.0, -746.0]


@settings(max_examples=120, deadline=None)
@given(
    head=st.sampled_from(HEADS),
    activation=st.sampled_from(["tanh", "relu"]),
    input_dim=st.integers(1, 9),
    hidden_dims=st.lists(st.integers(1, 12), min_size=1, max_size=2),
    n=st.integers(1, 7),
    m_kind=st.sampled_from(["gaussian", "injected", "directions"]),
    k=st.integers(1, 3),
    seed=st.integers(0, 2**16),
)
# one layer each way in one model: 8 -> 3 has in > out, 3 -> 6 has out >= in
@example(head=(4, 3), activation="relu", input_dim=8, hidden_dims=[3, 6], n=5,
         m_kind="gaussian", k=1, seed=0)
@example(head=(2, 1), activation="tanh", input_dim=8, hidden_dims=[3, 6], n=5,
         m_kind="directions", k=3, seed=1)
def test_margin_gradient_product_matches_full_gradients(head, activation, input_dim, hidden_dims,
                                                       n, m_kind, k, seed):
    # the layer-factored product equals the (N, p) gradient block times M
    num_classes, positions = head
    net = Network(ModelConfig(input_dim=input_dim, hidden_dims=tuple(hidden_dims), activation=activation,
                              num_classes=num_classes, num_positions=positions, seed=seed))
    rng = np.random.default_rng(seed)
    params = net.init_params() + 0.3 * rng.standard_normal(net.param_count)
    X = rng.standard_normal((n, input_dim))
    labels = rng.integers(num_classes, size=(n, positions) if positions > 1 else (n,))
    p = net.param_count
    if m_kind == "gaussian":
        M = gaussian_projection(p, 2 * k + 3, seed)
    elif m_kind == "injected":
        M = rng.standard_normal((p, k + 4))
    else:
        M = rng.standard_normal((p, k))
        M /= np.linalg.norm(M, axis=0)
    ref = margin_gradients(net, params, X, labels) @ M
    h, got = net.margin_gradient_product(M)(params, X, labels)
    assert got.shape == ref.shape
    assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))
    # the same pass gives the margins, bit for bit
    assert h.tobytes() == net.margins(params, X, labels).tobytes()


@settings(max_examples=60, deadline=None)
@given(
    head=st.sampled_from(HEADS),
    activation=st.sampled_from(["tanh", "relu"]),
    input_dim=st.integers(1, 48),
    hidden=st.integers(1, 48),
    n=st.integers(1, 300),
    k=st.integers(1, 120),
    seed=st.integers(0, 2**16),
)
# a one-unit layer between two wider ones; the addition model's in > out
# head layer, at the cache's chunk of rows and d
@example(head=(2, 1), activation="tanh", input_dim=9, hidden=1, n=300, k=120, seed=0)
@example(head=(10, 5), activation="relu", input_dim=8, hidden=256, n=128, k=100, seed=1)
def test_margin_gradient_product_is_the_reordered_gemm(head, activation, input_dim, hidden, n, k, seed):
    # where in > out, each output unit's rows of M are contracted with the
    # layer's inputs in place; the reference copies them into one (in, out k)
    # matrix for one gemm. A one-unit layer makes the same gemm call either
    # way, so the bits agree; elsewhere BLAS may take another kernel for the
    # narrower gemms (OpenBLAS does at about 1e6 multiplies or fewer), so
    # the sums over in agree to their rounding
    num_classes, positions = head
    net = Network(ModelConfig(input_dim=input_dim, hidden_dims=(hidden,), activation=activation,
                              num_classes=num_classes, num_positions=positions, seed=seed))
    rng = np.random.default_rng(seed)
    params = net.init_params() + 0.3 * rng.standard_normal(net.param_count)
    X = rng.standard_normal((n, input_dim))
    labels = rng.integers(num_classes, size=(n, positions) if positions > 1 else (n,))
    M = rng.standard_normal((net.param_count, k))
    ref = reordered_margin_gradient_product(net, M, params, X, labels)
    got = net.margin_gradient_product(M)(params, X, labels)[1]
    if all(dout == 1 for dout, din in net._shapes if din > dout):
        assert got.tobytes() == ref.tobytes()
    else:
        terms = max(din + dout for dout, din in net._shapes) + len(net._shapes)
        bound = 2 * terms * np.finfo(float).eps * (np.abs(margin_gradients(net, params, X, labels)) @ np.abs(M))
        assert np.all(np.abs(got - ref) <= bound)


def test_margin_gradient_product_checks_matrix_shape():
    net = Network(ModelConfig(input_dim=3, hidden_dims=(4,), seed=0))
    for bad in (np.zeros(net.param_count), np.zeros((net.param_count + 1, 2))):
        with pytest.raises(DimensionMismatchError):
            net.margin_gradient_product(bad)


@pytest.mark.parametrize("activation", ["tanh", "relu"])
@pytest.mark.parametrize("head", HEADS)
def test_in_place_kernels_match_allocating_reference(head, activation):
    # the forward and backward kernels write bias adds, activations and
    # derivatives in place, and the heads their softmax and cross-entropy in
    # the logits: every output is bit for bit the allocating, textbook one's,
    # and the caller's features are left as they were
    num_classes, positions = head
    net = Network(ModelConfig(input_dim=6, hidden_dims=(9, 5), activation=activation,
                              num_classes=num_classes, num_positions=positions, seed=2))
    ref = allocating_network(net)
    rng = np.random.default_rng(3)
    params = net.init_params() + 0.3 * rng.standard_normal(net.param_count)
    X = 3.0 * rng.standard_normal((32, 6))
    labels = rng.integers(num_classes, size=(32, positions) if positions > 1 else (32,))
    X_before = X.copy()
    M = gaussian_projection(net.param_count, 7, 4)
    for name, call in [
        ("losses", lambda n: n.losses(params, X, labels)),
        ("margins", lambda n: n.margins(params, X, labels)),
        ("loss_gradient", lambda n: n.loss_gradient(params, X, labels)),
    ]:
        assert call(net).tobytes() == call(ref).tobytes(), name
    # both parts of the product: the margins and G @ M from one pass
    for part, got, want in zip(("margins", "G @ M"), net.margin_gradient_product(M)(params, X, labels),
                               ref.margin_gradient_product(M)(params, X, labels)):
        assert got.tobytes() == want.tobytes(), part
    # a training step's and a validation pass's workspace, reused across
    # batch sizes (a power of two, then not) and across an in-place update
    # of the parameters, as a fit's loop makes both
    work, val_work = Workspace(net, 32), Workspace(net, 32)
    for rows in (32, 12, 1, 32):
        Xk, yk = X[:rows], labels[:rows]
        got = net.loss_gradient(params, Xk, yk, work)
        assert got.tobytes() == ref.loss_gradient(params, Xk, yk).tobytes(), rows
        assert net.losses(params, Xk, yk, val_work).tobytes() == ref.losses(params, Xk, yk).tobytes(), rows
        params -= 0.1 * got
    # another parameter array: the workspace makes its views anew
    other = params + 0.5
    assert net.loss_gradient(other, X, labels, work).tobytes() == ref.loss_gradient(other, X, labels).tobytes()
    assert np.array_equal(X, X_before)


def test_heads_refuse_labels_outside_the_classes():
    net = Network(ModelConfig(input_dim=3, num_classes=4, num_positions=2, seed=0))
    params, X = net.init_params(), np.zeros((2, 3))
    for bad in ([[0, 4], [1, 2]], [[0, 1], [-1, 2]]):
        for call in (net.losses, net.margins, net.loss_gradient):
            with pytest.raises(ValueError, match="class indices in 0..3"):
                call(params, X, np.array(bad))


def test_a_binary_head_refuses_labels_outside_0_and_1():
    # a label of 7 or -1 used to train on logit signs 13 and -3
    net = Network(ModelConfig(input_dim=3, num_classes=2, seed=0))
    params, X = net.init_params(), np.zeros((2, 3))
    for bad in ([0, 7], [-1, 1], [2, 0]):
        for call in (net.losses, net.margins, net.loss_gradient):
            with pytest.raises(ValueError, match=r"class indices in 0\.\.1"):
                call(params, X, np.array(bad))
    assert np.isfinite(net.losses(params, X, np.array([0, 1]))).all()


@settings(max_examples=200, deadline=None)
@given(
    j=st.integers(min_value=0, max_value=64),
    values=st.lists(st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True), max_size=40),
)
@example(j=5, values=SIGMOID_SPECIALS)
@example(j=0, values=SIGMOID_SPECIALS)
@example(j=64, values=[5e-324, -5e-324, 2.2250738585072014e-308, 1.5e-323, 3.0 * 2.0**-1070])
def test_dividing_by_a_power_of_two_is_multiplying_by_its_inverse(j, values):
    # the batch mean's shortcut: x / 2^j and x * 2^-j round the same real
    # number, so their bits agree, NaNs, infinities, zeros and subnormals
    # (where both round) included
    x = np.array(values + SIGMOID_SPECIALS, dtype=np.float64)
    k = 2**j
    scaled = x.copy()
    scaled *= 1.0 / k
    assert scaled.tobytes() == (x / k).tobytes()


@pytest.mark.parametrize("work_rows", [None, 8])
def test_one_unit_layer_backprop_keeps_the_gemm_bits_at_signed_zeros(work_rows):
    # output deltas of -0 (a binary head at a logit past 745 with label 1)
    # backpropagated through the one-unit layer: gemm adds each -0 product
    # to a zeroed sum, giving +0, and the broadcast product must match it
    net = Network(ModelConfig(input_dim=3, hidden_dims=(6,), seed=4))
    ref = allocating_network(net)
    params = net.init_params()
    X = np.random.default_rng(5).standard_normal((8, 3))
    delta = np.full((8, 1), -0.0)
    work = None if work_rows is None else Workspace(net, work_rows)

    def deltas(n, work=None):
        work, acts, _ = n._forward(params, X, work)
        return [d.tobytes() for _, d in n._layer_deltas(work, acts, delta)]

    assert deltas(net, work) == deltas(ref)


@settings(max_examples=80, deadline=None)
@given(
    n=st.sampled_from([1, 80, 640, 20_000]),
    scale=st.sampled_from([1.0, 40.0, 1e3]),
    seed=st.integers(0, 2**32 - 1),
    specials=st.lists(st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True), max_size=40),
)
@example(n=1, scale=1.0, seed=0, specials=[math.nan])
@example(n=1, scale=1.0, seed=0, specials=[-math.nan])
@example(n=1, scale=1.0, seed=0, specials=[-0.0])
@example(n=80, scale=1.0, seed=1, specials=SIGMOID_SPECIALS)
@example(n=640, scale=40.0, seed=2, specials=SIGMOID_SPECIALS * 4)
@example(n=20_000, scale=1e3, seed=3, specials=SIGMOID_SPECIALS * 100)
def test_sigmoid_is_the_masked_two_branch_form_bit_for_bit(n, scale, seed, specials):
    rng = np.random.default_rng(seed)
    z = scale * rng.standard_normal(n)
    z[rng.integers(n, size=len(specials))] = specials
    # loss_gradient's binary head takes the sigmoid of the solver's kernel
    assert _log1pexp_sigmoid(z.copy())[1].tobytes() == masked_sigmoid(z).tobytes()


@settings(max_examples=300, deadline=None)
@given(
    n=st.integers(1, 6),
    positions=st.integers(1, 5),
    classes=st.integers(2, 11),
    scale=st.sampled_from([1e-3, 1.0, 30.0, 800.0]),
    ties=st.booleans(),
    at_max=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
@example(n=4, positions=1, classes=3, scale=800.0, ties=True, at_max=True, seed=0)
@example(n=4, positions=5, classes=2, scale=800.0, ties=True, at_max=False, seed=1)
def test_head_margins_and_deltas_are_the_allocating_forms_bit_for_bit(n, positions, classes, scale, ties, at_max, seed):
    # the margin head exponentiates the masked logits once, in place
    # (_exp_rows); its margins' and deltas' bytes are those of a logsumexp
    # and a softmax that allocate, at logits up to +-800, on rows of equal
    # logits and with the label at a row's maximum
    if positions == 1:
        classes = max(classes, 3)  # two classes at one position is the binary head
    rng = np.random.default_rng(seed)
    Z = rng.uniform(-scale, scale, (n, positions, classes))
    Z[rng.random(Z.shape) < 0.1] = scale * rng.choice([-1.0, 1.0])
    if ties:
        Z[rng.random((n, positions)) < 0.5] = Z[0, 0, 0]
        Z[..., 1] = Z[..., 0]
    labels = Z.argmax(axis=-1) if at_max else rng.integers(0, classes, (n, positions))
    labels = labels[:, 0] if positions == 1 else labels
    net = Network(ModelConfig(input_dim=positions * classes, num_classes=classes, num_positions=positions))
    params = np.concatenate([np.eye(positions * classes).ravel(), np.zeros(positions * classes)])
    X = Z.reshape(n, -1)
    logits = net._forward(params, X)[2]
    assert net.margins(params, X, labels).tobytes() == textbook_margin_head(net, logits, labels)[0].tobytes()
    for got, want in zip(net._margin_head(X.copy(), labels, Workspace(net, n)), textbook_margin_head(net, X, labels)):
        assert got.tobytes() == want.tobytes()
