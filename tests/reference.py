"""Reference implementations the production paths are checked against.

No stage runs them: each computes a quantity the slow, obvious way, so a test
can compare a fast path with it.
"""

import copy
import math
import types

import numpy as np


def margin(net, params, x, label) -> float:
    """Margin of the labeled class of the one sample (x, label), from its
    logits: (2 label - 1) z for a binary head's logit z, else the labeled
    class's log-odds averaged over positions; label is a class index, or the
    (L,) position labels of a multi-position head."""
    z = net.logits(params, x[None, :])[0]
    if net.config.is_binary:
        return float((2 * label - 1) * z[0])
    per_position = z.reshape(net.config.num_positions, net.config.num_classes)
    odds = [row[c] - np.logaddexp.reduce(np.delete(row, c)) for row, c in zip(per_position, np.atleast_1d(label))]
    return float(np.mean(odds))


def margin_gradients(net, params, X, labels) -> np.ndarray:
    """Exact per-sample margin gradients, one row per sample: (N, p).

    One forward and one backward pass over the batch. Each layer's per-sample
    weight gradient is the outer product of its output delta and its input
    activation, written straight into the result. Multi-position samples get
    the average of per-position margin gradients. The block that
    Network.margin_gradient_product never builds.
    """
    layers, acts, Z = net._forward(params, X)
    delta = net._margin_deltas(Z, labels)
    n = len(Z)
    out = np.empty((n, net.param_count))
    for i, d in net._layer_deltas(layers, acts, delta):
        w0, w1, b1 = net._offsets[i]
        np.multiply(d[:, :, None], acts[i][:, None, :], out=out[:, w0:w1].reshape(n, *net._shapes[i]))
        out[:, w1:b1] = d
    return out


def reordered_margin_gradient_product(net, M, params, X, labels) -> np.ndarray:
    """G @ M as Network.margin_gradient_product computed it with a reordered
    copy of M: each in > out layer's rows of M as one contiguous (in, out k)
    matrix, contracted with the layer's inputs in one gemm whose (N, out, k)
    result is then contracted with its deltas; an in <= out layer contracts
    its deltas with M's (out, in k) rows, then its inputs."""
    k = M.shape[1]
    layers, acts, Z = net._forward(params, X)
    delta = net._margin_deltas(Z, labels)
    n = len(delta)
    out = np.zeros((n, k))
    for i, d in net._layer_deltas(layers, acts, delta):
        (dout, din), (w0, w1, b1) = net._shapes[i], net._offsets[i]
        Mi = M[w0:w1].reshape(dout, din, k)
        if din > dout:
            F = np.ascontiguousarray(Mi.transpose(1, 0, 2)).reshape(din, dout * k)
            first, second = acts[i], d
        else:
            F, first, second = Mi.reshape(dout, din * k), d, acts[i]
        out += np.matmul(second[:, None, :], (first @ F).reshape(n, second.shape[1], k))[:, 0]
        out += d @ M[w1:b1]
    return out


def finite_difference_margin_gradient(net, params, x, label, step: float = 1e-5) -> np.ndarray:
    """Central-difference margin gradient of the sample (x, label)."""
    grad = np.zeros_like(params)
    work = params.copy()
    for i in range(len(params)):
        orig = work[i]
        work[i] = orig + step
        hi = margin(net, work, x, label)
        work[i] = orig - step
        lo = margin(net, work, x, label)
        work[i] = orig
        grad[i] = (hi - lo) / (2.0 * step)
    return grad


def subset_objective(cache, subset, x, ridge_lambda: float):
    """Value and gradient of the solver's objective over a subset's cached
    rows at x: mean log(1 + exp(b_i - g_i . x)) + ridge_lambda / 2 ||x||^2,
    the log-loss at the first-order margins -b_i + g_i . x."""
    idx = np.flatnonzero(np.isin(cache.task_id, [*subset, 0]))
    if idx.size == 0:
        raise ValueError(f"no cached samples for subset {sorted(subset)}")
    value, grad, _ = value_grad(cache.b[idx], cache.g_proj[idx], np.asarray(x, dtype=np.float64), ridge_lambda)
    return value, grad


def fixed_step_newton(b, G, lam, cfg, x0, H_inv):
    """One subset's solve over rows (b, G) from x0, as the estimator took it
    one subset at a time with matrix-vector products: full fixed steps
    -H_inv grad, each kept only while its slope is negative, it halves
    ||grad|| and estimate._accepts it; after the first that fails, damped
    Newton from where it is (the Hessian G^T diag(s (1 - s)) G / n + lam I
    solved directly, or -grad if it is singular), in the same count of
    steps. Returns (x, steps of both kinds, stop)."""
    from gradsel.estimate import Stop, _accepts

    x = x0.copy()
    value, grad, s = value_grad(b, G, x, lam)
    grad_norm = math.sqrt(grad @ grad)
    for it in range(1, cfg.max_iters + 1):
        if grad_norm <= cfg.grad_tol:
            return x, it - 1, Stop.CONVERGED
        if H_inv is not None:
            direction = -(H_inv @ grad)
            slope = grad @ direction
            if slope < 0:
                cand = x + direction
                cand_value, cand_grad, cand_s = value_grad(b, G, cand, lam)
                cand_norm = math.sqrt(cand_grad @ cand_grad)
                if cand_norm <= 0.5 * grad_norm and _accepts(value, slope, 1.0, cand_value, cand_grad @ direction):
                    x, value, grad, s, grad_norm = cand, cand_value, cand_grad, cand_s, cand_norm
                    continue
            H_inv = None
        try:
            direction = np.linalg.solve((G.T * (s * (1.0 - s))) @ G / len(b) + lam * np.eye(len(x)), -grad)
        except np.linalg.LinAlgError:
            direction = -grad
        slope = grad @ direction
        if slope >= 0:
            direction = -grad
            slope = grad @ direction
        step = 1.0
        for _ in range(60):
            cand = x + step * direction
            cand_value, cand_grad, cand_s = value_grad(b, G, cand, lam)
            if _accepts(value, slope, step, cand_value, cand_grad @ direction):
                break
            step *= 0.5
        else:
            return x, it, Stop.LINESEARCH
        x, value, grad, s = cand, cand_value, cand_grad, cand_s
        grad_norm = math.sqrt(grad @ grad)
    return x, cfg.max_iters, Stop.CONVERGED if grad_norm <= cfg.grad_tol else Stop.MAX_ITERS


def estimate_alone(net, theta_star, problem, subset, target_val, linearized=False, H_inv=None):
    """(x_hat, f_hat, steps, stop) of one subset solved and scored alone, by
    matrix-vector products: its start x_all - H_all^-1 grad_S(x_all) from
    the problem's per-task sums (estimate.prepare), fixed_step_newton over
    the rows of its tasks and the target's, picked by task id (with H_inv
    in place of H_all^-1 if given), then theta* + P x_hat evaluated on
    target_val, or with linearized the mean linearized loss over the cached
    target-val rows."""
    from gradsel.linearize import TARGET_VAL_ID

    cache, cfg, x_all, H_all_inv = problem.cache, problem.cfg, problem.x_all, problem.H_inv
    tasks = sorted({*map(int, subset), 0})
    idx = np.flatnonzero(np.isin(cache.task_id, tasks))
    x0 = x_all - H_all_inv @ (cfg.ridge_lambda * x_all - problem.sums[tasks].sum(axis=0) / len(idx))
    steps = H_all_inv if H_inv is None else H_inv
    x, iters, stop = fixed_step_newton(cache.b[idx], cache.g_proj[idx], cfg.ridge_lambda, cfg, x0, steps)
    if linearized:
        val = cache.task_id == TARGET_VAL_ID
        f_hat = float(np.mean(np.logaddexp(0.0, cache.b[val] - cache.g_proj[val] @ x)))
    else:
        f_hat = float(net.losses(theta_star + cache.P @ x, *target_val).mean())
    return x, f_hat, iters, stop


def masked_sigmoid(z) -> np.ndarray:
    """The logistic function in its two-branch form, each branch on the
    elements a boolean mask gathers: 1 / (1 + exp(-z)) where z >= 0, else
    exp(z) / (1 + exp(z)), neither of which overflows."""
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def value_grad(b, G, x, lam):
    """The solver objective's (value, gradient, sigmoid of the margins) over
    rows (b, G) at x, each an allocating expression of the arithmetic
    estimate._block_value_grad does for one subset: margins z = b - G x,
    loss terms max(z, 0) + log1p(exp(-|z|)), the ridge term's x . x summed
    as einsum sums it."""
    z = b - G @ x
    value = float(np.mean(np.maximum(z, 0.0) + np.log1p(np.exp(-np.abs(z)))) + 0.5 * lam * np.einsum("i,i", x, x))
    s = masked_sigmoid(z)
    grad = -(G.T @ s) / len(b) + lam * x
    return value, grad, s


def allocating_network(net):
    """A copy of net whose forward and backward kernels allocate a new array
    for each bias add, activation and activation derivative, and whose
    loss_gradient and losses are the textbook expressions over them (a
    softmax, then 1 subtracted at each label; a logsumexp per position);
    Network's in-place kernels and heads, with a workspace or without, must
    match it bit for bit."""
    ref = copy.copy(net)
    ref._forward = types.MethodType(_allocating_forward, ref)
    ref._layer_deltas = types.MethodType(_allocating_layer_deltas, ref)
    ref.loss_gradient = types.MethodType(_textbook_loss_gradient, ref)
    ref.losses = types.MethodType(_textbook_losses, ref)
    return ref


def _logsumexp(z, axis):
    m = np.max(z, axis=axis, keepdims=True)
    return np.squeeze(m, axis=axis) + np.log(np.sum(np.exp(z - m), axis=axis))


def _softmax(z):
    m = np.max(z, axis=-1, keepdims=True)
    e = np.exp(z - m)
    return e / np.sum(e, axis=-1, keepdims=True)


def _others_masked(net, Z, labels):
    """A multi-class head's (N, L, C) logits, its labels as (N, L, 1)
    indices, and a copy of the logits with -inf at each label."""
    cfg = net.config
    Zp = Z.reshape(len(Z), cfg.num_positions, cfg.num_classes)
    at_label = np.asarray(labels).reshape(len(Z), cfg.num_positions, 1)
    masked = Zp.copy()
    np.put_along_axis(masked, at_label, -np.inf, axis=-1)
    return Zp, at_label, masked


def head_margins(net, params, X, labels) -> np.ndarray:
    """Network.margins of a multi-class head as allocating expressions: per
    position, z_y minus a logsumexp over the other classes, then the mean
    over positions."""
    Zp, at_label, masked = _others_masked(net, net.logits(params, X), labels)
    zy = np.take_along_axis(Zp, at_label, axis=-1)[..., 0]
    return (zy - _logsumexp(masked, axis=-1)).mean(axis=1)


def head_margin_deltas(net, Z, labels) -> np.ndarray:
    """Network._margin_deltas of a multi-class head as allocating
    expressions: minus the softmax over the other classes, 1 at the label,
    over the number of positions."""
    _, at_label, masked = _others_masked(net, Z, labels)
    delta = -_softmax(masked)
    np.put_along_axis(delta, at_label, 1.0, axis=-1)
    return delta.reshape(len(Z), -1) / net.config.num_positions


def _textbook_losses(net, params, X, labels, work=None):
    Z = net._forward(params, X)[2]
    cfg = net.config
    if cfg.is_binary:
        return np.logaddexp(0.0, -(2.0 * np.asarray(labels) - 1.0) * Z[:, 0])
    n = len(Z)
    Zp, y = Z.reshape(n, cfg.num_positions, cfg.num_classes), np.asarray(labels).reshape(n, cfg.num_positions)
    rows = np.arange(n)
    ce = np.stack([_logsumexp(Zp[:, i, :], axis=1) - Zp[rows, i, y[:, i]] for i in range(cfg.num_positions)], axis=1)
    return ce.mean(axis=1)


def _textbook_loss_gradient(net, params, X, labels, work=None):
    layers, acts, Z = net._forward(params, X)
    cfg = net.config
    n = len(Z)
    if cfg.is_binary:
        y = 2.0 * np.asarray(labels) - 1.0
        delta = (-y * masked_sigmoid(-y * Z[:, 0]))[:, None]
    else:
        Zp = Z.reshape(n, cfg.num_positions, cfg.num_classes)
        e = np.exp(Zp - np.max(Zp, axis=-1, keepdims=True))
        delta = e / np.sum(e, axis=-1, keepdims=True)
        y = np.asarray(labels).reshape(n, cfg.num_positions)
        delta[np.arange(n)[:, None], np.arange(cfg.num_positions), y] -= 1.0
        delta = delta.reshape(n, -1) / cfg.num_positions
    grad = np.empty(net.param_count)
    for i, d in net._layer_deltas(layers, acts, delta):
        w0, w1, b1 = net._offsets[i]
        grad[w0:w1] = (d.T @ acts[i]).ravel()
        grad[w1:b1] = np.sum(d, axis=0)
    return grad / n


def _allocating_forward(net, params, X, work=None):
    layers = net.unpack(params)
    acts = [net._check_features(X)]
    for i, (W, b) in enumerate(layers):
        z = acts[-1] @ W.T + b
        if i < len(layers) - 1:
            acts.append(np.tanh(z) if net.config.activation == "tanh" else np.maximum(z, 0.0))
    return layers, acts, z


def _allocating_layer_deltas(net, layers, acts, delta, work=None):
    for i in range(len(layers) - 1, -1, -1):
        yield i, delta
        if i > 0:
            a = acts[i]
            derivative = 1.0 - a * a if net.config.activation == "tanh" else a > 0.0
            delta = (delta @ layers[i][0]) * derivative


def adam_fit(net, theta0, X, y, step_size, batch_size, epochs, seed):
    """Adam from theta0 for a fixed number of epochs in the textbook form,
    drawing batches as trainer._fit does: a permutation of the rows per
    epoch from default_rng(seed), cut into batches in order."""
    rng = np.random.default_rng(seed)
    params = theta0.copy()
    m = np.zeros_like(params)
    v = np.zeros_like(params)
    beta1, beta2, eps = 0.9, 0.999, 1e-8
    step = 0
    for _ in range(epochs):
        perm = rng.permutation(len(X))
        for start in range(0, len(X), batch_size):
            idx = perm[start : start + batch_size]
            g = net.loss_gradient(params, X[idx], y[idx])
            step += 1
            m = beta1 * m + (1 - beta1) * g
            v = beta2 * v + (1 - beta2) * g * g
            mh = m / (1 - beta1**step)
            vh = v / (1 - beta2**step)
            params = params - step_size * mh / (np.sqrt(vh) + eps)
    return params


def addition_split(rng, n, digits, noisy):
    """taskgen._addition_split one sample at a time: the operands drawn
    until their sum, taken through their decimal strings, fits in digits;
    the one-hot features set one digit at a time; a clean sample's labels
    the characters of the zero-padded sum."""
    X = np.zeros((n, 2 * digits * 10))
    Y = np.empty((n, digits), dtype=np.int64)
    for i in range(n):
        while True:
            a = rng.integers(0, 10, size=digits)
            b = rng.integers(0, 10, size=digits)
            total = int("".join(map(str, a))) + int("".join(map(str, b)))
            if total < 10**digits:
                break
        for j, d in enumerate(list(a) + list(b)):
            X[i, j * 10 + int(d)] = 1.0
        Y[i] = rng.integers(0, 10, size=digits) if noisy else [int(ch) for ch in str(total).zfill(digits)]
    return X, Y[:, 0] if digits == 1 else Y
