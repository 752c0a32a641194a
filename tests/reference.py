"""Reference implementations the production paths are checked against.

No stage runs them: each computes a quantity the slow, obvious way, so a test
can compare a fast path with it.
"""

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
    idx = cache.rows_for(subset)
    if idx.size == 0:
        raise ValueError(f"no cached samples for subset {sorted(subset)}")
    x = np.asarray(x, dtype=np.float64)
    b, G = cache.b[idx], cache.g_proj[idx]
    z = b - G @ x
    value = float(np.mean(np.logaddexp(0.0, z)) + 0.5 * ridge_lambda * (x @ x))
    grad = -(G.T @ (1.0 / (1.0 + np.exp(-z)))) / len(b) + ridge_lambda * x
    return value, grad
