"""Small dense classifiers with per-sample margins, losses, and exact gradients.

Labeled data is the pair the network reads: features X (N, D) float64 and
int64 labels, (N,) class indices, or (N, L) for a head of L > 1 positions.
Everything runs in float64 and is deterministic given (config, seed). A margin
is the labeled class's log-odds h = log(p_y / (1 - p_y)): a binary head's
logit z signed by the label, h = (2l - 1) z; for a multi-class head,
z_y - logsumexp over the other classes; a multi-position head averages its
positions' margins. The loss of a sample with margin h is log(1 + exp(-h)),
which for (multi-)class heads is the cross-entropy.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# A ParamVector is a flat 1-D float64 array of length Network.param_count.
ParamVector = np.ndarray

ACTIVATIONS = ("tanh", "relu")


class DimensionMismatchError(ValueError):
    """Raised when a parameter or feature vector has the wrong length."""


@dataclass(frozen=True)
class ModelConfig:
    """Architecture and initialization of a small MLP classifier.

    num_classes == 2 with a single output position means a scalar logit head;
    otherwise the head has num_positions blocks of num_classes logits each.
    """

    input_dim: int
    hidden_dims: tuple[int, ...] = ()
    activation: str = "tanh"
    num_classes: int = 2
    num_positions: int = 1
    init_scale: float = 0.5
    seed: int = 0

    def __post_init__(self):
        if self.input_dim < 1:
            raise ValueError("input_dim must be positive")
        if any(h < 1 for h in self.hidden_dims):
            raise ValueError("hidden_dims must be positive")
        if self.activation not in ACTIVATIONS:
            raise ValueError(f"activation must be one of {ACTIVATIONS}")
        if self.num_classes < 2:
            raise ValueError("num_classes must be >= 2")
        if self.num_positions < 1:
            raise ValueError("num_positions must be >= 1")
        if self.init_scale < 0:
            raise ValueError("init_scale must be non-negative")
        object.__setattr__(self, "hidden_dims", tuple(int(h) for h in self.hidden_dims))

    @property
    def is_binary(self) -> bool:
        return self.num_classes == 2 and self.num_positions == 1

    @property
    def output_units(self) -> int:
        if self.is_binary:
            return 1
        return self.num_positions * self.num_classes


def _exp_rows(z: np.ndarray, m: np.ndarray, s: np.ndarray) -> None:
    """exp(z - max) over the last axis, in place in z: a softmax is z / s
    and a logsumexp m + log(s) after it. m and s (z's shape less its last
    axis) take each row's max and the sum of its exponentials."""
    np.maximum.reduce(z, axis=-1, out=m)
    np.subtract(z, m[..., None], out=z)
    np.exp(z, out=z)
    np.add.reduce(z, axis=-1, out=s)


def _log1pexp_sigmoid(z):
    """(log(1 + exp(z)), sigmoid(z)) elementwise from one exponential pass,
    e = exp(min(z, -z)) = exp(-|z|): the loss terms as max(z, 0) + log1p(e),
    within an ulp of np.logaddexp(0, z) at a fraction of its cost, and the
    sigmoid as where(z >= 0, 1, e) / (1 + e), the two-branch form
    1 / (1 + exp(-z)) where z >= 0, else exp(z) / (1 + exp(z)), bit for bit
    (the where taken as max(e, z >= 0), the same since e lies in [0, 1] or
    is z's NaN, whose sign bit min(z, -z) keeps: np.minimum returns the
    first of two NaNs). z is overwritten by the loss terms."""
    e = np.negative(z)
    np.minimum(z, e, out=e)
    np.exp(e, out=e)
    s = np.maximum(e, z >= 0)
    np.maximum(z, 0.0, out=z)
    z += np.log1p(e)
    e += 1.0
    np.divide(s, e, out=s)
    return z, s


class Network:
    """A feed-forward classifier over a flat parameter vector.

    Parameters are laid out layer by layer: the (out, in) weight matrix in row
    major order, then the bias.
    """

    def __init__(self, config: ModelConfig):
        self.config = config
        dims = (config.input_dim, *config.hidden_dims, config.output_units)
        self._shapes = [(dout, din) for din, dout in zip(dims[:-1], dims[1:])]
        self._offsets = []
        off = 0
        for dout, din in self._shapes:
            self._offsets.append((off, off + din * dout, off + din * dout + dout))
            off += (din + 1) * dout
        self.param_count = off

    # ---- parameters ----

    def init_params(self) -> ParamVector:
        """Seed-controlled init: weights ~ init_scale * N(0,1)/sqrt(fan_in), biases 0."""
        cfg = self.config
        rng = np.random.default_rng(cfg.seed)
        params = np.zeros(self.param_count)
        for (dout, din), (w0, w1, b1) in zip(self._shapes, self._offsets):
            params[w0:w1] = (
                cfg.init_scale * rng.standard_normal(dout * din) / np.sqrt(din)
            )
        return params

    def unpack(self, params: ParamVector) -> list[tuple[np.ndarray, np.ndarray]]:
        if params.shape != (self.param_count,):
            raise DimensionMismatchError(
                f"expected parameter vector of length {self.param_count}, "
                f"got shape {params.shape}"
            )
        layers = []
        for (dout, din), (w0, w1, b1) in zip(self._shapes, self._offsets):
            layers.append((params[w0:w1].reshape(dout, din), params[w1:b1]))
        return layers

    # ---- forward ----

    def _check_features(self, X: np.ndarray) -> np.ndarray:
        X = np.atleast_2d(np.asarray(X, dtype=np.float64))
        if X.shape[1] != self.config.input_dim:
            raise DimensionMismatchError(
                f"expected features of dim {self.config.input_dim}, got {X.shape[1]}"
            )
        return X

    def _forward(self, params, X, work: Workspace | None = None):
        """Return (per-layer (W, b) views of params, activations per layer
        including input, output logits). The backward pass reuses the views.
        Each layer's bias and activation are applied in place in the one
        array its matmul makes, or writes into the workspace when given one,
        which also keeps the views of the last params array it saw."""
        if work is None:
            layers = self.unpack(params)
        else:
            if work.params is not params:
                work.params, work.layers = params, self.unpack(params)
            layers = work.layers
        acts = [self._check_features(X)]
        a = acts[0]
        for i, (W, b) in enumerate(layers):
            z = a @ W.T if work is None else np.matmul(a, W.T, out=work.outs[i][: len(a)])
            z += b
            if i < len(layers) - 1:
                if self.config.activation == "tanh":
                    np.tanh(z, out=z)
                else:
                    np.maximum(z, 0.0, out=z)
                a = z
                acts.append(a)
            else:
                return layers, acts, z

    def logits(self, params: ParamVector, X: np.ndarray) -> np.ndarray:
        return self._forward(params, X)[2]

    def penultimate(self, params: ParamVector, X: np.ndarray) -> np.ndarray:
        """Activations feeding the output layer (the input itself if no hidden layer)."""
        return self._forward(params, X)[1][-1]

    # ---- margins and losses ----

    def _heads(self, Z: np.ndarray, labels) -> tuple[np.ndarray, np.ndarray]:
        """Non-binary logits as (N, L, C) blocks and labels as (N, L). A
        multi-class head is the one-position case and takes (N,) labels.
        Raises ValueError for a label outside 0..C - 1."""
        cfg = self.config
        n = len(Z)
        labels = np.asarray(labels, dtype=np.int64)
        want = (n,) if cfg.num_positions == 1 else (n, cfg.num_positions)
        if labels.shape != want:
            raise ValueError(f"expected labels of shape {want}, got {labels.shape}")
        # as unsigned, a negative label is past every class too: one reduction
        if n and np.maximum.reduce(labels.view(np.uint64), axis=None) >= cfg.num_classes:
            raise ValueError(f"labels must be class indices in 0..{cfg.num_classes - 1}")
        return Z.reshape(n, cfg.num_positions, cfg.num_classes), labels.reshape(n, cfg.num_positions)

    def _head_arrays(self, y: np.ndarray, work: Workspace | None) -> tuple[np.ndarray, ...]:
        """For (N, L) labels y of a multi-class head: three float (N, L)
        arrays for the head to write (row maxima, row sums, labeled logits),
        and the flat index, into the (N, L * C) logits, of each sample's
        labeled class at each position; the workspace's rows when given one."""
        n, positions = y.shape
        if work is None:
            classes = self.config.num_classes
            at = np.arange(0, n * positions * classes, classes).reshape(n, positions)
            at += y
            return np.empty((n, positions)), np.empty((n, positions)), np.empty((n, positions)), at
        at = np.add(work.label_base[:n], y, out=work.label_at[:n])
        return work.row_max[:n], work.row_sum[:n], work.label_logit[:n], at

    def margins(self, params: ParamVector, X: np.ndarray, labels: np.ndarray) -> np.ndarray:
        """Batch margins of the labeled class (module docstring). labels is
        (N,) or (N, L) for multi-position heads."""
        Z = self.logits(params, X)
        if self.config.is_binary:
            return _label_signs(labels) * Z[:, 0]
        Zp, y = self._heads(Z, labels)
        # log(p_y / (1 - p_y)) = z_y - logsumexp over the other classes
        at_label = y[..., None]
        zy = np.take_along_axis(Zp, at_label, axis=-1)[..., 0]
        masked = Zp.copy()
        np.put_along_axis(masked, at_label, -np.inf, axis=-1)
        m, s = np.empty(y.shape), np.empty(y.shape)
        _exp_rows(masked, m, s)
        return (zy - (m + np.log(s))).mean(axis=1)

    def losses(
        self, params: ParamVector, X: np.ndarray, labels: np.ndarray, work: Workspace | None = None
    ) -> np.ndarray:
        """Batch log-losses; equals cross-entropy for (multi-)class heads.
        Given a workspace (of at least len(X) rows), the forward pass and the
        head's arrays live in it, and the next call with it overwrites them."""
        Z = self._forward(params, X, work)[2]
        if self.config.is_binary:
            return np.logaddexp(0.0, -_label_signs(labels) * Z[:, 0])
        Zp, y = self._heads(Z, labels)
        # every position's logsumexp(z) - z_y at once, in place in Z
        m, s, zy, at = self._head_arrays(y, work)
        np.take(Z, at, out=zy)
        _exp_rows(Zp, m, s)
        np.log(s, out=s)
        s += m
        s -= zy
        return np.add.reduce(s, axis=1) / y.shape[1]

    # ---- gradients ----

    def _layer_deltas(self, layers, acts, delta, work: Workspace | None = None):
        """Yield (layer index, output deltas (N, out)) from the last layer to
        the first, backpropagating the output-layer deltas through the
        (W, b) views _forward built, into the workspace when given one. Once
        the caller has used acts[i] for layer i, its storage holds the
        activation's derivative, so hidden activations are overwritten; the
        input acts[0] is never written."""
        for i in range(len(layers) - 1, -1, -1):
            yield i, delta
            if i > 0:
                W = layers[i][0]
                out = None if work is None else work.backs[i - 1][: len(delta)]
                if len(W) == 1:
                    # through one unit, delta @ W is one product per element,
                    # which gemm (slow at K = 1) adds to a zeroed sum; the
                    # broadcast product plus 0.0, which turns a -0 product
                    # into that sum's +0, has its bits
                    delta = np.multiply(delta, W, out=out)
                    delta += 0.0
                else:
                    delta = np.matmul(delta, W, out=out)
                a = acts[i]
                if self.config.activation == "tanh":
                    np.multiply(a, a, out=a)
                    np.subtract(1.0, a, out=a)
                else:
                    np.greater(a, 0.0, out=a)
                delta *= a

    def _backward(self, layers, acts, delta, work: Workspace | None = None):
        """Backpropagate output-layer deltas (N, out) to a flat mean gradient,
        written into the workspace when given one."""
        grad = np.empty(self.param_count) if work is None else work.grad
        n = delta.shape[0]
        for i, d in self._layer_deltas(layers, acts, delta, work):
            w0, w1, b1 = self._offsets[i]
            np.matmul(d.T, acts[i], out=grad[w0:w1].reshape(self._shapes[i]))
            np.add.reduce(d, axis=0, out=grad[w1:b1])
        if n & (n - 1):
            grad /= n
        else:
            # x / 2^j and x * 2^-j round the same real number, so at a
            # power-of-two batch the product has the quotient's bits
            grad *= 1.0 / n
        return grad

    def _margin_deltas(self, Z: np.ndarray, labels) -> np.ndarray:
        """d margin / d logits, one (out,) row per sample: the output-layer
        deltas margin_gradient_product backpropagates."""
        cfg = self.config
        n = len(Z)
        if cfg.is_binary:
            return _label_signs(labels)[:, None]
        Zp, y = self._heads(Z, labels)
        # d margin / d z_k: 1 at the labeled class, else minus the softmax
        # restricted to the other classes. Bounded, so stable at any confidence.
        at_label = y[..., None]
        delta = Zp.copy()
        np.put_along_axis(delta, at_label, -np.inf, axis=-1)
        m, s = np.empty(y.shape), np.empty(y.shape)
        _exp_rows(delta, m, s)
        np.divide(delta, s[..., None], out=delta)
        np.negative(delta, out=delta)
        np.put_along_axis(delta, at_label, 1.0, axis=-1)
        return delta.reshape(n, -1) / cfg.num_positions

    def margin_gradient_product(self, M: np.ndarray):
        """Return f(params, X, labels) = G @ M for a (p, k) matrix M, with G
        the (N, p) per-sample margin gradients, computed without building G.

        Layer i's per-sample weight gradient is the outer product of its
        output deltas d (N, out) and inputs a (N, in), so its part of the
        product is sum_{o,j} d[n,o] a[n,j] M_i[o,j,:], with M_i the layer's
        rows of M as (out, in, k). The larger of in and out is contracted
        with M_i first, leaving an intermediate of N * min(in, out) * k
        floats: where in > out, a @ M_i[o] for each output unit o, stacked
        as (out, N, k); otherwise one gemm of d with M_i as (out, in * k).
        One batched matvec against the other factor finishes it, and
        d @ M_bias adds the bias rows. Every factor of a C-ordered M is a
        view of it, so no part of M is copied.
        """
        M = np.asarray(M, dtype=np.float64)
        if M.ndim != 2 or M.shape[0] != self.param_count:
            raise DimensionMismatchError(f"expected a ({self.param_count}, k) matrix, got shape {M.shape}")
        k = M.shape[1]
        factors = []
        for (dout, din), (w0, w1, b1) in zip(self._shapes, self._offsets):
            Mi = M[w0:w1].reshape(dout, din, k)
            factors.append((din > dout, Mi if din > dout else Mi.reshape(dout, din * k), M[w1:b1]))

        def product(params: ParamVector, X: np.ndarray, labels: np.ndarray) -> np.ndarray:
            # the logits are let go once they give the deltas, before the
            # gemms make this call's largest arrays
            layers, acts, delta = self._forward(params, X)
            delta = self._margin_deltas(delta, labels)
            n = len(delta)
            out = np.zeros((n, k))
            for i, d in self._layer_deltas(layers, acts, delta):
                in_first, F, M_bias = factors[i]
                if in_first:  # one (N, in) @ (in, k) gemm per output unit, stacked as (out, N, k)
                    out += np.matmul(d[:, None, :], np.matmul(acts[i], F).transpose(1, 0, 2))[:, 0]
                else:
                    out += np.matmul(acts[i][:, None, :], (d @ F).reshape(n, acts[i].shape[1], k))[:, 0]
                out += d @ M_bias
            return out

        return product

    def loss_gradient(
        self, params: ParamVector, X: np.ndarray, labels: np.ndarray, work: Workspace | None = None
    ) -> ParamVector:
        """Mean log-loss gradient over a batch. Given a workspace (of at
        least len(X) rows), the layers' outputs and deltas and the returned
        gradient live in it, and the next call with it overwrites them."""
        layers, acts, Z = self._forward(params, X, work)
        if self.config.is_binary:
            y = _label_signs(labels)
            delta = (-y * _log1pexp_sigmoid(-y * Z[:, 0])[1])[:, None]
        else:
            # d loss / d logits = (softmax - onehot(y)) / L, in place in Z
            Zp, y = self._heads(Z, labels)
            m, s, _, at = self._head_arrays(y, work)
            _exp_rows(Zp, m, s)
            np.divide(Zp, s[..., None], out=Zp)
            Z.reshape(-1)[at] -= 1.0
            Z /= y.shape[1]
            delta = Z
        return self._backward(layers, acts, delta, work)


class Workspace:
    """The arrays Network.loss_gradient and Network.losses write on batches
    of at most rows samples, made once so that a training loop allocates
    none of them per step: each layer's matmul output (rows, out), each
    delta backpropagated into a hidden layer (rows, out of that layer), the
    flat gradient, and a multi-class head's (rows, L) row maxima, row sums,
    labeled logits and label indices. It also keeps the (W, b) views of the
    last parameter vector it was used with, so a loop that updates one
    vector in place makes them once. One caller uses a workspace at a time.
    A forward-only caller (a validation pass) never writes the deltas or the
    gradient, so their pages are never faulted in."""

    def __init__(self, net: Network, rows: int):
        widths = [dout for dout, _ in net._shapes]
        self.outs = [np.empty((rows, w)) for w in widths]
        self.backs = [np.empty((rows, w)) for w in widths[:-1]]
        self.grad = np.empty(net.param_count)
        self.params, self.layers = None, []
        positions, classes = net.config.num_positions, net.config.num_classes
        self.row_max, self.row_sum, self.label_logit = (np.empty((rows, positions)) for _ in range(3))
        self.label_at = np.empty((rows, positions), dtype=np.int64)
        # flat index of each (sample, position)'s first logit
        self.label_base = np.arange(0, rows * positions * classes, classes).reshape(rows, positions)


def _label_signs(labels) -> np.ndarray:
    """A binary head's labels as the signs 2l - 1 of their margins' logits.
    Raises ValueError for a label outside 0..1, as _heads does for C classes."""
    labels = np.asarray(labels, dtype=np.int64)
    if labels.size and np.maximum.reduce(labels.view(np.uint64), axis=None) > 1:  # as unsigned, -1 is past 1 too
        raise ValueError("labels must be class indices in 0..1")
    return 2.0 * labels - 1.0

