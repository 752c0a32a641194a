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


def _logsumexp(z: np.ndarray, axis: int = -1) -> np.ndarray:
    m = np.max(z, axis=axis, keepdims=True)
    return np.squeeze(m, axis=axis) + np.log(
        np.sum(np.exp(z - m), axis=axis)
    )


def _softmax(z: np.ndarray) -> np.ndarray:
    m = np.max(z, axis=-1, keepdims=True)
    e = np.exp(z - m)
    return e / np.sum(e, axis=-1, keepdims=True)


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

    def _forward(self, params, X):
        """Return (per-layer (W, b) views of params, activations per layer
        including input, output logits). The backward pass reuses the views.
        Each layer's bias and activation are applied in place in the one
        array its matmul makes."""
        layers = self.unpack(params)
        acts = [self._check_features(X)]
        a = acts[0]
        for i, (W, b) in enumerate(layers):
            z = a @ W.T
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
        multi-class head is the one-position case and takes (N,) labels."""
        cfg = self.config
        n = len(Z)
        labels = np.asarray(labels, dtype=np.int64)
        want = (n,) if cfg.num_positions == 1 else (n, cfg.num_positions)
        if labels.shape != want:
            raise ValueError(f"expected labels of shape {want}, got {labels.shape}")
        return Z.reshape(n, cfg.num_positions, cfg.num_classes), labels.reshape(n, cfg.num_positions)

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
        return (zy - _logsumexp(masked, axis=-1)).mean(axis=1)

    def losses(self, params: ParamVector, X: np.ndarray, labels: np.ndarray) -> np.ndarray:
        """Batch log-losses; equals cross-entropy for (multi-)class heads."""
        Z = self.logits(params, X)
        cfg = self.config
        if cfg.is_binary:
            return np.logaddexp(0.0, -_label_signs(labels) * Z[:, 0])
        Zp, y = self._heads(Z, labels)
        n = np.arange(len(Z))
        ce = np.stack(
            [_logsumexp(Zp[:, i, :], axis=1) - Zp[n, i, y[:, i]] for i in range(cfg.num_positions)],
            axis=1,
        )
        return ce.mean(axis=1)

    # ---- gradients ----

    def _layer_deltas(self, layers, acts, delta):
        """Yield (layer index, output deltas (N, out)) from the last layer to
        the first, backpropagating the output-layer deltas through the
        (W, b) views _forward built. Once the caller has used acts[i] for
        layer i, its storage holds the activation's derivative, so hidden
        activations are overwritten; the input acts[0] is never written."""
        for i in range(len(layers) - 1, -1, -1):
            yield i, delta
            if i > 0:
                delta = delta @ layers[i][0]
                a = acts[i]
                if self.config.activation == "tanh":
                    np.multiply(a, a, out=a)
                    np.subtract(1.0, a, out=a)
                else:
                    np.greater(a, 0.0, out=a)
                delta *= a

    def _backward(self, layers, acts, delta):
        """Backpropagate output-layer deltas (N, out) to a flat mean gradient."""
        grad = np.empty(self.param_count)
        n = delta.shape[0]
        for i, d in self._layer_deltas(layers, acts, delta):
            w0, w1, b1 = self._offsets[i]
            np.matmul(d.T, acts[i], out=grad[w0:w1].reshape(self._shapes[i]))
            np.sum(d, axis=0, out=grad[w1:b1])
        grad /= n
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
        masked = Zp.copy()
        np.put_along_axis(masked, at_label, -np.inf, axis=-1)
        delta = -_softmax(masked)
        np.put_along_axis(delta, at_label, 1.0, axis=-1)
        return delta.reshape(n, -1) / cfg.num_positions

    def margin_gradient_product(self, M: np.ndarray):
        """Return f(params, X, labels) = G @ M for a (p, k) matrix M, with G
        the (N, p) per-sample margin gradients, computed without building G.

        Layer i's per-sample weight gradient is the outer product of its
        output deltas d (N, out) and inputs a (N, in), so its part of the
        product is sum_{o,j} d[n,o] a[n,j] M_i[o,j,:], with M_i the layer's
        rows of M as (out, in, k). One gemm contracts the larger of in and
        out with M_i, leaving an (N, min(in, out), k) intermediate; one
        batched matvec against the other factor finishes it, and d @ M_bias
        adds the bias rows. The per-layer factors are built here, once per M:
        where in > out, M_i is reordered to (in, out * k), the only copy made;
        otherwise it is a view of M.
        """
        M = np.asarray(M, dtype=np.float64)
        if M.ndim != 2 or M.shape[0] != self.param_count:
            raise DimensionMismatchError(f"expected a ({self.param_count}, k) matrix, got shape {M.shape}")
        k = M.shape[1]
        factors = []
        for (dout, din), (w0, w1, b1) in zip(self._shapes, self._offsets):
            Mi = M[w0:w1].reshape(dout, din, k)
            if din > dout:
                factors.append((True, np.ascontiguousarray(Mi.transpose(1, 0, 2)).reshape(din, dout * k), M[w1:b1]))
            else:
                factors.append((False, Mi.reshape(dout, din * k), M[w1:b1]))

        def product(params: ParamVector, X: np.ndarray, labels: np.ndarray) -> np.ndarray:
            layers, acts, Z = self._forward(params, X)
            delta = self._margin_deltas(Z, labels)
            n = len(Z)
            out = np.zeros((n, k))
            for i, d in self._layer_deltas(layers, acts, delta):
                in_first, F, M_bias = factors[i]
                first, second = (acts[i], d) if in_first else (d, acts[i])
                out += np.matmul(second[:, None, :], (first @ F).reshape(n, second.shape[1], k))[:, 0]
                out += d @ M_bias
            return out

        return product

    def loss_gradient(self, params: ParamVector, X: np.ndarray, labels: np.ndarray) -> ParamVector:
        """Mean log-loss gradient over a batch."""
        layers, acts, Z = self._forward(params, X)
        cfg = self.config
        if cfg.is_binary:
            y = _label_signs(labels)
            delta = (-y * _sigmoid(-y * Z[:, 0]))[:, None]
        else:
            Zp, y = self._heads(Z, labels)
            delta = _softmax(Zp)
            delta[np.arange(len(Z))[:, None], np.arange(cfg.num_positions), y] -= 1.0
            delta = delta.reshape(len(Z), -1) / cfg.num_positions
        return self._backward(layers, acts, delta)


def _label_signs(labels) -> np.ndarray:
    """A binary head's labels as the signs 2l - 1 of their margins' logits."""
    return 2.0 * np.asarray(labels, dtype=np.int64) - 1.0


def _sigmoid(z: np.ndarray) -> np.ndarray:
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out

