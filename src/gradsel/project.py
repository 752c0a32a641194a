"""Gaussian random projection between parameter space (p) and sketch space (d).

The p x d matrix P has i.i.d. N(0, 1/d) entries. In gaussian mode its row
blocks come from a counter-based Philox stream keyed by (seed, block index), so
projections are reproducible. P is built once from that stream, on first use,
and kept for every later projection and lift; it takes p * d * 8 bytes (3.1 MB
for the default Gaussian model, p=3,841, d=100; 31 MB for the noisy-addition
model, p=38,706). Injected mode takes an explicit matrix and is meant for
tests.

The cache build reads P in place (`dense`) and hands it to
Network.margin_gradient_product, which projects margin gradients layer by
layer without building them; `project_many` is the reference it is checked
against.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

GENERATOR_VERSION = 1

_BLOCK_ROWS = 8192


@dataclass(frozen=True)
class Projector:
    p: int
    d: int
    seed: int = 0
    mode: str = "gaussian"
    matrix: np.ndarray | None = None

    def __post_init__(self):
        if self.p < 1 or self.d < 1:
            raise ValueError("p and d must be positive")
        if self.mode not in ("gaussian", "injected"):
            raise ValueError("mode must be 'gaussian' or 'injected'")
        if self.mode == "injected":
            if self.matrix is None:
                raise ValueError("injected mode requires a matrix")
            m = np.ascontiguousarray(self.matrix, dtype=np.float64)
            if m.shape != (self.p, self.d):
                raise ValueError(f"injected matrix must be ({self.p}, {self.d})")
            object.__setattr__(self, "matrix", m)
        elif self.matrix is not None:
            raise ValueError("gaussian mode does not take a matrix")

    def _block(self, index: int) -> np.ndarray:
        """Rows [index*B, min((index+1)*B, p)) of P, generated from the seed."""
        lo = index * _BLOCK_ROWS
        rows = min(_BLOCK_ROWS, self.p - lo)
        ss = np.random.SeedSequence(entropy=self.seed, spawn_key=(GENERATOR_VERSION, index))
        gen = np.random.Generator(np.random.Philox(ss))
        return gen.standard_normal((rows, self.d)) / np.sqrt(self.d)

    def _n_blocks(self) -> int:
        return -(-self.p // _BLOCK_ROWS)

    @cached_property
    def dense(self) -> np.ndarray:
        """P as one read-only array, built block by block on first use.

        Cached on the instance, outside the dataclass fields, so equality and
        the constructor ignore it."""
        if self.mode == "injected":
            return self.matrix
        P = np.empty((self.p, self.d))
        for i in range(self._n_blocks()):
            lo = i * _BLOCK_ROWS
            P[lo : lo + _BLOCK_ROWS] = self._block(i)
        P.flags.writeable = False
        return P

    def project_many(self, G: np.ndarray) -> np.ndarray:
        """P^T applied to the rows of G (m, p) -> (m, d). A reference for
        the fused product; no stage builds the full gradients G."""
        G = np.asarray(G, dtype=np.float64)
        if G.ndim != 2 or G.shape[1] != self.p:
            raise ValueError(f"expected (m, {self.p}) gradients, got {G.shape}")
        return G @ self.dense

    def lift(self, x_d: np.ndarray) -> np.ndarray:
        """P x_d: map a d-vector back to parameter space."""
        x_d = np.asarray(x_d, dtype=np.float64)
        if x_d.shape != (self.d,):
            raise ValueError(f"expected a length-{self.d} vector, got {x_d.shape}")
        return self.dense @ x_d

    def materialize(self) -> np.ndarray:
        """Dense copy of P, for oracle checks."""
        return self.dense.copy()


def identity_projector(p: int) -> Projector:
    """Injected d = p identity projection, used by exactness tests."""
    return Projector(p=p, d=p, mode="injected", matrix=np.eye(p))
