"""Gaussian random projection between parameter space (p) and sketch space (d).

The p x d matrix P has i.i.d. N(0, 1/d) entries. In gaussian mode its row
blocks come from a counter-based Philox stream keyed by (seed, block index), so
projections are reproducible. When P takes at most _STORE_BYTES (p * d * 8
bytes), it is built once from that stream on first use and kept, so repeated
lifts reuse it; the default Gaussian model's P (p=3,841, d=100) is 3.1 MB. A
larger P is never stored: each call regenerates its row blocks and memory
stays O(block_rows * d), so the noisy-addition model's 31 MB P (p=38,706) adds
nothing to its peak memory. Injected mode takes an explicit matrix and is
meant for tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

GENERATOR_VERSION = 1

_BLOCK_ROWS = 8192
_STORE_BYTES = 16 * 2**20  # keep P in memory when p * d * 8 is at most this


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
        """Rows [index*B, min((index+1)*B, p)) of P, regenerated from the seed."""
        lo = index * _BLOCK_ROWS
        rows = min(_BLOCK_ROWS, self.p - lo)
        ss = np.random.SeedSequence(entropy=self.seed, spawn_key=(GENERATOR_VERSION, index))
        gen = np.random.Generator(np.random.Philox(ss))
        return gen.standard_normal((rows, self.d)) / np.sqrt(self.d)

    def _n_blocks(self) -> int:
        return -(-self.p // _BLOCK_ROWS)

    @cached_property
    def _dense(self) -> np.ndarray | None:
        """P as one array when it is kept in memory, else None (streamed).

        Built on first use and cached on the instance, outside the dataclass
        fields, so equality and the constructor ignore it."""
        if self.mode == "injected":
            return self.matrix
        if self.p * self.d * 8 > _STORE_BYTES:
            return None
        P = np.vstack([self._block(i) for i in range(self._n_blocks())])
        P.flags.writeable = False
        return P

    def project(self, g: np.ndarray) -> np.ndarray:
        """P^T g: sketch a p-vector down to d dimensions."""
        return self.project_many(np.asarray(g, dtype=np.float64)[None, :])[0]

    def project_many(self, G: np.ndarray) -> np.ndarray:
        """P^T applied to the rows of G (m, p) -> (m, d), one pass over P."""
        G = np.asarray(G, dtype=np.float64)
        if G.ndim != 2 or G.shape[1] != self.p:
            raise ValueError(f"expected (m, {self.p}) gradients, got {G.shape}")
        if self._dense is not None:
            return G @ self._dense
        out = np.zeros((G.shape[0], self.d))
        for i in range(self._n_blocks()):
            lo = i * _BLOCK_ROWS
            block = self._block(i)
            out += G[:, lo : lo + block.shape[0]] @ block
        return out

    def lift(self, x_d: np.ndarray) -> np.ndarray:
        """P x_d: map a d-vector back to parameter space."""
        x_d = np.asarray(x_d, dtype=np.float64)
        if x_d.shape != (self.d,):
            raise ValueError(f"expected a length-{self.d} vector, got {x_d.shape}")
        if self._dense is not None:
            return self._dense @ x_d
        out = np.empty(self.p)
        for i in range(self._n_blocks()):
            lo = i * _BLOCK_ROWS
            block = self._block(i)
            out[lo : lo + block.shape[0]] = block @ x_d
        return out

    def materialize(self) -> np.ndarray:
        """Dense copy of P, for oracle checks. A P above _STORE_BYTES is built
        block by block for this call and not kept."""
        if self._dense is not None:
            return self._dense.copy()
        return np.vstack([self._block(i) for i in range(self._n_blocks())])


def identity_projector(p: int) -> Projector:
    """Injected d = p identity projection, used by exactness tests."""
    return Projector(p=p, d=p, mode="injected", matrix=np.eye(p))
