"""Per-sample gradient cache at the meta-initialization, and linearization
quality metrics.

Each cached entry pairs b = -y * h(s, y) with the projected margin gradient
P^T grad h(s, y), both evaluated at theta*. Multi-class and multi-position
samples are reduced to the binary form through the logistic-margin transform,
so their effective sign is +1. The relative residual sum of squares (RRSS)
quantifies how far a true margin at X is from its first-order prediction.
The cache carries the projection P its rows went through, so the estimator
lifts a solution by the same P. It is saved as an artifact.py container of
fixed-width records whose header keeps P's sizes and seed, not P itself;
load_cache rebuilds P from them. build_cache passes its entries through the
same records, so every cache, built or loaded, holds float32-rounded
projected gradients (in float64 arrays) and float64 b values.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass

import numpy as np

from . import artifact
from .model import Network, ParamVector
from .project import GENERATOR_VERSION, gaussian_projection
from .taskgen import TARGET_TASK_ID, Corpus
from .trainer import param_digest

RRSS_DENOM_GUARD = 1e-8

_CHUNK = 256


@dataclass
class GradientCache:
    """Arrays of (b, projected gradient) for every train sample of every
    task, plus the target validation samples kept separately, and the
    projection P the gradients went through.

    Contents are immutable once built and safe for concurrent reads.
    """

    sample_ref: np.ndarray  # (n,) int64, index into corpus train order
    task_id: np.ndarray  # (n,) int64
    y: np.ndarray  # (n,) float64, effective binary sign
    b: np.ndarray  # (n,) float64
    g_proj: np.ndarray  # (n, d) float64
    val_y: np.ndarray
    val_b: np.ndarray
    val_g_proj: np.ndarray
    theta_star_digest: str
    P: np.ndarray  # (p, d), read-only
    projector_seed: int | None  # gaussian_projection's seed for P; None for any other P

    @property
    def d(self) -> int:
        return self.P.shape[1]

    @property
    def n_entries(self) -> int:
        return len(self.task_id)

    @property
    def n_val_entries(self) -> int:
        return len(self.val_b)

    def rows_for(self, subset, include_target: bool = True) -> np.ndarray:
        """Indices of entries with task_id in subset (plus the target's train
        entries unless disabled)."""
        wanted = set(int(t) for t in subset)
        if include_target:
            wanted.add(TARGET_TASK_ID)
        return np.flatnonzero(np.isin(self.task_id, sorted(wanted)))

    def digest(self) -> str:
        h = hashlib.sha256()
        for arr in (self.sample_ref, self.task_id, self.y, self.b, self.g_proj,
                    self.val_y, self.val_b, self.val_g_proj):
            h.update(np.ascontiguousarray(arr).tobytes())
        h.update(self.theta_star_digest.encode())
        return h.hexdigest()


def _entries(net: Network, theta: ParamVector, X: np.ndarray, labels: np.ndarray, product, d: int):
    """(y, b, projected margin gradients) for a batch, at theta.

    product is net.margin_gradient_product(P) for the (p, d) projection P,
    whose per-layer factors of P are built once per cache. It projects
    _CHUNK samples at a time from each layer's (activation, delta) factors,
    so no (N, p) gradient block is ever built; its largest intermediate is
    _CHUNK * min(in, out) * d floats. The margins are taken per chunk too,
    so no forward pass spans all samples."""
    y = 2.0 * labels - 1.0 if net.config.is_binary else np.ones(len(X))
    h = np.empty(len(X))
    g = np.empty((len(X), d))
    for lo in range(0, len(X), _CHUNK):
        chunk = slice(lo, lo + _CHUNK)
        h[chunk] = net.margins(theta, X[chunk], labels[chunk])
        g[chunk] = product(theta, X[chunk], labels[chunk])
    return y, -y * h, g


def build_cache(
    net: Network, theta_star: ParamVector, corpus: Corpus, P: np.ndarray, projector_seed: int | None
) -> GradientCache:
    """Stage-1 cache: one entry per train sample of tasks 1..n and the target,
    plus target-val entries for the linearized evaluator, projected by the
    (p, d) matrix P; projector_seed is the seed gaussian_projection built P
    from, or None for any other P. The entries pass through the records
    cache.bin stores, so the result equals what load_cache reads back from
    save_cache's file, and refuses a non-finite entry by the same check."""
    if P.ndim != 2 or P.shape[0] != net.param_count:
        raise ValueError(f"P has shape {P.shape} but the model has {net.param_count} parameters")
    X, labels = corpus.mixture("train")
    tasks = [*corpus.tasks, corpus.target]  # the order mixture stacks them in
    tids = np.repeat(np.array([t.task_id for t in tasks], dtype=np.int64), [len(t.train[0]) for t in tasks])

    product = net.margin_gradient_product(P)
    records = _pack(
        np.arange(len(X)), tids,
        _entries(net, theta_star, X, labels, product, P.shape[1]),
        _entries(net, theta_star, *corpus.target.val, product, P.shape[1]),
    )
    return _from_records(records, len(X), param_digest(theta_star), P, projector_seed)


# ---------------------------------------------------------------------------
# RRSS
# ---------------------------------------------------------------------------


def _rrss_batch(net, x, X, labels, h_star, lin) -> np.ndarray:
    """Per-sample (h_X - h_* - lin)^2 / h_X^2, with h_* the margins at theta*
    and lin the first-order term g^T (X - theta*), one per sample. NaN where
    |h_X| is below the denominator guard; aggregates skip such samples."""
    h_x = net.margins(x, X, labels)
    small = np.abs(h_x) < RRSS_DENOM_GUARD
    with np.errstate(divide="ignore", invalid="ignore"):
        vals = (h_x - h_star - lin) ** 2 / h_x**2
    vals[small] = np.nan
    return vals


@dataclass(frozen=True)
class RrssRow:
    distance: float
    mean_rrss: float
    std_rrss: float
    n_used: int
    n_flagged: int


def rrss_sweep(
    net: Network,
    theta_star: ParamVector,
    X: np.ndarray,
    labels: np.ndarray,
    distances: list[float],
    n_directions: int,
    seed: int,
    endpoint_params: list[ParamVector] | None = None,
) -> list[RrssRow]:
    """Mean/std RRSS at each relative distance, over displacement directions.

    Directions come first from normalized (endpoint - theta*) vectors when
    fine-tuned endpoints are supplied, then random unit directions fill up to
    n_directions. Every direction is rescaled so that ||X - theta*|| equals
    distance * ||theta*|| exactly.

    theta*'s margins and the first-order terms g^T (X - theta*) are computed
    once per sweep, the latter by Network.margin_gradient_product with the
    (p, distances x directions) matrix of displacements as M, so no
    per-sample gradient is built; each point X costs one forward pass.
    """
    if any(dist < 0 for dist in distances):
        raise ValueError("distances must be non-negative")
    if n_directions < 1:
        raise ValueError("need at least one direction")
    rng = np.random.default_rng(seed)
    norm_star = np.linalg.norm(theta_star)

    directions = []
    for endpoint in endpoint_params or []:
        diff = endpoint - theta_star
        nrm = np.linalg.norm(diff)
        if nrm > 0:
            directions.append(diff / nrm)
    while len(directions) < n_directions:
        u = rng.standard_normal(theta_star.shape[0])
        directions.append(u / np.linalg.norm(u))
    directions = directions[:n_directions]

    h_star = net.margins(theta_star, X, labels)
    points = [theta_star + dist * norm_star * u for dist in distances for u in directions]
    # g^T (X - theta*) at every point, from one product. The displacement is
    # X - theta* as rounded, not dist * ||theta*|| * u: the two differ by
    # about eps * ||theta*||, which moves RRSS at small distances by ~1e-11.
    steps = np.empty((len(theta_star), len(points)))
    for k, x in enumerate(points):
        steps[:, k] = x - theta_star
    lin = net.margin_gradient_product(steps)(theta_star, X, labels)
    rows = []
    for i, dist in enumerate(distances):
        per_direction = []
        flagged = 0
        used = 0
        for k in range(i * len(directions), (i + 1) * len(directions)):
            vals = _rrss_batch(net, points[k], X, labels, h_star, lin[:, k])
            ok = vals[np.isfinite(vals)]
            flagged += int(np.size(vals) - ok.size)
            used += ok.size
            if ok.size:
                per_direction.append(ok.mean())
        arr = np.array(per_direction)
        rows.append(
            RrssRow(
                distance=float(dist),
                mean_rrss=float(arr.mean()) if arr.size else math.nan,
                std_rrss=float(arr.std()) if arr.size else math.nan,
                n_used=used,
                n_flagged=flagged,
            )
        )
    return rows


# ---------------------------------------------------------------------------
# Cache artifact: sizes, seeds and the theta* digest in the container header,
# then one fixed-width record per entry
# ---------------------------------------------------------------------------


def _record_dtype(d: int) -> np.dtype:
    """One packed little-endian record per entry: sample ref, task id, sign,
    b, then the projected gradient as float32. Target-val records carry ref 0
    and the target's task id."""
    return np.dtype([("ref", "<u4"), ("tid", "<u2"), ("y", "<i2"), ("b", "<f8"), ("g", "<f4", (d,))])


def _pack(sample_ref, task_id, train, val) -> np.ndarray:
    """The train entries, then the target-val entries, as cache.bin's
    records; train and val are (y, b, g) triples."""
    n = len(task_id)
    records = np.zeros(n + len(val[1]), dtype=_record_dtype(train[2].shape[1]))
    records["ref"][:n] = sample_ref
    records["tid"][:n] = task_id
    records["tid"][n:] = TARGET_TASK_ID
    with np.errstate(over="ignore"):  # a gradient beyond float32's range becomes inf
        for field, t, v in zip(("y", "b", "g"), train, val):
            records[field][:n], records[field][n:] = t, v
    return records


def _from_records(records, n_train: int, theta_star_digest: str, P: np.ndarray, projector_seed) -> GradientCache:
    """The cache whose first n_train records are train entries and the rest
    target-val entries. Raises ValueError naming the first entry whose b or
    projected gradient is not finite as stored (the sign y is an integer and
    always finite), so the solver never has to check its inputs."""
    train, val = records[:n_train], records[n_train:]
    for split, part in (("train", train), ("val", val)):
        finite = np.isfinite(part["b"]) & np.isfinite(part["g"]).all(axis=1)
        if not finite.all():
            raise ValueError(f"non-finite b or projected gradient in {split} entry {np.argmin(finite)}")
    return GradientCache(
        sample_ref=train["ref"].astype(np.int64),
        task_id=train["tid"].astype(np.int64),
        y=train["y"].astype(np.float64),
        b=train["b"].astype(np.float64),
        g_proj=train["g"].astype(np.float64),
        val_y=val["y"].astype(np.float64),
        val_b=val["b"].astype(np.float64),
        val_g_proj=val["g"].astype(np.float64),
        theta_star_digest=theta_star_digest,
        P=P,
        projector_seed=projector_seed,
    )


def save_cache(path, cache: GradientCache) -> None:
    if cache.projector_seed is None:
        raise ValueError("only a cache projected by gaussian_projection is serializable")
    records = _pack(cache.sample_ref, cache.task_id, (cache.y, cache.b, cache.g_proj),
                    (cache.val_y, cache.val_b, cache.val_g_proj))
    header = {
        "p": cache.P.shape[0],
        "d": cache.d,
        "n_train": cache.n_entries,
        "projector_seed": cache.projector_seed,
        "generator_version": GENERATOR_VERSION,
        "theta_star_digest": cache.theta_star_digest,
    }
    artifact.write(path, "cache", 1, header, records.tobytes())


def load_cache(path) -> GradientCache:
    """Read a cache artifact and rebuild its P from the header's sizes and
    seed. Raises ValueError naming the file when it is not a cache
    container, its projector generator differs from this program's, or an
    entry is not finite (see _from_records)."""
    header, body = artifact.read(path, "cache", 1, {
        "p": int, "d": int, "n_train": int, "projector_seed": int, "generator_version": int, "theta_star_digest": str,
    })
    if header["generator_version"] != GENERATOR_VERSION:
        raise ValueError(f"{path}: projector generator version mismatch")
    records = np.frombuffer(body, dtype=_record_dtype(header["d"]))
    P = gaussian_projection(header["p"], header["d"], header["projector_seed"])
    try:
        return _from_records(records, header["n_train"], header["theta_star_digest"], P, header["projector_seed"])
    except ValueError as e:
        raise ValueError(f"{path}: {e}") from None
