"""Per-sample gradient cache at the meta-initialization, and linearization
quality metrics.

The cache is one table with a row per sample: its task id, b = -h(s) and the
projected margin gradient P^T grad h(s), both taken at theta*, with h the
margin of the sample's labeled class (see model.py). The rows are every
task's train samples, then the target's validation samples under task id
TARGET_VAL_ID. The relative residual sum of squares (RRSS) quantifies how far
a true margin at X is from its first-order prediction.
The cache carries the projection P its rows went through, so the estimator
lifts a solution by the same P. It is saved as an artifact.py container of
fixed-width records whose header keeps P's sizes and seed, not P itself;
load_cache rebuilds P from them. build_cache writes its rows into the same
records, so every cache, built or loaded, holds float32-rounded projected
gradients (in float64 arrays) and float64 b values.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass

import numpy as np

from . import artifact
from .model import Network, ParamVector
from .project import GENERATOR_VERSION, gaussian_projection
from .taskgen import Corpus
from .trainer import param_digest, side_by_side

RRSS_DENOM_GUARD = 1e-8

TARGET_VAL_ID = -1  # task id of the target's validation rows

# Rows per chunk of build_cache, at any CPU count, so a cache's bytes never
# depend on it (a gemm's bits can depend on its row count: 64-row chunks
# change the addition cache). With two chunks in flight, 128 rows hold the
# intermediates one 256-row chunk held; two 256-row chunks raised the
# addition run's peak RSS by 17%.
_CHUNK = 128


@dataclass
class GradientCache:
    """One (task id, b, projected gradient) row per cached sample, and the
    projection P the gradients went through. Contents are immutable once
    built and safe for concurrent reads; what the estimator derives from them
    to solve subsets is estimate.prepare's, not the cache's."""

    task_id: np.ndarray  # (n,) int64; TARGET_VAL_ID on the target's val rows
    b: np.ndarray  # (n,) float64
    g_proj: np.ndarray  # (n, d) float64
    theta_star_digest: str
    P: np.ndarray  # (p, d), read-only
    projector_seed: int | None  # gaussian_projection's seed for P; None for any other P

    @property
    def d(self) -> int:
        return self.P.shape[1]

    def digest(self) -> str:
        h = hashlib.sha256()
        for arr in (self.task_id, self.b, self.g_proj):
            h.update(np.ascontiguousarray(arr).tobytes())
        h.update(self.theta_star_digest.encode())
        return h.hexdigest()


def row_task_ids(corpus: Corpus) -> np.ndarray:
    """The task id of each cache row build_cache makes from corpus, in row
    order: the train samples in mixture order, then the target's val samples."""
    tasks = [*corpus.tasks, corpus.target]  # the order mixture stacks them in
    ids = [t.task_id for t in tasks] + [TARGET_VAL_ID]
    counts = [len(t.train[1]) for t in tasks] + [len(corpus.target.val[1])]
    return np.repeat(np.array(ids, dtype=np.int64), counts)


def _chunks(splits: list, records: np.ndarray) -> list[tuple]:
    """(pieces, records) of each _CHUNK-sample chunk of the samples of
    splits, a list of (X, labels) stacked in order, whose rows the records
    (N,) take. A chunk's pieces are the (X, labels) slices of the splits it
    spans, so the stack is never copied whole."""
    offsets = np.cumsum([0] + [len(X) for X, _ in splits])
    chunks = []
    for lo in range(0, offsets[-1], _CHUNK):
        hi = min(lo + _CHUNK, offsets[-1])
        pieces = [
            (X[max(lo - s, 0) : hi - s], labels[max(lo - s, 0) : hi - s])
            for (X, labels), s in zip(splits, offsets)
            if s < hi and lo < s + len(X)
        ]
        chunks.append((pieces, records[lo:hi]))
    return chunks


def build_cache(
    net: Network, theta_star: ParamVector, corpus: Corpus, P: np.ndarray, projector_seed: int | None
) -> GradientCache:
    """Stage-1 cache: one row per train sample of tasks 1..n and the target,
    then the target's val rows for the linearized evaluator, projected by the
    (p, d) matrix P; projector_seed is the seed gaussian_projection built P
    from, or None for any other P. The rows are written straight into the
    records cache.bin stores, so the result equals what load_cache reads
    back from save_cache's file, and refuses a non-finite row by the same
    check; a task id the records cannot hold is refused before any row is
    computed.

    The per-layer factors of P are views of it (margin_gradient_product),
    and rows are filled _CHUNK samples at a time, each chunk's margins and
    projected gradients from one forward pass and each layer's
    (activation, delta) factors, so no (N, p) gradient block, no copy of P
    and no forward pass over all samples is ever built; the largest
    intermediate is _CHUNK * min(in, out) * d floats per chunk. The chunks
    are independent, so side_by_side computes them, one per CPU; each
    returns its b values and its projected gradients rounded to float32, as
    the records hold them, and they are stored in the records here."""
    if P.ndim != 2 or P.shape[0] != net.param_count:
        raise ValueError(f"P has shape {P.shape} but the model has {net.param_count} parameters")
    product = net.margin_gradient_product(P)
    task_id = row_task_ids(corpus)
    check_task_ids(task_id)
    records = np.empty(len(task_id), dtype=_record_dtype(P.shape[1]))
    records["tid"] = task_id
    train = [t.train for t in [*corpus.tasks, corpus.target]]  # in mixture order
    n = sum(len(X) for X, _ in train)
    chunks = _chunks(train, records[:n]) + _chunks([corpus.target.val], records[n:])

    def fill(i: int) -> tuple[np.ndarray, np.ndarray]:
        pieces, _ = chunks[i]
        Xc, yc = pieces[0] if len(pieces) == 1 else (np.concatenate(part) for part in zip(*pieces))
        h, g_rows = product(theta_star, Xc, yc)
        with np.errstate(over="ignore"):  # a gradient beyond float32's range becomes inf
            return -h, g_rows.astype(np.float32)

    for (_, rows), (b_rows, g_rows) in zip(chunks, side_by_side(len(chunks), fill)):
        rows["b"], rows["g"] = b_rows, g_rows
    return _from_records(records, param_digest(theta_star), P, projector_seed)


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


def rrss_sweep(
    net: Network,
    theta_star: ParamVector,
    X: np.ndarray,
    labels: np.ndarray,
    distances: list[float],
    n_directions: int,
    seed: int,
) -> list[dict]:
    """Mean/std RRSS at each relative distance, over displacement directions:
    one row {distance, mean_rrss, std_rrss, n_used, n_flagged} per distance,
    the rrss table bench writes. n_used counts the per-sample values averaged
    and n_flagged those skipped for a near-zero denominator.

    The n_directions directions are random unit vectors, each rescaled so
    that ||X - theta*|| equals distance * ||theta*|| exactly.

    theta*'s margins and the first-order terms g^T (X - theta*) are computed
    once per sweep, by one Network.margin_gradient_product call with the
    (p, distances x directions) matrix of displacements as M, so no
    per-sample gradient is built; each point X costs one forward pass.
    """
    if not distances:
        raise ValueError("need at least one distance")
    if any(dist < 0 for dist in distances):
        raise ValueError("distances must be non-negative")
    if n_directions < 1:
        raise ValueError("need at least one direction")
    rng = np.random.default_rng(seed)
    norm_star = np.linalg.norm(theta_star)

    directions = []
    for _ in range(n_directions):
        u = rng.standard_normal(theta_star.shape[0])
        directions.append(u / np.linalg.norm(u))

    points = [theta_star + dist * norm_star * u for dist in distances for u in directions]
    # theta*'s margins and g^T (X - theta*) at every point, from one
    # product. The displacement is X - theta* as rounded, not
    # dist * ||theta*|| * u: the two differ by about eps * ||theta*||,
    # which moves RRSS at small distances by ~1e-11.
    steps = np.empty((len(theta_star), len(points)))
    for k, x in enumerate(points):
        steps[:, k] = x - theta_star
    h_star, lin = net.margin_gradient_product(steps)(theta_star, X, labels)
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
            {
                "distance": float(dist),
                "mean_rrss": float(arr.mean()) if arr.size else math.nan,
                "std_rrss": float(arr.std()) if arr.size else math.nan,
                "n_used": used,
                "n_flagged": flagged,
            }
        )
    return rows


# ---------------------------------------------------------------------------
# Cache artifact: sizes, seeds and the theta* digest in the container header,
# then one fixed-width record per row
# ---------------------------------------------------------------------------


def _record_dtype(d: int) -> np.dtype:
    """One packed little-endian record per row: task id, b, then the
    projected gradient as float32."""
    return np.dtype([("tid", "<i2"), ("b", "<f8"), ("g", "<f4", (d,))])


def check_task_ids(task_id: np.ndarray) -> None:
    """Raise ValueError naming the first task id that cache.bin's 16-bit
    record field cannot hold, which would wrap."""
    tid = np.iinfo(_record_dtype(0)["tid"])
    wide = (task_id < tid.min) | (task_id > tid.max)
    if wide.any():
        raise ValueError(f"task id {task_id[np.argmax(wide)]} does not fit cache.bin's task ids ({tid.min}..{tid.max})")


def _pack(task_id, b, g) -> np.ndarray:
    """The rows as cache.bin's records; refuses task ids they cannot hold
    (check_task_ids)."""
    check_task_ids(task_id)
    records = np.empty(len(task_id), dtype=_record_dtype(g.shape[1]))
    records["tid"], records["b"] = task_id, b
    with np.errstate(over="ignore"):  # a gradient beyond float32's range becomes inf
        records["g"] = g
    return records


def _from_records(records, theta_star_digest: str, P: np.ndarray, projector_seed) -> GradientCache:
    """The cache holding records' rows. Raises ValueError naming the first
    row whose b or projected gradient is not finite as stored, so the solver
    never has to check its inputs."""
    finite = np.isfinite(records["b"]) & np.isfinite(records["g"]).all(axis=1)
    if not finite.all():
        row = int(np.argmin(finite))
        raise ValueError(f"non-finite b or projected gradient in row {row} (task id {records['tid'][row]})")
    return GradientCache(
        task_id=records["tid"].astype(np.int64),
        b=records["b"].astype(np.float64),
        g_proj=records["g"].astype(np.float64),
        theta_star_digest=theta_star_digest,
        P=P,
        projector_seed=projector_seed,
    )


def save_cache(path, cache: GradientCache) -> None:
    if cache.projector_seed is None:
        raise ValueError("only a cache projected by gaussian_projection is serializable")
    header = {
        "p": cache.P.shape[0],
        "d": cache.d,
        "projector_seed": cache.projector_seed,
        "generator_version": GENERATOR_VERSION,
        "theta_star_digest": cache.theta_star_digest,
    }
    artifact.write(path, "cache", 2, header, _pack(cache.task_id, cache.b, cache.g_proj).tobytes())


def load_cache(path, theta_star: ParamVector, task_id: np.ndarray) -> GradientCache:
    """Read the cache artifact made at theta_star for the rows whose task
    ids are task_id (row_task_ids of its corpus) and rebuild its P from the
    header's sizes and seed. Raises ValueError naming the file when it is
    not a cache v2 container or its projector generator differs from this
    program's; before any of P is made, when its header's p is not
    len(theta_star), its theta* digest is not theta_star's, its body is not
    len(task_id) whole records of the header's d, or its rows' task ids are
    not task_id; and when a row is not finite (see _from_records)."""
    header, body = artifact.read(path, "cache", 2, {
        "p": int, "d": int, "projector_seed": int, "generator_version": int, "theta_star_digest": str,
    })
    p, d = header["p"], header["d"]
    if header["generator_version"] != GENERATOR_VERSION:
        raise ValueError(f"{path}: projector generator version mismatch")
    if p != len(theta_star):
        raise ValueError(f"{path}: projected for {p} parameters, but the model has {len(theta_star)}")
    if header["theta_star_digest"] != param_digest(theta_star):
        raise ValueError(f"{path}: made at another theta* than the checkpoint's")
    # a record is its fixed fields, then d float32s
    if d < 1 or len(body) != len(task_id) * (_record_dtype(0).itemsize + 4 * d):
        raise ValueError(f"{path}: holds {len(body)} bytes of records, not the corpus's {len(task_id)} rows at d = {d}")
    records = np.frombuffer(body, dtype=_record_dtype(d))
    if not np.array_equal(records["tid"], task_id):
        raise ValueError(f"{path}: its rows' task ids are not the corpus's")
    P = gaussian_projection(p, d, header["projector_seed"])
    try:
        return _from_records(records, header["theta_star_digest"], P, header["projector_seed"])
    except ValueError as e:
        raise ValueError(f"{path}: {e}") from None
