"""Subset loss estimation: solve the projected logistic regression per subset
and evaluate the reconstructed parameters on the target validation set.

The objective over a subset's cached rows (b_i, g~_i) is
    mean log(1 + exp(b_i - g~_i . x)) + (lambda / 2) ||x||^2
in d-space: the mean log-loss at the first-order margins -b_i + g~_i . x.
It is convex; a tiny ridge keeps the minimizer finite even when the
projected data is separable. Its terms log(1 + exp(z_i)), z_i = b_i - g~_i . x,
and the sigmoid(z_i) of its gradient and Hessian come from one exponential
per row (model._log1pexp_sigmoid). All of the solver's arithmetic is float64.

Every subset solve (estimate_subsets) starts one Newton step from x_all,
the solve over every train row: with H_all the all-rows Hessian at x_all
and s_t, n_t task t's sum of g_i sigmoid(z_i) there and its row count, a
subset S starts at
    x_all - H_all^-1 (lambda x_all - sum_{t in S+target} s_t / sum n_t),
the influence-function estimate of its optimum. prepare finds x_all,
H_all^-1, the sums and each task id's rows once per cache and SolveConfig,
so a score never depends on what was scored before it.

One loop (_solve) solves every subset of a block, each in one of two
modes, and counts its steps of both kinds in solver_iters. In fixed mode a
subset steps x <- x - H_all^-1 grad_S(x) (Kantorovich's simplified
Newton: no Hessian of its own, no linear solve). Such a step contracts by
about rho(I - H_all^-1 H_S), small when S holds most of the rows but near
1 for a small S, so it is kept only while its slope is negative, it halves
||grad|| and it passes the line search's acceptance test (_accepts); the
first that fails switches the subset to damped Newton where it stands. In
Newton mode the direction solves H_S(x) d = -grad_S(x), and a refused step
halves its length, 60 times at most before the subset stops with
Stop.LINESEARCH. Each round evaluates every live subset's candidate
x + t d in one pass and decides them all by the one test. Hessians are
formed only where a subset needs a new Newton direction, from the
sigmoids of the evaluation at its point, and a round's Newton systems are
one stacked solve. prepare solves the all-rows subset by the same loop,
in Newton mode from x = 0.

A block's rows are split into segments, the rows of the tasks that the
same subsets hold; per segment, one gemm gives the margins of every live
subset holding it and one more their gradient terms, so no subset's rows
are gathered. A gemm's bits depend on its width, so a score is a function
of the cache, the config, the subset and its block: on the default run's
RE draws, FS trajectory and relerr subsets, scores moved by at most
5.4e-16 relative from solving each subset alone, with the same steps and
Stop. Callers form blocks from the batch order alone
(select.scored_in_blocks), so no artifact depends on the CPU count.

A solution x_hat lives in d-space; estimate_f lifts a block of them to
parameter space by the cache's own P, as theta* + P x_hat, by gemm.
"""

from __future__ import annotations

import contextlib
import csv
import enum
import io
from dataclasses import dataclass

import numpy as np

from . import artifact
from .linearize import TARGET_VAL_ID, GradientCache
from .model import Network, ParamVector, _log1pexp_sigmoid
from .taskgen import TARGET_TASK_ID, Split
from .trainer import eval_loss


@dataclass(frozen=True)
class SolveConfig:
    ridge_lambda: float = 1e-4
    max_iters: int = 100
    grad_tol: float = 1e-8

    def __post_init__(self):
        # a positive ridge keeps every solve's minimizer unique, even on
        # separable rows, and the all-rows Hessian of the shared start SPD
        if self.ridge_lambda <= 0:
            raise ValueError("ridge_lambda must be positive")
        if self.grad_tol <= 0:
            raise ValueError("grad_tol must be positive")
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")


class Stop(enum.Enum):
    """Why a solve ended. Only CONVERGED is true, so `if stop:` asks
    whether the solve converged."""

    CONVERGED = "converged"
    MAX_ITERS = "max_iters"  # the iteration budget ran out
    LINESEARCH = "linesearch"  # no step along the Newton direction decreased the objective

    def __bool__(self) -> bool:
        return self is Stop.CONVERGED


@dataclass
class EstimateResult:
    subset: frozenset[int]
    f_hat: float
    solver_iters: int
    stop: Stop


def _accepts(value, slope, step, cand_value, cand_slope):
    """Whether a candidate at step * direction from x (objective value, slope
    grad . direction < 0 at x) decreases the objective enough: Armijo, or
    near the minimizer, where the decrease sinks below the rounding of value,
    the approximate Armijo test of Hager & Zhang (2005), which decides from
    the exact directional derivative cand_slope at the candidate instead.
    Elementwise on arrays of candidates, one per subset of a block."""
    armijo = cand_value <= value + 1e-4 * step * slope
    return armijo | ((cand_value <= value + 1e-10 * abs(value)) & (cand_slope <= (2e-4 - 1.0) * slope))


@dataclass(frozen=True)
class Problem:
    """What every subset solve over a cache with a SolveConfig reads besides
    its rows, found once by prepare (module docstring)."""

    cache: GradientCache
    cfg: SolveConfig
    id_rows: list[np.ndarray]  # id_rows[t]: task id t's row indices in row order, t in 0..max id
    sums: np.ndarray  # (max id + 1, d): s_t, task t's sum of g_i sigmoid(z_i) at x_all
    x_all: np.ndarray  # (d,): the solve over every train row
    H_inv: np.ndarray  # (d, d): H_all^-1, the inverse of the all-rows Hessian at x_all


def prepare(cache: GradientCache, cfg: SolveConfig) -> Problem:
    """The Problem of solving subsets over cache with cfg. Callers build it
    once, before any fork, so the processes that score subsets inherit it."""
    n_ids = int(cache.task_id.max(initial=TARGET_VAL_ID)) + 1
    order = np.argsort(cache.task_id, kind="stable")
    cuts = np.searchsorted(cache.task_id[order], np.arange(n_ids + 1))
    id_rows = [order[lo:hi] for lo, hi in zip(cuts[:-1], cuts[1:])]
    # the all-rows solve is a block of one subset holding every task
    segments = _segments(cache, id_rows, np.ones((1, n_ids), dtype=bool))
    one, n = np.zeros(1, dtype=np.int64), np.array([cuts[-1] - cuts[0]])
    X, _, _ = _solve(segments, n, np.zeros((1, cache.d)), cfg, None)
    sigmoids = _block_value_grad(segments, X, one, n, cfg.ridge_lambda, True)[2]
    [(_, G, s)] = sigmoids  # over the train rows in row order
    sums = np.zeros((n_ids, cache.d))
    np.add.at(sums, cache.task_id[cache.task_id != TARGET_VAL_ID], G * s[0][:, None])
    H = _hessians(sigmoids, one, n, cfg.ridge_lambda)[0]
    return Problem(cache, cfg, id_rows, sums, X[0], np.linalg.inv(H))


def _members(problem: Problem, subsets: list) -> tuple[np.ndarray, np.ndarray]:
    """(member, n): member[j, t] whether subset j reads task id t's rows (its
    ids' and the target's), n[j] how many rows it reads. Raises ValueError
    naming the first subset holding an id outside 1..max id, as the oracle
    does, or reading no row."""
    member = np.zeros((len(subsets), len(problem.id_rows)), dtype=bool)
    for j, subset in enumerate(subsets):
        ids = [int(t) for t in subset]
        bad = sorted({t for t in ids if not 0 < t < len(problem.id_rows)})
        if bad:
            raise ValueError(f"unknown task ids in subset: {bad}")
        member[j, [*ids, TARGET_TASK_ID]] = True
    n = member @ np.array([len(rows) for rows in problem.id_rows], dtype=np.int64)
    if not n.all():
        raise ValueError(f"no cached samples for subset {sorted(subsets[int(np.argmin(n))])}")
    return member, n


def _rowdot(A, B) -> np.ndarray:
    return np.einsum("ij,ij->i", A, B)


def _segments(cache: GradientCache, id_rows: list[np.ndarray], member: np.ndarray) -> list[tuple]:
    """The rows a block reads (member as _members gives it), one segment
    per set of task ids held by the same subsets: (reads, b, G), reads the
    (B,) bools marking those subsets and (b, G) the tasks' rows in row
    order, a view where they are contiguous."""
    by_readers: dict[bytes, list[int]] = {}
    columns = np.ascontiguousarray(member.T)
    for t in np.flatnonzero(columns.any(axis=1)):
        if len(id_rows[t]):
            by_readers.setdefault(columns[t].tobytes(), []).append(t)
    segments = []
    for tasks in by_readers.values():
        rows = np.sort(np.concatenate([id_rows[t] for t in tasks]))
        if rows[-1] - rows[0] == len(rows) - 1:
            rows = slice(rows[0], rows[-1] + 1)
        segments.append((columns[tasks[0]], cache.b[rows], cache.g_proj[rows]))
    return segments


def _block_value_grad(segments, X, which, n, lam, keep) -> tuple[np.ndarray, np.ndarray, list]:
    """(values, gradients, sigmoids) of the objective at each row x of X
    over its subset's rows (segments), which holding the rows' subsets as
    ascending indices into the block and n their row counts. With keep,
    sigmoids holds (readers, G, s) per segment read: the subsets of which
    reading it, its rows' G and one row of sigmoid(z) per reader."""
    value = np.zeros(len(X))
    grad = np.zeros_like(X)
    sigmoids = []
    for reads, b, G in segments:
        cols = np.flatnonzero(reads[which])
        if not len(cols):
            continue
        if cols[-1] - cols[0] == len(cols) - 1:  # a run of rows: views, not copies
            cols = slice(cols[0], cols[-1] + 1)
        z = X[cols] @ G.T
        np.subtract(b, z, out=z)
        terms, s = _log1pexp_sigmoid(z)
        value[cols] += terms.sum(axis=1)
        grad[cols] -= s @ G
        if keep:
            sigmoids.append((which[cols], G, s))
    value /= n
    value += 0.5 * lam * _rowdot(X, X)
    grad /= n[:, None]
    grad += lam * X
    return value, grad, sigmoids


def _hessians(sigmoids, which, n, lam) -> np.ndarray:
    """The Hessians G^T diag(s (1 - s)) G / n + lam I of the subsets which
    (indices into the block) with row counts n, where _block_value_grad gave
    sigmoids: per subset, one symmetric product (syrk) of the rows it reads,
    scaled by sqrt(s (1 - s) / n) into one buffer, segment after segment."""
    index = {j: k for k, j in enumerate(which.tolist())}
    parts: list[list] = [[] for _ in which]
    for readers, G, s in sigmoids:
        w = s * (1.0 - s)
        for row, j in enumerate(readers.tolist()):
            if j in index:
                parts[index[j]].append((G, w[row]))
    d = sigmoids[0][1].shape[1]
    H = np.empty((len(which), d, d))
    rows = np.empty((max(n), d))
    for h, m, part in zip(H, n, parts):
        lo = 0
        for G, w in part:
            np.multiply(G, np.sqrt(w / m)[:, None], out=rows[lo : lo + len(G)])
            lo += len(G)
        np.matmul(rows[:m].T, rows[:m], out=h)
    H.reshape(len(which), -1)[:, :: d + 1] += lam
    return H


def _put(a, b, where) -> np.ndarray:
    """a with b's rows where `where` holds: b if it holds everywhere."""
    if where.all():
        return b
    np.copyto(a, b, where=where.reshape(-1, *[1] * (a.ndim - 1)))
    return a


def _solve(segments, n, X, cfg: SolveConfig, H_inv) -> tuple[np.ndarray, np.ndarray, list[Stop]]:
    """Minimize each subset's objective over a block's rows (segments, and
    row counts n) from the rows of X, which it may overwrite: in fixed mode
    with H_inv, in Newton mode from the start if H_inv is None (module
    docstring), in at most cfg.max_iters steps. Returns (x_hat rows, steps,
    stops); a solve short of cfg.grad_tol is told by its Stop, not raised.
    The live subsets' state is compacted as subsets end."""
    lam, tol, B = cfg.ridge_lambda, cfg.grad_tol, len(X)
    X_hat, steps_hat, stop_hat = np.empty_like(X), np.zeros(B, dtype=np.int64), np.zeros(B, dtype=np.int64)
    live = np.arange(B)
    newton = np.full(B, H_inv is None)
    value, grad, sigmoids = _block_value_grad(segments, X, live, n, lam, H_inv is None)
    norm = np.sqrt(_rowdot(grad, grad))
    noted = newton.copy()  # sigmoids holds the sigmoids at its point
    direction, slope, step = np.zeros_like(X), np.zeros(B), np.ones(B)
    steps, halvings = np.zeros(B, dtype=np.int64), np.zeros(B, dtype=np.int64)
    fresh = np.ones(B, dtype=bool)  # needs a new direction
    while True:
        failed = halvings == 60  # stays at x rather than take an uphill candidate
        ends = failed | (fresh & ((norm <= tol) | (steps == cfg.max_iters)))
        if ends.any():
            X_hat[live[ends]] = X[ends]
            steps_hat[live[ends]] = (steps + failed)[ends]  # a failed line search is a step taken
            stop_hat[live[ends]] = np.where(failed, 2, ~(norm <= tol))[ends]  # an index into Stop
            live, X, value, grad, norm, direction, slope, step, steps, halvings, newton, fresh, noted = (
                a[~ends]
                for a in (live, X, value, grad, norm, direction, slope, step, steps, halvings, newton, fresh, noted)
            )
            if not live.size:
                return X_hat, steps_hat, [list(Stop)[k] for k in stop_hat]
            segments = [seg for seg in segments if seg[0][live].any()]
        fixed = fresh & ~newton
        if fixed.any():
            D = grad @ H_inv.T
            np.negative(D, out=D)
            direction, slope = _put(direction, D, fixed), _put(slope, _rowdot(grad, D), fixed)
            newton |= fixed & ~(slope < 0)  # no fixed step on a NaN norm or slope
        need = np.flatnonzero(fresh & newton)
        if need.size:
            at, m = live[need], n[live[need]]
            if not noted[need].all():  # a subset new to Newton mode: its sigmoids, once more
                sigmoids = _block_value_grad(segments, X[need], at, m, lam, True)[2]
            H = _hessians(sigmoids, at, m, lam)
            D = -grad[need]
            try:
                D = np.linalg.solve(H, D[:, :, None])[:, :, 0]
            except np.linalg.LinAlgError:  # a singular Hessian: that subset steps along -grad
                for k, h in enumerate(H):
                    with contextlib.suppress(np.linalg.LinAlgError):
                        D[k] = np.linalg.solve(h, D[k])
            up = _rowdot(grad[need], D) >= 0
            D[up] = -grad[need[up]]
            direction[need], slope[need] = D, _rowdot(grad[need], D)
        step[fresh], halvings[fresh] = 1.0, 0
        cand = X + (direction if (step == 1.0).all() else step[:, None] * direction)
        keep = bool(newton.any())  # only Newton steps read the sigmoids again
        cand_value, cand_grad, sigmoids = _block_value_grad(segments, cand, live, n[live], lam, keep)
        cand_norm = np.sqrt(_rowdot(cand_grad, cand_grad))
        kept = _accepts(value, slope, step, cand_value, _rowdot(cand_grad, direction))
        kept &= newton | (cand_norm <= 0.5 * norm)
        X, grad = _put(X, cand, kept), _put(grad, cand_grad, kept)
        value, norm = _put(value, cand_value, kept), _put(norm, cand_norm, kept)
        steps += kept
        switched = ~kept & ~newton  # goes on by damped Newton where it stands
        halved = ~kept & newton
        step[halved] *= 0.5
        halvings += halved
        newton |= switched
        fresh = kept | switched
        noted = kept & keep


def _starts(problem: Problem, member: np.ndarray, n: np.ndarray) -> np.ndarray:
    """Row j is one Newton step from x_all toward subset j's optimum with the
    all-rows Hessian (module docstring), all rows from one gemm."""
    x_all, lam = problem.x_all, problem.cfg.ridge_lambda
    grad = lam * x_all - (member.astype(np.float64) @ problem.sums) / n[:, None]
    return x_all - grad @ problem.H_inv.T


# Bytes of the (rows, p) parameter vectors estimate_f lifts at a time, 8
# rows at the default p. A gemm's bits can depend on its width, which this
# fixes for a given p and block.
_LIFT_BYTES = 2**18


def estimate_f(
    net: Network,
    theta_star: ParamVector,
    cache: GradientCache,
    X_hat: np.ndarray,
    target_val: Split,
) -> list[float]:
    """For each row x of X_hat, reconstruct theta* + P x with the cache's P
    and evaluate the true forward-pass loss on the target validation set.
    The lift is a gemm over as many rows at a time as _LIFT_BYTES holds."""
    step = max(1, _LIFT_BYTES // (8 * cache.P.shape[0]))
    losses = []
    for lo in range(0, len(X_hat), step):
        thetas = X_hat[lo : lo + step] @ cache.P.T
        thetas += theta_star
        losses += [eval_loss(net, theta, *target_val) for theta in thetas]
    return losses


def estimate_f_linearized(cache: GradientCache, X_hat: np.ndarray) -> list[float]:
    """Cheap surrogate: for each row x of X_hat, the mean linearized loss over
    the cached target-val rows."""
    val = cache.task_id == TARGET_VAL_ID
    if not val.any():
        raise ValueError("cache has no target validation rows")
    z = X_hat @ cache.g_proj[val].T
    np.subtract(cache.b[val], z, out=z)
    return [float(v) for v in np.mean(_log1pexp_sigmoid(z)[0], axis=1)]


def estimate_subsets(
    net: Network,
    theta_star: ParamVector,
    problem: Problem,
    subsets,
    target_val: Split | None,
    linearized: bool = False,
) -> list[EstimateResult]:
    """Solve a block of subsets (each with the target's train rows) from the
    shared start (module docstring) and score each: by estimate_f on
    target_val, or with linearized by estimate_f_linearized on the cache's
    target-val rows (target_val is then unused). Every estimator score in
    the program, the selection drivers' included, comes from here."""
    subsets = [frozenset(int(t) for t in s) for s in subsets]
    member, n = _members(problem, subsets)
    segments = _segments(problem.cache, problem.id_rows, member)
    X_hat, steps, stops = _solve(segments, n, _starts(problem, member, n), problem.cfg, problem.H_inv)
    if linearized:
        f_hat = estimate_f_linearized(problem.cache, X_hat)
    else:
        f_hat = estimate_f(net, theta_star, problem.cache, X_hat, target_val)
    return [
        EstimateResult(subset=s, f_hat=f, solver_iters=int(k), stop=stop)
        for s, f, k, stop in zip(subsets, f_hat, steps, stops)
    ]


def estimate_subset(
    net: Network, theta_star: ParamVector, problem: Problem, subset, target_val: Split
) -> EstimateResult:
    """estimate_subsets for a block of one subset."""
    return estimate_subsets(net, theta_star, problem, [subset], target_val)[0]


# ---------------------------------------------------------------------------
# CSV ledger
# ---------------------------------------------------------------------------

LEDGER_FIELDS = ("subset", "f_hat", "solver_iters", "flags")


def write_ledger(path, results: list[EstimateResult]) -> None:
    """Write estimate rows to a CSV ledger under its header."""
    out = io.StringIO()
    writer = csv.writer(out)
    writer.writerow(LEDGER_FIELDS)
    for r in results:
        writer.writerow(
            [
                ";".join(str(t) for t in sorted(r.subset)),
                f"{r.f_hat:.12g}",
                r.solver_iters,
                "" if r.stop else r.stop.value,
            ]
        )
    artifact.write_atomic(path, out.getvalue().encode())
