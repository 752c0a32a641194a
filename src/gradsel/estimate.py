"""Subset loss estimation: solve the projected logistic regression per subset
and evaluate the reconstructed parameters on the target validation set.

The objective over a subset's cached rows (b_i, g~_i) is
    mean log(1 + exp(b_i - g~_i . x)) + (lambda / 2) ||x||^2
in d-space: the mean log-loss at the first-order margins -b_i + g~_i . x.
It is convex; a tiny ridge keeps the minimizer finite even when
the projected data is separable. Its terms log(1 + exp(z_i)),
z_i = b_i - g~_i . x, and the sigmoid(z_i) of its gradient and Hessian come
from one exponential per row (model._log1pexp_sigmoid, whose sigmoid the
training step's binary head takes too). The solver is damped Newton, which
is cheap because the Hessian is only d x d, after fixed-Hessian steps while
those pay (below). One function, _hessian, forms every Hessian, Newton's
and the shared start's, in float64 like all of the solver's arithmetic.

Every subset solve the program runs (estimate_subsets) starts one Newton
step from x_all, the solve over every train row: at x_all, with H_all the
all-rows Hessian and s_t, n_t task t's sum of g_i sigmoid(z_i) and row
count, a subset S starts at
    x_all - H_all^-1 (lambda x_all - sum_{t in S+target} s_t / sum n_t),
the influence-function estimate of its optimum. x_all, H_all^-1, the
per-task sums and each task id's rows are found once per cache and
SolveConfig, by prepare, whose Problem every solve then reads, so a score
never depends on what was scored before it.

From there the solve iterates x <- x - H_all^-1 grad_S(x) with the same
inverse (Kantorovich's simplified Newton): a step needs no Hessian
of its own and no linear solve. A step contracts by about
rho(I - H_all^-1 H_S), small when S holds most of the rows but near 1 for a
small S, so each step is kept only while its slope is negative, it halves
||grad|| and it passes the line search's acceptance test; the first that
fails costs one objective evaluation, and the solve goes on from where it
is by damped Newton. The start and the fixed steps only shorten the solve,
which runs to the same gradient tolerance; solver_iters counts steps of
both kinds.

Subsets are solved in blocks (solve_subsets; one subset is a block of
one). The starts of a block are one gemm, and its fixed steps are taken for
all its subsets at once. The block's rows are split into segments, the rows
of tasks that the same subsets hold; per segment, one gemm gives the
margins of every subset holding it and one more their gradient terms, so a
subset's rows are read for it alone and never copied per subset. Only a
subset whose fixed step is refused gathers its rows, for its damped Newton
steps. A gemm's bits depend on its width, so a score is a function of the
cache, the config, the subset and its block: the same subset scored in
another block can differ in its last bits. On the default run's RE draws,
FS trajectory and relerr subsets, in their default blocks, scores moved by
at most 5.4e-16 relative from solving each subset alone, and no subset's
steps or Stop changed. Callers form blocks from the batch order alone
(select.scored_in_blocks), so no artifact depends on the CPU count.

A solution x_hat lives in d-space; estimate_f lifts a block of them to
parameter space by the cache's own P, as theta* + P x_hat, by gemm.
"""

from __future__ import annotations

import csv
import enum
import io
import math
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


def _value_grad(b, G, x, lam):
    """(objective value, gradient, sigmoid(z)) at x, z = b - G x the margins:
    mean(log(1 + exp(z))) + lam / 2 x.x and -(G^T sigmoid(z)) / n + lam x,
    in their order, with z and the gradient formed in place."""
    n = len(b)
    z = G @ x
    np.subtract(b, z, out=z)
    terms, s = _log1pexp_sigmoid(z)
    value = float(terms.sum() / n + 0.5 * lam * (x @ x))
    grad = G.T @ s
    np.negative(grad, out=grad)
    grad /= n
    grad += lam * x
    return value, grad, s


def _hessian(G, s, lam):
    """G^T diag(w) G / n + lam I, w = s (1 - s) for s = sigmoid(z): the
    Hessian at margins z, one symmetric product (syrk) of rows scaled by
    sqrt(w / n)."""
    Gs = G * np.sqrt(s * (1.0 - s) / len(s))[:, None]
    H = Gs.T @ Gs
    H.flat[:: H.shape[0] + 1] += lam
    return H


def _accepts(value, slope, step, cand_value, cand_slope):
    """Whether a candidate at step * direction from x (objective value, slope
    grad . direction < 0 at x) decreases the objective enough: Armijo, or
    near the minimizer, where the decrease sinks below the rounding of value,
    the approximate Armijo test of Hager & Zhang (2005), which decides from
    the exact directional derivative cand_slope at the candidate instead.
    Elementwise on arrays of candidates, one per subset of a block."""
    armijo = cand_value <= value + 1e-4 * step * slope
    return armijo | ((cand_value <= value + 1e-10 * abs(value)) & (cand_slope <= (2e-4 - 1.0) * slope))


def _newton(b, G, lam, cfg, x0, done=0):
    """Minimize the objective over rows (b, G) by damped Newton from x0 to
    cfg.grad_tol, done of cfg.max_iters steps having been taken before.
    Returns (x, steps in all, stop)."""
    x = x0.copy()
    value, grad, s = _value_grad(b, G, x, lam)
    grad_norm = math.sqrt(grad @ grad)
    for it in range(done + 1, cfg.max_iters + 1):
        if grad_norm <= cfg.grad_tol:
            return x, it - 1, Stop.CONVERGED
        try:
            direction = np.linalg.solve(_hessian(G, s, lam), -grad)
        except np.linalg.LinAlgError:
            direction = -grad
        slope = grad @ direction
        if slope >= 0:
            direction = -grad
            slope = grad @ direction
        step = 1.0
        for _ in range(60):
            cand = x + step * direction
            cand_value, cand_grad, cand_s = _value_grad(b, G, cand, lam)
            if _accepts(value, slope, step, cand_value, cand_grad @ direction):
                break
            step *= 0.5
        else:
            # no step decreases the objective: stay at x rather than take an
            # uphill candidate
            return x, it, Stop.LINESEARCH
        x, value, grad, s = cand, cand_value, cand_grad, cand_s
        grad_norm = math.sqrt(grad @ grad)
    return x, cfg.max_iters, Stop.CONVERGED if grad_norm <= cfg.grad_tol else Stop.MAX_ITERS


@dataclass(frozen=True)
class Problem:
    """What every subset solve over a cache with a SolveConfig reads besides
    its rows, found once by prepare: each task id's rows and the shared
    start (module docstring)."""

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
    train = cache.task_id != TARGET_VAL_ID
    b, G, lam = cache.b[train], cache.g_proj[train], cfg.ridge_lambda
    x_all, _, _ = _newton(b, G, lam, cfg, np.zeros(cache.d))
    _, s = _log1pexp_sigmoid(b - G @ x_all)
    sums = np.zeros((n_ids, cache.d))
    np.add.at(sums, cache.task_id[train], G * s[:, None])
    id_rows = [order[lo:hi] for lo, hi in zip(cuts[:-1], cuts[1:])]
    return Problem(cache, cfg, id_rows, sums, x_all, np.linalg.inv(_hessian(G, s, lam)))


def _members(problem: Problem, subsets: list) -> tuple[np.ndarray, np.ndarray]:
    """(member, n): member[j, t] whether subset j's solve reads task id t's
    rows (its own ids' and the target's), n[j] how many rows it reads.
    Raises ValueError naming the first subset that holds an id outside
    1..max id, as the oracle does, or that reads no row."""
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


def _rows(problem: Problem, tasks) -> np.ndarray:
    """The indices of the given task ids' rows, in row order."""
    return np.sort(np.concatenate([problem.id_rows[t] for t in tasks]))


def solve_subset(
    problem: Problem, subset, x0: np.ndarray | None = None, done: int = 0
) -> tuple[np.ndarray, int, Stop]:
    """Minimize the objective over the rows of the subset's tasks and the
    target's train rows, gathered in row order, by damped Newton from x0
    (default 0), done steps having been taken before (solve_subsets hands
    it a subset whose fixed step was refused). Returns (x_hat, steps, stop);
    a solve that stops short of the gradient tolerance is reported by its
    Stop, not raised."""
    member, _ = _members(problem, [subset])
    idx = _rows(problem, np.flatnonzero(member[0]))
    cache, cfg = problem.cache, problem.cfg
    start = np.zeros(cache.d) if x0 is None else np.asarray(x0, dtype=np.float64)
    return _newton(cache.b[idx], cache.g_proj[idx], cfg.ridge_lambda, cfg, start, done)


def _rowdot(A, B) -> np.ndarray:
    return np.einsum("ij,ij->i", A, B)


def _segments(problem: Problem, member: np.ndarray) -> list[tuple]:
    """The rows a block reads, one segment per set of task ids held by the
    same subsets (member as _members gives it): (reads, b, G), reads the
    (B,) bools marking those subsets and (b, G) the tasks' rows in row
    order, a view where they are contiguous. A block of one subset is one
    segment of its rows; in the default run's RE blocks each task is one."""
    by_readers: dict[bytes, list[int]] = {}
    columns = np.ascontiguousarray(member.T)
    for t in np.flatnonzero(columns.any(axis=1)):
        if len(problem.id_rows[t]):
            by_readers.setdefault(columns[t].tobytes(), []).append(t)
    segments = []
    for tasks in by_readers.values():
        rows = _rows(problem, tasks)
        if rows[-1] - rows[0] == len(rows) - 1:
            rows = slice(rows[0], rows[-1] + 1)
        segments.append((columns[tasks[0]], problem.cache.b[rows], problem.cache.g_proj[rows]))
    return segments


def _block_value_grad(segments, X, which, n, lam) -> tuple[np.ndarray, np.ndarray]:
    """(values, gradients) of the objective at each row x of X over its
    subset's rows: which holds the rows' subsets as indices into the block,
    n their row counts, and segments the block's rows (_segments)."""
    value = np.zeros(len(X))
    grad = np.zeros_like(X)
    for reads, b, G in segments:
        on = reads[which]
        if on.all():
            cols, z = slice(None), X @ G.T
        elif on.any():
            cols = np.flatnonzero(on)
            z = X[cols] @ G.T
        else:
            continue
        np.subtract(b, z, out=z)
        terms, s = _log1pexp_sigmoid(z)
        value[cols] += terms.sum(axis=1)
        grad[cols] -= s @ G
    value /= n
    value += 0.5 * lam * _rowdot(X, X)
    grad /= n[:, None]
    grad += lam * X
    return value, grad


def solve_subsets(problem: Problem, subsets: list, H_inv: np.ndarray) -> list[tuple[np.ndarray, int, Stop]]:
    """Solve each subset of a block from its shared start (_starts): by full
    fixed steps -H_inv grad (estimate_subsets passes problem.H_inv), taken
    for the whole block at once and each kept only while its slope is
    negative, it halves ||grad|| and _accepts it; a subset whose step is
    refused goes on from where it stands by damped Newton (solve_subset).
    The steps count toward one shared cfg.max_iters. Returns each subset's
    (x_hat, steps, stop) in order."""
    cfg = problem.cfg
    member, n = _members(problem, subsets)
    X = _starts(problem, member, n)
    lam, tol = cfg.ridge_lambda, cfg.grad_tol
    segments = _segments(problem, member)
    results: list = [None] * len(subsets)
    live = np.arange(len(subsets))  # the block's subsets still taking fixed steps
    value, grad = _block_value_grad(segments, X, live, n, lam)
    norm = np.sqrt(_rowdot(grad, grad))
    for it in range(1, cfg.max_iters + 1):
        direction = grad @ H_inv.T
        np.negative(direction, out=direction)
        slope = _rowdot(grad, direction)
        done = norm <= tol
        steps = ~done & (slope < 0)  # no fixed step on a NaN norm or slope
        if not steps.all():
            for j, x, converged in zip(live[~steps], X[~steps], done[~steps]):
                if converged:
                    results[j] = x, it - 1, Stop.CONVERGED
                else:
                    results[j] = solve_subset(problem, subsets[j], x, it - 1)
            live, X, value, grad, norm, direction, slope = (
                a[steps] for a in (live, X, value, grad, norm, direction, slope)
            )
            if not live.size:
                return results
            segments = [seg for seg in segments if seg[0][live].any()]
        cand = X + direction
        cand_value, cand_grad = _block_value_grad(segments, cand, live, n[live], lam)
        cand_norm = np.sqrt(_rowdot(cand_grad, cand_grad))
        kept = (cand_norm <= 0.5 * norm) & _accepts(value, slope, 1.0, cand_value, _rowdot(cand_grad, direction))
        if not kept.all():
            for j, x in zip(live[~kept], X[~kept]):
                results[j] = solve_subset(problem, subsets[j], x, it - 1)
            live, cand, cand_value, cand_grad, cand_norm = (
                a[kept] for a in (live, cand, cand_value, cand_grad, cand_norm)
            )
            if not live.size:
                return results
            segments = [seg for seg in segments if seg[0][live].any()]
        X, value, grad, norm = cand, cand_value, cand_grad, cand_norm
    for j, x, g in zip(live, X, norm):
        results[j] = x, cfg.max_iters, Stop.CONVERGED if g <= tol else Stop.MAX_ITERS
    return results


def _starts(problem: Problem, member: np.ndarray, n: np.ndarray) -> np.ndarray:
    """Row j is one Newton step from x_all toward subset j's optimum with the
    all-rows Hessian (module docstring), member and n as _members gives
    them; all rows from one gemm."""
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
    solved = solve_subsets(problem, subsets, problem.H_inv)
    X_hat = np.array([x for x, _, _ in solved]).reshape(len(subsets), problem.cache.d)
    if linearized:
        f_hat = estimate_f_linearized(problem.cache, X_hat)
    else:
        f_hat = estimate_f(net, theta_star, problem.cache, X_hat, target_val)
    return [
        EstimateResult(subset=s, f_hat=f, solver_iters=iters, stop=stop)
        for s, f, (_, iters, stop) in zip(subsets, f_hat, solved)
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
