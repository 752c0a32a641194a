"""Subset loss estimation: solve the projected logistic regression per subset
and evaluate the reconstructed parameters on the target validation set.

The objective over a subset's cached rows (b_i, g~_i) is
    mean log(1 + exp(b_i - g~_i . x)) + (lambda / 2) ||x||^2
in d-space: the mean log-loss at the first-order margins -b_i + g~_i . x.
It is convex; a tiny ridge keeps the minimizer finite even when
the projected data is separable. The solver is damped Newton, which is cheap
because the Hessian is only d x d, after fixed-Hessian steps while those pay
(below). One function, _hessian, forms every Hessian, Newton's and the
shared start's, in float64 like all of the solver's arithmetic.

Every subset solve the program runs (estimate_subset) starts one Newton
step from x_all, the solve over every train row: at x_all, with H_all the
all-rows Hessian and s_t, n_t task t's sum of g_i sigmoid(z_i) and row
count, a subset S starts at
    x_all - H_all^-1 (lambda x_all - sum_{t in S+target} s_t / sum n_t),
the influence-function estimate of its optimum. x_all, H_all^-1 and the
per-task sums are computed once per cache and SolveConfig and memoized on
the cache, so a score is a function of (cache, subset, config) alone, never
of what was scored before it.

From there the solve iterates x <- x - H_all^-1 grad_S(x) with the same
memoized inverse (Kantorovich's simplified Newton): a step needs no Hessian
of its own and no linear solve. A step contracts by about
rho(I - H_all^-1 H_S), small when S holds most of the rows but near 1 for a
small S, so each step is kept only while its slope is negative, it halves
||grad|| and it passes the line search's acceptance test; the first that
fails costs one objective evaluation, and the solve goes on from where it
is by damped Newton. The start and the fixed steps only shorten the solve,
which runs to the same gradient tolerance; solver_iters counts steps of
both kinds.

A solution x_hat lives in d-space; estimate_f lifts it to parameter space by
the cache's own P, as theta* + P x_hat.
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
from .model import Network, ParamVector, _sigmoid
from .taskgen import Split
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
    """(objective value, gradient, margins z = b - G x) at x. The arithmetic
    of mean(logaddexp(0, z)) + lam / 2 x.x and -(G^T sigmoid(z)) / n + lam x,
    in their order, with z and the gradient formed in place."""
    n = len(b)
    z = G @ x
    np.subtract(b, z, out=z)
    value = float(np.logaddexp(0.0, z).sum() / n + 0.5 * lam * (x @ x))
    grad = G.T @ _sigmoid(z)
    np.negative(grad, out=grad)
    grad /= n
    grad += lam * x
    return value, grad, z


def _hessian(G, z, lam):
    """G^T diag(w) G / n + lam I, w = sigmoid(z) (1 - sigmoid(z)): the Hessian
    at margins z, one symmetric product (syrk) of rows scaled by sqrt(w / n)."""
    s = _sigmoid(z)
    Gs = G * np.sqrt(s * (1.0 - s) / len(z))[:, None]
    H = Gs.T @ Gs
    H.flat[:: H.shape[0] + 1] += lam
    return H


def _accepts(value, slope, step, cand_value, cand_slope):
    """Whether a candidate at step * direction from x (objective value, slope
    grad . direction < 0 at x) decreases the objective enough: Armijo, or
    near the minimizer, where the decrease sinks below the rounding of value,
    the approximate Armijo test of Hager & Zhang (2005), which decides from
    the exact directional derivative cand_slope at the candidate instead."""
    if cand_value <= value + 1e-4 * step * slope:
        return True
    return cand_value <= value + 1e-10 * abs(value) and cand_slope <= (2e-4 - 1.0) * slope


def _newton(b, G, lam, cfg, x0, H_inv=None):
    """Minimize the objective over rows (b, G) from x0 to cfg.grad_tol.
    Given H_inv, the solve first takes full fixed steps -H_inv grad, each
    kept only while its slope is negative, it halves ||grad|| and _accepts
    it; after the first that fails it drops H_inv and goes on from where it
    is by damped Newton. Returns (x, steps of both kinds, stop)."""
    x = x0.copy()
    value, grad, z = _value_grad(b, G, x, lam)
    grad_norm = math.sqrt(grad @ grad)
    for it in range(1, cfg.max_iters + 1):
        if grad_norm <= cfg.grad_tol:
            return x, it - 1, Stop.CONVERGED
        if H_inv is not None:
            direction = -(H_inv @ grad)
            slope = grad @ direction
            if slope < 0:  # False for a NaN slope too
                cand = x + direction
                cand_value, cand_grad, cand_z = _value_grad(b, G, cand, lam)
                cand_norm = math.sqrt(cand_grad @ cand_grad)
                if cand_norm <= 0.5 * grad_norm and _accepts(value, slope, 1.0, cand_value, cand_grad @ direction):
                    x, value, grad, z, grad_norm = cand, cand_value, cand_grad, cand_z, cand_norm
                    continue
            H_inv = None
        try:
            direction = np.linalg.solve(_hessian(G, z, lam), -grad)
        except np.linalg.LinAlgError:
            direction = -grad
        slope = grad @ direction
        if slope >= 0:
            direction = -grad
            slope = grad @ direction
        step = 1.0
        for _ in range(60):
            cand = x + step * direction
            cand_value, cand_grad, cand_z = _value_grad(b, G, cand, lam)
            if _accepts(value, slope, step, cand_value, cand_grad @ direction):
                break
            step *= 0.5
        else:
            # no step decreases the objective: stay at x rather than take an
            # uphill candidate
            return x, it, Stop.LINESEARCH
        x, value, grad, z = cand, cand_value, cand_grad, cand_z
        grad_norm = math.sqrt(grad @ grad)
    return x, cfg.max_iters, Stop.CONVERGED if grad_norm <= cfg.grad_tol else Stop.MAX_ITERS


def solve_subset(
    cache: GradientCache,
    subset,
    cfg: SolveConfig,
    x0: np.ndarray | None = None,
    H_inv: np.ndarray | None = None,
    mask: np.ndarray | None = None,
) -> tuple[np.ndarray, int, Stop]:
    """Minimize the objective over the rows of the subset's tasks and the
    target's train rows, from x0 (default 0): by fixed steps -H_inv grad
    while they pay, given H_inv, then by damped Newton (_newton). Returns
    (x_hat, steps, stop); a solve that stops short of the gradient tolerance
    is reported by its Stop, not raised. mask is the subset's
    cache.task_mask, built here when not given."""
    idx = cache.rows_for(cache.task_mask(subset) if mask is None else mask)
    if idx.size == 0:
        raise ValueError(f"no cached samples for subset {sorted(subset)}")
    start = np.zeros(cache.d) if x0 is None else np.asarray(x0, dtype=np.float64)
    return _newton(cache.b[idx], cache.g_proj[idx], cfg.ridge_lambda, cfg, start, H_inv)


def _all_tasks_start(cache: GradientCache, cfg: SolveConfig) -> tuple:
    """(row counts, gradient sums s_t, x_all, H_all^-1) over the cache's
    train rows, the first two indexed by task id, computed once per cfg and
    memoized on the cache."""
    memo = cache.starts.get(cfg)
    if memo is None:
        train = cache.task_id != TARGET_VAL_ID
        b, G, lam = cache.b[train], cache.g_proj[train], cfg.ridge_lambda
        x_all, _, _ = _newton(b, G, lam, cfg, np.zeros(cache.d))
        z = b - G @ x_all
        tid = cache.task_id[train]
        counts = np.bincount(tid)
        sums = np.zeros((len(counts), cache.d))
        np.add.at(sums, tid, G * _sigmoid(z)[:, None])
        memo = cache.starts[cfg] = (counts, sums, x_all, np.linalg.inv(_hessian(G, z, lam)))
    return memo


def _subset_start(cache: GradientCache, mask: np.ndarray, cfg: SolveConfig) -> tuple[np.ndarray | None, np.ndarray]:
    """(x0, H_all^-1) for the subset whose cache.task_mask is mask: x0 one
    Newton step from x_all toward the subset's optimum, with the all-rows
    Hessian (module docstring), or None when the subset has no rows, which
    solve_subset then reports."""
    counts, sums, x_all, H_inv = _all_tasks_start(cache, cfg)
    mine = mask[: len(counts)]
    n = counts[mine].sum()
    if n == 0:
        return None, H_inv
    grad = cfg.ridge_lambda * x_all - sums[mine].sum(axis=0) / n
    return x_all - H_inv @ grad, H_inv


def estimate_f(
    net: Network,
    theta_star: ParamVector,
    cache: GradientCache,
    x_hat_d: np.ndarray,
    target_val: Split,
) -> float:
    """Reconstruct theta* + P x_hat with the cache's P and evaluate the true
    forward-pass loss on the target validation set."""
    theta_hat = theta_star + cache.P @ x_hat_d
    return eval_loss(net, theta_hat, *target_val)


def estimate_f_linearized(cache: GradientCache, x_hat_d: np.ndarray) -> float:
    """Cheap surrogate: mean linearized loss over the cached target-val rows."""
    val = cache.task_id == TARGET_VAL_ID
    if not val.any():
        raise ValueError("cache has no target validation rows")
    z = cache.b[val] - cache.g_proj[val] @ np.asarray(x_hat_d, dtype=np.float64)
    return float(np.mean(np.logaddexp(0.0, z)))


def estimate_subset(
    net: Network,
    theta_star: ParamVector,
    cache: GradientCache,
    subset,
    target_val: Split | None,
    cfg: SolveConfig,
    linearized: bool = False,
) -> EstimateResult:
    """Solve one subset (with the target's train rows) and score it: by
    estimate_f on target_val, or with linearized by estimate_f_linearized on
    the cache's target-val rows (target_val is then unused). Every estimator
    score in the program, the selection drivers' included, comes from here,
    and every solve starts from the shared start (module docstring)."""
    mask = cache.task_mask(subset)
    x_hat, iters, stop = solve_subset(cache, subset, cfg, *_subset_start(cache, mask, cfg), mask)
    if linearized:
        f_hat = estimate_f_linearized(cache, x_hat)
    else:
        f_hat = estimate_f(net, theta_star, cache, x_hat, target_val)
    return EstimateResult(
        subset=frozenset(int(t) for t in subset),
        f_hat=f_hat,
        solver_iters=iters,
        stop=stop,
    )


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
