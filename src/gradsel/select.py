"""Subset-selection drivers: greedy forward selection, random ensembles with
per-task relevance scores, and the clustering-first data-selection variant.

Every driver runs against an Evaluator, which wraps either the gradient-based
estimator or the true fine-tuning oracle behind the same scoring call, so the
selection logic depends only on the returned scores.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import estimate as est
from .linearize import GradientCache
from .model import Network, ParamVector
from .project import Projector
from .taskgen import Corpus, cluster_into_groups
from .trainer import TrainConfig, eval_loss, fine_tune_subset


@dataclass
class Evaluator:
    """A scoring function over task subsets, with budget counters.

    kind 'estimator' never triggers fine-tuning; kind 'oracle' fine-tunes per
    call. task_units accumulates |S| per call (the per-task training cost
    convention behind the closed-form pass counts); forward_pass_count
    accumulates trainer-reported sample forward passes for the oracle.
    """

    kind: str
    _score: Callable[[frozenset[int]], float]
    call_count: int = 0
    task_units: int = 0
    forward_pass_count: int = 0
    fine_tune_runs: int = 0

    def __call__(self, subset) -> float:
        s = frozenset(int(t) for t in subset)
        self.call_count += 1
        self.task_units += len(s)
        return self._score(s)


def estimator_evaluator(
    net: Network,
    theta_star: ParamVector,
    projector: Projector,
    cache: GradientCache,
    target_val,
    cfg: est.SolveConfig,
    linearized: bool = False,
) -> Evaluator:
    """Score subsets with the cached-gradient estimator; no fine-tuning runs."""

    def score(subset: frozenset[int]) -> float:
        x_hat, _, _ = est.solve_subset(cache, subset, cfg)
        if linearized:
            return est.estimate_f_linearized(cache, x_hat)
        return est.estimate_f(net, theta_star, projector, x_hat, target_val)

    return Evaluator(kind="estimator", _score=score)


def oracle_evaluator(
    net: Network, theta0: ParamVector, corpus: Corpus, cfg: TrainConfig
) -> Evaluator:
    """Score subsets by actually fine-tuning from theta0."""

    ev: Evaluator

    def score(subset: frozenset[int]) -> float:
        fit = fine_tune_subset(net, theta0, subset, corpus, cfg)
        ev.fine_tune_runs += 1
        ev.forward_pass_count += fit.forward_passes
        return eval_loss(net, fit.params, corpus.target.val)

    ev = Evaluator(kind="oracle", _score=score)
    return ev


@dataclass
class SelectionReport:
    method: str
    chosen: set[int]
    trajectory: list[tuple[frozenset[int], float]]
    t_scores: np.ndarray | None
    budget: dict[str, int]
    rounds_run: int = 0


def _budget(ev: Evaluator) -> dict[str, int]:
    return {
        "calls": ev.call_count,
        "task_units": ev.task_units,
        "forward_passes": ev.forward_pass_count,
        "fine_tune_runs": ev.fine_tune_runs,
    }


def forward_select(evaluator: Evaluator, n: int, max_rounds: int | None = None) -> SelectionReport:
    """Greedy growth: each round scores every unselected task added to the
    current set, keeps the lowest-loss candidate if it improves, else stops.
    Ties break toward the smallest task id.

    Non-finite candidate scores (NaN, +inf, -inf) are recorded in the
    trajectory but never chosen and never stop growth: a round adds the best
    finite candidate if it improves. Raises ValueError if the empty set's
    score is not finite, since nothing could be compared against it."""
    if n < 1:
        raise ValueError("need at least one task")
    current: frozenset[int] = frozenset()
    trajectory: list[tuple[frozenset[int], float]] = []
    current_score = evaluator(current)
    trajectory.append((current, current_score))
    if not math.isfinite(current_score):
        raise ValueError(f"score of the empty set is not finite: {current_score}")
    rounds = 0
    limit = n if max_rounds is None else min(max_rounds, n)
    for _ in range(limit):
        candidates = [t for t in range(1, n + 1) if t not in current]
        if not candidates:
            break
        rounds += 1
        scored = []
        for t in candidates:
            subset = current | {t}
            score = evaluator(subset)
            trajectory.append((subset, score))
            if math.isfinite(score):
                scored.append((score, t))
        best_score, best_task = min(scored, default=(math.inf, None))
        if best_score < current_score:
            current = current | {best_task}
            current_score = best_score
        else:
            break
    return SelectionReport(
        method="fs",
        chosen=set(current),
        trajectory=trajectory,
        t_scores=None,
        budget=_budget(evaluator),
        rounds_run=rounds,
    )


def random_ensemble(
    evaluator: Evaluator,
    n: int,
    m: int = 1000,
    alpha_frac: float = 0.75,
    seed: int = 0,
) -> list[tuple[frozenset[int], float]]:
    """Score m random subsets of size round(alpha_frac * n), sampled without
    replacement within each subset. Deterministic given seed."""
    if not 0.0 < alpha_frac <= 1.0:
        raise ValueError("alpha_frac must be in (0, 1]")
    if m < 1:
        raise ValueError("m must be >= 1")
    size = max(1, int(round(alpha_frac * n)))
    rng = np.random.default_rng(seed)
    scores = []
    for _ in range(m):
        subset = frozenset(int(t) + 1 for t in rng.choice(n, size=size, replace=False))
        scores.append((subset, evaluator(subset)))
    return scores


def compute_T(scores: list[tuple[frozenset[int], float]], n: int) -> np.ndarray:
    """Per-task mean score over the subsets covering it. T[i-1] is task i."""
    sums = np.zeros(n)
    counts = np.zeros(n, dtype=np.int64)
    for subset, value in scores:
        for t in subset:
            sums[t - 1] += value
            counts[t - 1] += 1
    if np.any(counts == 0):
        missing = int(np.flatnonzero(counts == 0)[0]) + 1
        raise ValueError(f"task {missing} is not covered by any scored subset")
    return sums / counts


def threshold_select(
    T: np.ndarray, gamma: float | None = None, fraction: float | None = None
) -> set[int]:
    """Pick tasks by score: strict T_i < gamma, or the bottom ceil(q n) by
    (score, id) in fraction mode."""
    T = np.asarray(T, dtype=np.float64)
    if not np.all(np.isfinite(T)):
        raise ValueError("T scores must be finite")
    if (gamma is None) == (fraction is None):
        raise ValueError("pass exactly one of gamma or fraction")
    if gamma is not None:
        return {i + 1 for i in range(len(T)) if T[i] < gamma}
    if not 0.0 < fraction <= 1.0:
        raise ValueError("fraction must be in (0, 1]")
    k = int(np.ceil(fraction * len(T)))
    order = sorted(range(len(T)), key=lambda i: (T[i], i))
    return {i + 1 for i in order[:k]}


FRACTION_GRID = (0.05, 0.10, 0.15, 0.20)


def fraction_grid_select(
    T: np.ndarray, evaluator: Evaluator, grid: tuple[float, ...] = FRACTION_GRID
) -> tuple[set[int], float]:
    """Threshold cross-validation: score the selected set at each grid
    fraction and keep the fraction whose set evaluates best (the first one
    on ties). Non-finite scores are skipped; raises ValueError if no grid
    fraction scores finite."""
    best = None
    for q in grid:
        chosen = threshold_select(T, fraction=q)
        value = evaluator(frozenset(chosen))
        if math.isfinite(value) and (best is None or value < best[0]):
            best = (value, q, chosen)
    if best is None:
        raise ValueError("no grid fraction has a finite score")
    return best[2], best[1]


def ensemble_select(
    evaluator: Evaluator,
    n: int,
    m: int = 1000,
    alpha_frac: float = 0.75,
    seed: int = 0,
    fraction: float | None = None,
    grid: tuple[float, ...] = FRACTION_GRID,
) -> SelectionReport:
    """Random-ensemble selection: score subsets, build T, then threshold by a
    fixed fraction or by grid cross-validation."""
    scores = random_ensemble(evaluator, n, m=m, alpha_frac=alpha_frac, seed=seed)
    T = compute_T(scores, n)
    if fraction is not None:
        chosen = threshold_select(T, fraction=fraction)
    else:
        chosen, _ = fraction_grid_select(T, evaluator, grid=grid)
    return SelectionReport(
        method="re",
        chosen=chosen,
        trajectory=scores,
        t_scores=T,
        budget=_budget(evaluator),
        rounds_run=m,
    )


def select_ds(
    net: Network,
    theta_star: ParamVector,
    projector: Projector,
    cache: GradientCache,
    corpus: Corpus,
    n_groups: int,
    downstream: str,
    solve_cfg: est.SolveConfig,
    seed: int = 0,
    m: int = 1000,
    alpha_frac: float = 0.75,
    fraction: float | None = None,
    linearized: bool = False,
) -> SelectionReport:
    """Data selection: cluster cached source gradients into groups, relabel
    tasks by group, then run forward selection or random ensembles over the
    groups with the estimator."""
    if downstream not in ("fs", "re"):
        raise ValueError("downstream must be 'fs' or 're'")
    source_mask = cache.task_id != 0
    source_G = cache.g_proj[source_mask]
    sub = GradientCache(
        sample_ref=cache.sample_ref[source_mask],
        task_id=cache.task_id[source_mask],
        y=cache.y[source_mask],
        b=cache.b[source_mask],
        g_proj=source_G,
        val_y=cache.val_y,
        val_b=cache.val_b,
        val_g_proj=cache.val_g_proj,
        p=cache.p,
        d=cache.d,
        theta_star_digest=cache.theta_star_digest,
        projector_seed=cache.projector_seed,
        projector_mode=cache.projector_mode,
    )
    assignment = cluster_into_groups(sub, n_groups, seed)

    # relabel cached source entries by group; target entries keep id 0
    new_task_id = cache.task_id.copy()
    new_task_id[source_mask] = assignment.group_of + 1
    grouped_cache = GradientCache(
        sample_ref=cache.sample_ref,
        task_id=new_task_id,
        y=cache.y,
        b=cache.b,
        g_proj=cache.g_proj,
        val_y=cache.val_y,
        val_b=cache.val_b,
        val_g_proj=cache.val_g_proj,
        p=cache.p,
        d=cache.d,
        theta_star_digest=cache.theta_star_digest,
        projector_seed=cache.projector_seed,
        projector_mode=cache.projector_mode,
    )
    evaluator = estimator_evaluator(
        net, theta_star, projector, grouped_cache, corpus.target.val, solve_cfg,
        linearized=linearized,
    )
    if downstream == "fs":
        report = forward_select(evaluator, n_groups)
        report.method = "ds-fs"
    else:
        report = ensemble_select(
            evaluator, n_groups, m=m, alpha_frac=alpha_frac, seed=seed, fraction=fraction
        )
        report.method = "ds-re"
    return report


# ---------------------------------------------------------------------------
# Report serialization
# ---------------------------------------------------------------------------


def serialize_report(report: SelectionReport, digests: dict[str, str] | None = None) -> str:
    lines = ["gradsel-selection v1"]
    lines.append(f"method {report.method}")
    lines.append("chosen " + " ".join(str(t) for t in sorted(report.chosen)))
    lines.append(f"rounds {report.rounds_run}")
    for subset, score in report.trajectory:
        ids = ",".join(str(t) for t in sorted(subset)) or "-"
        lines.append(f"eval {ids} {score:.12g}")
    if report.t_scores is not None:
        for i, v in enumerate(report.t_scores):
            lines.append(f"T {i + 1} {v:.12g}")
    for key in ("calls", "task_units", "forward_passes", "fine_tune_runs"):
        lines.append(f"budget {key} {report.budget.get(key, 0)}")
    for key, value in (digests or {}).items():
        lines.append(f"digest {key} {value}")
    return "\n".join(lines) + "\n"


def save_report(path, report: SelectionReport, digests: dict[str, str] | None = None) -> None:
    with open(path, "w") as f:
        f.write(serialize_report(report, digests))


def load_report(path) -> SelectionReport:
    with open(path) as f:
        header = f.readline().strip()
        if header != "gradsel-selection v1":
            raise ValueError(f"{path}: not a selection report")
        method = ""
        chosen: set[int] = set()
        rounds = 0
        trajectory = []
        t_pairs = []
        budget: dict[str, int] = {}
        for line in f:
            parts = line.split()
            if not parts:
                continue
            if parts[0] == "method":
                method = parts[1]
            elif parts[0] == "chosen":
                chosen = {int(t) for t in parts[1:]}
            elif parts[0] == "rounds":
                rounds = int(parts[1])
            elif parts[0] == "eval":
                ids = frozenset() if parts[1] == "-" else frozenset(int(t) for t in parts[1].split(","))
                trajectory.append((ids, float(parts[2])))
            elif parts[0] == "T":
                t_pairs.append((int(parts[1]), float(parts[2])))
            elif parts[0] == "budget":
                budget[parts[1]] = int(parts[2])
    t_scores = None
    if t_pairs:
        t_scores = np.zeros(max(i for i, _ in t_pairs))
        for i, v in t_pairs:
            t_scores[i - 1] = v
    return SelectionReport(
        method=method,
        chosen=chosen,
        trajectory=trajectory,
        t_scores=t_scores,
        budget=budget,
        rounds_run=rounds,
    )
