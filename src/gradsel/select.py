"""Subset-selection drivers: greedy forward selection (FS), and random
ensembles (RE) with per-task relevance scores thresholded by grid
cross-validation.

Every driver runs against an Evaluator, which wraps either the gradient-based
estimator or the true fine-tuning oracle behind the same scoring call, so the
selection logic depends only on the returned scores. Data selection is no
third driver: group_cache relabels the cached source rows by gradient
cluster, and FS or RE then select groups of samples as they select tasks.
A report is saved as a selection artifact (see artifact.py).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

from . import artifact
from . import estimate as est
from .linearize import GradientCache
from .model import Network, ParamVector
from .taskgen import TARGET_TASK_ID, Corpus, cluster_into_groups
from .trainer import TrainConfig, eval_loss, fine_tune_subset, side_by_side


# The budget table's counters, in the order selection.txt lists them.
# task_units sums |S| over calls (the per-task training cost convention
# behind the closed-form pass counts); forward_passes and fine_tune_runs are
# the oracle's trainer-reported sample forward passes and fine-tunes;
# nonconverged counts estimator solves that ran out of iterations short of
# the gradient tolerance, linesearch_failures those whose line search found
# no decrease, and nonfinite counts scores that came out NaN or infinite.
BUDGET_KEYS = (
    "calls", "task_units", "forward_passes", "fine_tune_runs", "nonconverged", "linesearch_failures", "nonfinite",
)
_UNCONVERGED = {est.Stop.MAX_ITERS: "nonconverged", est.Stop.LINESEARCH: "linesearch_failures"}


def estimator_block(n: int) -> int:
    """Subsets per estimator job in a batch of n distinct subsets,
    max(10, ceil(n / 4)): at most four blocks, and none under 10 subsets
    unless the batch is. Evaluator.many and bench's relerr hand
    side_by_side blocks of this many, formed in batch order, so a score's
    bits (which depend on its block, as a gemm's do on its width) never
    depend on the CPU count. Larger blocks are faster per subset: on the
    default run's 977 distinct RE subsets, one CPU, best of 5, blocks of 64
    took 0.31 s, 128 0.29 s, 245 (four blocks) 0.24 s and 977 0.24 s. Four
    blocks still feed up to four CPUs, and an FS round of 11 to 20
    candidates is two blocks, which fork: most FS subsets end by damped
    Newton, whose steps a fork splits (the default FS on 2 CPUs, median of
    15: 0.096 s, against 0.099 s with one block a round)."""
    return max(10, math.ceil(n / 4))


def scored_in_blocks(
    items: list, score: Callable[[list], list], size: Callable[[int], int] = estimator_block
) -> list:
    """score(items), computed block by block: score is called on blocks of
    size(len(items)) items in order, side by side (trainer.side_by_side),
    and what it returns for each block is joined in order. The blocks depend
    on the order alone, never on the CPU count; the first failing block
    raises."""
    n = size(len(items))
    blocks = [items[lo : lo + n] for lo in range(0, len(items), n)]
    return [r for block in side_by_side(len(blocks), lambda i: score(blocks[i])) for r in block]


def _one(n: int) -> int:
    """One subset per job, whatever the batch: the oracle's fine-tunes."""
    return 1


@dataclass
class Evaluator:
    """A scoring function over task subsets and its budget table.

    _score(subsets) returns each subset's (score, budget), budget holding
    the work its score took under the table's keys; many hands it blocks of
    block(n) of a batch's n distinct subsets and counts calls, task_units
    and nonfinite. The blocks are scored side by side (scored_in_blocks),
    each but the caller's share in a forked process, so a scorer's side
    effects never reach the caller."""

    _score: Callable[[list[frozenset[int]]], list[tuple[float, dict[str, int]]]]
    block: Callable[[int], int] = _one
    budget: dict[str, int] = field(default_factory=lambda: dict.fromkeys(BUDGET_KEYS, 0))

    def __call__(self, subset) -> float:
        return self.many([subset])[0]

    def many(self, subsets) -> list[float]:
        """The subsets' scores, in order. Each distinct subset is scored
        once, in a block of the distinct subsets in order of first
        appearance; a repeat gets its score and its budget again, so the
        budget table adds up one call per subset, in order. A failing scorer
        raises the first failing subset's error and leaves the table as it
        was."""
        sets = [frozenset(int(t) for t in s) for s in subsets]
        distinct = list(dict.fromkeys(sets))
        scored = dict(zip(distinct, scored_in_blocks(distinct, self._score, self.block)))
        for s in sets:
            value, budget = scored[s]
            self.budget["calls"] += 1
            self.budget["task_units"] += len(s)
            for key, n in budget.items():
                self.budget[key] += n
            self.budget["nonfinite"] += not math.isfinite(value)
        return [scored[s][0] for s in sets]


def estimator_evaluator(
    net: Network,
    theta_star: ParamVector,
    cache: GradientCache,
    target_val,
    cfg: est.SolveConfig,
    linearized: bool = False,
) -> Evaluator:
    """Score subsets by est.estimate_subsets, in blocks of estimator_block;
    no fine-tuning runs. The Problem every solve reads is built here, once
    (est.prepare), so the processes that score a batch inherit it."""
    problem = est.prepare(cache, cfg)

    def score(subsets: list[frozenset[int]]) -> list[tuple[float, dict[str, int]]]:
        results = est.estimate_subsets(net, theta_star, problem, subsets, target_val, linearized)
        return [(r.f_hat, {} if r.stop else {_UNCONVERGED[r.stop]: 1}) for r in results]

    return Evaluator(score, estimator_block)


def oracle_evaluator(
    net: Network, theta0: ParamVector, corpus: Corpus, cfg: TrainConfig
) -> Evaluator:
    """Score subsets by actually fine-tuning from theta0, one subset per
    job."""

    def score(subsets: list[frozenset[int]]) -> list[tuple[float, dict[str, int]]]:
        (subset,) = subsets
        fit = fine_tune_subset(net, theta0, subset, corpus, cfg)
        budget = {"fine_tune_runs": 1, "forward_passes": fit.forward_passes}
        return [(eval_loss(net, fit.params, *corpus.target.val), budget)]

    return Evaluator(score)


@dataclass
class SelectionReport:
    method: str
    chosen: set[int]
    trajectory: list[tuple[frozenset[int], float]]
    t_scores: np.ndarray | None
    budget: dict[str, int]
    rounds_run: int = 0


def forward_select(evaluator: Evaluator, n: int) -> SelectionReport:
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
    for _ in range(n):
        candidates = [t for t in range(1, n + 1) if t not in current]
        rounds += 1
        subsets = [current | {t} for t in candidates]
        scores = evaluator.many(subsets)
        trajectory += zip(subsets, scores)
        scored = [(score, t) for score, t in zip(scores, candidates) if math.isfinite(score)]
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
        budget=dict(evaluator.budget),
        rounds_run=rounds,
    )


def random_ensemble(
    evaluator: Evaluator, n: int, m: int, alpha_frac: float, seed: int
) -> list[tuple[frozenset[int], float]]:
    """Score m random subsets of size round(alpha_frac * n), sampled without
    replacement within each subset. Deterministic given seed."""
    if not 0.0 < alpha_frac <= 1.0:
        raise ValueError("alpha_frac must be in (0, 1]")
    if m < 1:
        raise ValueError("m must be >= 1")
    subsets = random_subsets(n, max(1, int(round(alpha_frac * n))), m, seed)
    return list(zip(subsets, evaluator.many(subsets)))


def random_subsets(n: int, size: int, m: int, seed: int) -> list[frozenset[int]]:
    """m subsets of size distinct task ids in 1..n, drawn in order from one
    generator seeded with seed."""
    rng = np.random.default_rng(seed)
    return [frozenset(int(t) + 1 for t in rng.choice(n, size=size, replace=False)) for _ in range(m)]


def compute_T(scores: list[tuple[frozenset[int], float]], n: int) -> np.ndarray:
    """Per-task mean score over the subsets covering it. T[i-1] is task i.

    Non-finite scores (which the evaluator counts as nonfinite) are left out;
    raises ValueError if some task has no finite-scored subset."""
    sums = np.zeros(n)
    counts = np.zeros(n, dtype=np.int64)
    for subset, value in scores:
        if not math.isfinite(value):
            continue
        for t in subset:
            sums[t - 1] += value
            counts[t - 1] += 1
    if np.any(counts == 0):
        missing = int(np.flatnonzero(counts == 0)[0]) + 1
        raise ValueError(f"task {missing} is not covered by any finite-scored subset")
    return sums / counts


def threshold_select(T: np.ndarray, fraction: float) -> set[int]:
    """Pick the bottom ceil(fraction * n) tasks by (score, id)."""
    T = np.asarray(T, dtype=np.float64)
    if not np.all(np.isfinite(T)):
        raise ValueError("T scores must be finite")
    if not 0.0 < fraction <= 1.0:
        raise ValueError("fraction must be in (0, 1]")
    k = int(np.ceil(fraction * len(T)))
    order = sorted(range(len(T)), key=lambda i: (T[i], i))
    return {i + 1 for i in order[:k]}


def fraction_grid_select(T: np.ndarray, evaluator: Evaluator, grid: tuple[float, ...]) -> set[int]:
    """Threshold cross-validation: score the selected set at each grid
    fraction and keep the set that evaluates best (the first fraction's on
    ties). Fractions that select the same set share one score. Non-finite
    scores are skipped; raises ValueError if no grid fraction scores
    finite."""
    best = None
    for chosen in dict.fromkeys(frozenset(threshold_select(T, fraction=q)) for q in grid):
        value = evaluator(chosen)
        if math.isfinite(value) and (best is None or value < best[0]):
            best = (value, chosen)
    if best is None:
        raise ValueError("no grid fraction has a finite score")
    return set(best[1])


def ensemble_select(
    evaluator: Evaluator,
    n: int,
    grid: tuple[float, ...],
    m: int,
    alpha_frac: float,
    seed: int,
) -> SelectionReport:
    """Random-ensemble selection: score subsets, build T, then threshold by
    grid cross-validation."""
    if not grid:
        raise ValueError("the fraction grid is empty")
    if not all(0.0 < q <= 1.0 for q in grid):  # before any subset is scored
        raise ValueError("fraction must be in (0, 1]")
    scores = random_ensemble(evaluator, n, m=m, alpha_frac=alpha_frac, seed=seed)
    T = compute_T(scores, n)
    return SelectionReport(
        method="re",
        chosen=fraction_grid_select(T, evaluator, grid),
        trajectory=scores,
        t_scores=T,
        budget=dict(evaluator.budget),
        rounds_run=m,
    )


def group_cache(cache: GradientCache, n_groups: int, seed: int) -> GradientCache:
    """The cache with each source row relabeled 1..n_groups by its k-means
    cluster of projected gradients; target rows keep their ids."""
    source = cache.task_id > TARGET_TASK_ID
    task_id = cache.task_id.copy()
    task_id[source] = cluster_into_groups(cache.g_proj[source], n_groups, seed) + 1
    return replace(cache, task_id=task_id)


# ---------------------------------------------------------------------------
# Selection artifact: one report line per fact under the container header
# ---------------------------------------------------------------------------


def save_report(path, report: SelectionReport, digests: dict[str, str] | None = None) -> None:
    lines = [f"method {report.method}"]
    lines.append("chosen " + " ".join(str(t) for t in sorted(report.chosen)))
    lines.append(f"rounds {report.rounds_run}")
    for subset, score in report.trajectory:
        ids = ",".join(str(t) for t in sorted(subset)) or "-"
        lines.append(f"eval {ids} {score:.12g}")
    if report.t_scores is not None:
        for i, v in enumerate(report.t_scores):
            lines.append(f"T {i + 1} {v:.12g}")
    for key, value in report.budget.items():
        lines.append(f"budget {key} {value}")
    for key, value in (digests or {}).items():
        lines.append(f"digest {key} {value}")
    artifact.write(path, "selection", 1, {}, ("\n".join(lines) + "\n").encode())


_REPORT_KINDS = ("method", "chosen", "rounds", "eval", "T", "budget", "digest")


def load_report(path) -> SelectionReport:
    """Read a selection artifact; raises ValueError naming the file when it
    is not a selection container, a line is malformed or a line is of
    unknown kind."""
    _, body = artifact.read(path, "selection", 1, {})
    method = ""
    chosen: set[int] = set()
    rounds = 0
    trajectory = []
    t_pairs = []
    budget: dict[str, int] = {}
    for lineno, line in enumerate(body.decode().splitlines(), 2):
        parts = line.split()
        if not parts:
            continue
        if parts[0] not in _REPORT_KINDS:
            raise ValueError(f"{path}: line {lineno}: unknown line kind {parts[0]!r}")
        try:
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
                task = int(parts[1])
                if task < 1:
                    raise ValueError("task ids start at 1")
                t_pairs.append((task, float(parts[2])))
            elif parts[0] == "budget":
                budget[parts[1]] = int(parts[2])
            elif parts[0] == "digest" and len(parts) != 3:  # digest <artifact> <sha256>
                raise ValueError
        except (IndexError, ValueError):
            raise ValueError(f"{path}: line {lineno}: malformed {parts[0]!r} line") from None
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
