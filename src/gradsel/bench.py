"""Metrics, cost accounting, similarity baselines, and canned experiments.

Costs are counted in forward-pass units: one unit is the average cost of
training on one task, matching the closed-form counts used to compare
selection methods. The experiments score the pipeline pieces they are given
into reproducible reports keyed by corpus digest and seeds.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import estimate as est
from . import select as sel
from .linearize import GradientCache, rrss_sweep
from .model import Network, ParamVector
from .taskgen import Corpus
from .trainer import TrainConfig, eval_loss, fine_tune_each, relative_distance


@dataclass
class ExperimentReport:
    name: str
    scalars: dict[str, float]
    tables: dict[str, list[dict]]
    seeds: dict[str, int]
    corpus_digest: str


def relative_error(f_true: list[float], f_hat: list[float]) -> float:
    """mean over subsets of (f - f_hat)^2 / f^2."""
    f_true = np.asarray(f_true, dtype=np.float64)
    f_hat = np.asarray(f_hat, dtype=np.float64)
    if f_true.shape != f_hat.shape or f_true.size == 0:
        raise ValueError("need equal-length nonempty score lists")
    if np.any(f_true == 0):
        raise ValueError("true values must be nonzero")
    return float(np.mean((f_true - f_hat) ** 2 / f_true**2))


def error_figures(f_true: list[float], f_hat: list[float]) -> dict[str, float]:
    """The estimator's error over subsets, by name: relative_error (above);
    mean_abs_relative_error, mean |f - f_hat| / |f|; mean_signed_relative_error,
    mean (f - f_hat) / f, positive where the estimates sit below the true
    losses; spearman_rho, the rank correlation of f and f_hat, tied values
    taking their average rank (NaN where either list is constant)."""
    err = relative_error(f_true, f_hat)
    f_true = np.asarray(f_true, dtype=np.float64)
    rel = (f_true - np.asarray(f_hat, dtype=np.float64)) / f_true
    rx, ry = (r - r.mean() for r in (_average_ranks(f_true), _average_ranks(f_hat)))
    scale = np.sqrt((rx @ rx) * (ry @ ry))
    return {
        "relative_error": err,
        "mean_abs_relative_error": float(np.mean(np.abs(rel))),
        "mean_signed_relative_error": float(np.mean(rel)),
        "spearman_rho": float(rx @ ry / scale) if scale > 0 else float("nan"),
    }


def _average_ranks(values) -> np.ndarray:
    """1-based ranks of values, each group of equal values at its average rank."""
    _, group, counts = np.unique(np.asarray(values, dtype=np.float64), return_inverse=True, return_counts=True)
    return (np.cumsum(counts) - (counts - 1) / 2.0)[group]


def predicted_forward_passes(method: str, n: int, depth: int | None = None) -> int:
    """Closed-form forward-pass counts of the selection routes bench reports.

    fs: sum_{i=1..n} (n-i+1) i = n(n+1)(n+2)/6, or the partial sum when
    truncated at depth. estimated_fs: 3n.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if method == "fs":
        k = n if depth is None else min(depth, n)
        return sum((n - i + 1) * i for i in range(1, k + 1))
    if method == "estimated_fs":
        return 3 * n
    raise ValueError(f"unknown method {method!r}")


def separation_auroc(T: np.ndarray, clean_mask: np.ndarray) -> float:
    """AUROC of -T as a classifier for the clean group (lower score = clean).

    Rank-based with the ties-at-half convention.
    """
    T = np.asarray(T, dtype=np.float64)
    clean_mask = np.asarray(clean_mask, dtype=bool)
    if clean_mask.all() or not clean_mask.any():
        raise ValueError("need both clean and noisy entries")
    clean = T[clean_mask]
    noisy = T[~clean_mask]
    # P(clean scores below noisy), ties counted half
    wins = 0.0
    for c in clean:
        wins += np.sum(c < noisy) + 0.5 * np.sum(c == noisy)
    return float(wins / (len(clean) * len(noisy)))


def baseline_gradient_cosine(cache: GradientCache, i: int, j: int) -> float:
    """Cosine similarity of the task-mean projected gradients of tasks i, j."""
    gi = cache.g_proj[cache.task_id == i].mean(axis=0)
    gj = cache.g_proj[cache.task_id == j].mean(axis=0)
    ni, nj = np.linalg.norm(gi), np.linalg.norm(gj)
    if ni == 0 or nj == 0:
        raise ValueError("zero task-mean gradient")
    return float(gi @ gj / (ni * nj))


def baseline_feature_similarity(
    net: Network, theta_star: ParamVector, corpus: Corpus, i: int, j: int
) -> float:
    """Cosine similarity of task-mean penultimate-layer activations."""

    fi, fj = (net.penultimate(theta_star, corpus.task(t).train[0]).mean(axis=0) for t in (i, j))
    ni, nj = np.linalg.norm(fi), np.linalg.norm(fj)
    if ni == 0 or nj == 0:
        raise ValueError("zero task-mean activation")
    return float(fi @ fj / (ni * nj))


# ---------------------------------------------------------------------------
# Canned experiments
# ---------------------------------------------------------------------------


def exp_rrss(
    net: Network,
    theta_star: ParamVector,
    corpus: Corpus,
    distances: list[float],
    n_directions: int,
    seed: int,
) -> ExperimentReport:
    """Linearization quality: mean RRSS per relative distance, along random
    directions."""
    rows = rrss_sweep(net, theta_star, *corpus.target.val, distances, n_directions, seed)
    return ExperimentReport(
        name="rrss",
        scalars={"max_mean_rrss": max(r["mean_rrss"] for r in rows)},
        tables={"rrss": rows},
        seeds={"directions": seed},
        corpus_digest=corpus.digest(),
    )


def exp_relerr(
    net: Network,
    theta_star: ParamVector,
    cache: GradientCache,
    corpus: Corpus,
    train_cfg: TrainConfig,
    solve_cfg: est.SolveConfig,
    m: int,
    seed: int,
) -> ExperimentReport:
    """Estimator fidelity against the oracle over m random subsets of half
    the tasks (one estimator solve each, in blocks side by side as select
    scores them), plus the oracle's measured forward passes."""
    if m < 1:
        raise ValueError("need at least one subset")
    n = corpus.n_tasks
    size = max(1, round(n / 2))
    subsets = sel.random_subsets(n, size, m, seed)
    oracle = fine_tune_each(
        net,
        theta_star,
        subsets,
        corpus,
        train_cfg,
        lambda fit: (
            eval_loss(net, fit.params, *corpus.target.val),
            fit.forward_passes,
            relative_distance(fit.params, theta_star),
        ),
    )
    problem = est.prepare(cache, solve_cfg)
    estimates = sel.scored_in_blocks(
        subsets, lambda block: est.estimate_subsets(net, theta_star, problem, block, corpus.target.val)
    )
    oracle_passes = 0
    rows = []
    f_true, f_hat = [], []
    for subset, (truth, passes, distance), result in zip(subsets, oracle, estimates):
        oracle_passes += passes
        f_true.append(truth)
        f_hat.append(result.f_hat)
        rows.append(
            {
                "subset": ";".join(str(t) for t in sorted(subset)),
                "f_true": truth,
                "f_hat": result.f_hat,
                "solver_iters": result.solver_iters,
                "rel_distance": distance,
            }
        )
    return ExperimentReport(
        name="relerr",
        scalars={
            **error_figures(f_true, f_hat),
            "m": m,
            "oracle_forward_passes": oracle_passes,
            "solves": m,
            "max_rel_distance": max(r["rel_distance"] for r in rows),
        },
        tables={"subsets": rows},
        seeds={"subsets": seed},
        corpus_digest=corpus.digest(),
    )


def exp_speedup(
    net: Network,
    theta_star: ParamVector,
    cache: GradientCache,
    corpus: Corpus,
    train_cfg: TrainConfig,
    solve_cfg: est.SolveConfig,
) -> ExperimentReport:
    """Predicted vs measured selection costs: oracle forward selection in
    task units against the closed-form count, and the formula-level speedup."""
    n = corpus.n_tasks
    oracle = sel.oracle_evaluator(net, theta_star, corpus, train_cfg)
    oracle_report = sel.forward_select(oracle, n)
    depth = oracle_report.rounds_run
    predicted = predicted_forward_passes("fs", n, depth=depth)

    estimator_ev = sel.estimator_evaluator(net, theta_star, cache, corpus.target.val, solve_cfg)
    estimator_report = sel.forward_select(estimator_ev, n)

    full_fs = predicted_forward_passes("fs", n)
    estimated_total = predicted_forward_passes("estimated_fs", n)
    return ExperimentReport(
        name="speedup",
        scalars={
            "n": n,
            "oracle_task_units": oracle_report.budget["task_units"],
            "predicted_task_units": predicted,
            "depth": depth,
            "estimator_fine_tune_runs": estimator_report.budget["fine_tune_runs"],
            "formula_full_fs": full_fs,
            "formula_estimated_fs": estimated_total,
            "formula_speedup": full_fs / estimated_total,
        },
        tables={},
        seeds={},
        corpus_digest=corpus.digest(),
    )


def exp_addition(
    net: Network,
    theta_star: ParamVector,
    cache: GradientCache,
    corpus: Corpus,
    solve_cfg: est.SolveConfig,
    m: int,
    alpha_frac: float,
    seed: int,
) -> ExperimentReport:
    """Noisy-addition separation: per-group relevance scores vs the gradient
    cosine and feature similarity baselines, summarized by AUROC.

    Scores come from the linearized evaluator, which reads the first-order
    damage on the cached target-val rows directly and separates more cleanly at
    this scale than a forward pass at the lifted parameters. seed draws the
    random subsets; the report's corpus and projector seeds are the corpus's
    and the cache's.
    """
    n_groups = corpus.n_tasks
    ids = range(1, n_groups + 1)
    evaluator = sel.estimator_evaluator(
        net, theta_star, cache, corpus.target.val, solve_cfg, linearized=True
    )
    scores = sel.random_ensemble(evaluator, n_groups, m=m, alpha_frac=alpha_frac, seed=seed)
    T = sel.compute_T(scores, n_groups)

    clean_mask = np.isin(ids, corpus.meta["clean_ids"])
    grad_cos = np.array([baseline_gradient_cosine(cache, tid, 0) for tid in ids])
    feat_sim = np.array([baseline_feature_similarity(net, theta_star, corpus, tid, 0) for tid in ids])

    auroc_T = separation_auroc(T, clean_mask)
    # baselines score similarity (higher = cleaner), so negate to reuse the
    # lower-is-clean convention
    auroc_grad = separation_auroc(-grad_cos, clean_mask)
    auroc_feat = separation_auroc(-feat_sim, clean_mask)

    rows = [
        {
            "task": tid,
            "clean": bool(clean_mask[tid - 1]),
            "T": float(T[tid - 1]),
            "gradient_cosine": float(grad_cos[tid - 1]),
            "feature_similarity": float(feat_sim[tid - 1]),
        }
        for tid in ids
    ]
    return ExperimentReport(
        name="addition",
        scalars={
            "auroc_T": auroc_T,
            "auroc_gradient_cosine": auroc_grad,
            "auroc_feature_similarity": auroc_feat,
            "n_groups": n_groups,
            "n_clean": corpus.meta["n_clean"],
        },
        tables={"groups": rows},
        seeds={"corpus": corpus.meta["seed"], "projector": cache.projector_seed, "subsets": seed},
        corpus_digest=corpus.digest(),
    )


# ---------------------------------------------------------------------------
# Report emission
# ---------------------------------------------------------------------------


def report_to_csv_lines(report: ExperimentReport) -> dict[str, list[str]]:
    """One CSV per table plus a scalar table, as lists of lines."""
    out: dict[str, list[str]] = {}
    scalar_lines = ["name,value"]
    for k in sorted(report.scalars):
        scalar_lines.append(f"{k},{report.scalars[k]:.12g}")
    out[f"{report.name}_scalars"] = scalar_lines
    for tname, rows in report.tables.items():
        if not rows:
            continue
        cols = list(rows[0].keys())
        lines = [",".join(cols)]
        for row in rows:
            lines.append(",".join(_cell(row[c]) for c in cols))
        out[f"{report.name}_{tname}"] = lines
    return out


def _cell(v) -> str:
    if isinstance(v, float):
        return f"{v:.12g}"
    return str(v)


def summarize(reports: list[ExperimentReport]) -> str:
    lines = []
    for r in reports:
        lines.append(f"[{r.name}] corpus={r.corpus_digest[:12]} seeds={r.seeds}")
        for k in sorted(r.scalars):
            lines.append(f"  {k} = {r.scalars[k]:.6g}")
    return "\n".join(lines) + "\n"
