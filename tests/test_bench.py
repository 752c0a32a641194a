import math

import numpy as np
import pytest

from gradsel.bench import (
    baseline_feature_similarity,
    baseline_gradient_cosine,
    error_figures,
    predicted_forward_passes,
    relative_error,
    report_to_csv_lines,
    separation_auroc,
    summarize,
)
from gradsel.linearize import GradientCache


def _fake_cache(g_proj, task_id):
    n, d = g_proj.shape
    return GradientCache(
        task_id=np.asarray(task_id, dtype=np.int64),
        b=np.zeros(n),
        g_proj=np.asarray(g_proj, dtype=np.float64),
        theta_star_digest="0" * 64,
        P=np.eye(d),
        projector_seed=None,
    )


# ---- relative error ----

def test_relative_error_zero_when_equal():
    assert relative_error([0.3, 0.7], [0.3, 0.7]) == 0.0


def test_relative_error_hand_example():
    assert relative_error([1.0, 2.0], [1.1, 1.8]) == pytest.approx(0.01, abs=1e-15)


def test_relative_error_validation():
    with pytest.raises(ValueError):
        relative_error([1.0, 0.0], [1.0, 1.0])
    with pytest.raises(ValueError):
        relative_error([1.0], [1.0, 2.0])
    with pytest.raises(ValueError):
        relative_error([], [])


def test_error_figures_hand_example():
    # relative errors (f - f_hat) / f = 0.1, -0.04, 0.1, 0.28; f ranks 1-4,
    # f_hat ranks 1, 2, 3.5, 3.5 (a tie), so rho = 4.5 / sqrt(5 * 4.5)
    f_true, f_hat = [0.2, 0.25, 0.4, 0.5], [0.18, 0.26, 0.36, 0.36]
    want = {
        "relative_error": (0.01 + 0.0016 + 0.01 + 0.0784) / 4,
        "mean_abs_relative_error": (0.1 + 0.04 + 0.1 + 0.28) / 4,
        "mean_signed_relative_error": (0.1 - 0.04 + 0.1 + 0.28) / 4,
        "spearman_rho": math.sqrt(0.9),
    }
    order = [2, 0, 3, 1]  # the subsets' order changes no figure
    for f, g in [(f_true, f_hat), ([f_true[i] for i in order], [f_hat[i] for i in order])]:
        got = error_figures(f, g)
        assert got.keys() == want.keys()
        for k in want:
            assert got[k] == pytest.approx(want[k], abs=1e-15), k
    assert error_figures(f_true, f_true[::-1])["spearman_rho"] == pytest.approx(-1.0, abs=1e-15)
    assert math.isnan(error_figures([0.3, 0.5], [0.2, 0.2])["spearman_rho"])
    with pytest.raises(ValueError):
        error_figures([1.0, 0.0], [1.0, 1.0])


# ---- forward pass counts ----

def test_fs_formula_n20():
    assert predicted_forward_passes("fs", 20) == 1540  # 20*21*22/6


def test_fs_truncated_matches_partial_sum():
    n = 9
    for depth in (1, 3, 7, 9, 12):
        expect = sum((n - i + 1) * i for i in range(1, min(depth, n) + 1))
        assert predicted_forward_passes("fs", n, depth=depth) == expect


def test_estimated_and_baseline_counts():
    assert predicted_forward_passes("estimated_fs", 20) == 60


def test_formula_speedup_ratio():
    full = predicted_forward_passes("fs", 20)
    fast = predicted_forward_passes("estimated_fs", 20)
    assert full / fast == pytest.approx(1540 / 60, abs=1e-12)
    assert full / fast == pytest.approx(25.666666666666668, abs=1e-9)


def test_re_formula_and_validation():
    with pytest.raises(ValueError):
        predicted_forward_passes("quadratic", 5)
    with pytest.raises(ValueError):
        predicted_forward_passes("fs", 0)


# ---- AUROC ----

def test_auroc_perfect_separation():
    T = np.array([0.1, 0.2, 0.9, 1.0])
    clean = np.array([True, True, False, False])
    assert separation_auroc(T, clean) == 1.0


def test_auroc_identical_scores_is_half():
    T = np.ones(6)
    clean = np.array([True, True, True, False, False, False])
    assert separation_auroc(T, clean) == 0.5


def test_auroc_matches_pairwise_oracle():
    rng = np.random.default_rng(0)
    for trial in range(5):
        T = rng.integers(0, 5, size=12).astype(float)  # ties likely
        clean = rng.random(12) < 0.5
        if clean.all() or not clean.any():
            continue
        fast = separation_auroc(T, clean)
        wins = total = 0.0
        for c in T[clean]:
            for x in T[~clean]:
                total += 1
                if c < x:
                    wins += 1
                elif c == x:
                    wins += 0.5
        assert fast == pytest.approx(wins / total, abs=1e-12)


def test_auroc_single_class_raises():
    with pytest.raises(ValueError):
        separation_auroc(np.ones(3), np.array([True, True, True]))


# ---- baselines ----

def test_gradient_cosine_self_is_one():
    rng = np.random.default_rng(1)
    G = rng.standard_normal((10, 4))
    cache = _fake_cache(G, [0] * 5 + [1] * 5)
    assert baseline_gradient_cosine(cache, 1, 1) == pytest.approx(1.0, abs=1e-12)


def test_gradient_cosine_opposite_tasks_negative():
    G = np.vstack([np.tile([1.0, 0.0, 0.0], (5, 1)), np.tile([-1.0, 0.1, 0.0], (5, 1))])
    cache = _fake_cache(G, [0] * 5 + [1] * 5)
    assert baseline_gradient_cosine(cache, 1, 0) < 0


def test_gradient_cosine_zero_mean_raises():
    G = np.vstack([np.ones((2, 3)), np.array([[1.0, 1, 1], [-1.0, -1, -1]])])
    cache = _fake_cache(G, [0, 0, 1, 1])
    with pytest.raises(ValueError):
        baseline_gradient_cosine(cache, 1, 0)


def test_feature_similarity_self_is_one(gauss_net, theta_star, gauss_corpus):
    v = baseline_feature_similarity(gauss_net, theta_star, gauss_corpus, 1, 1)
    assert v == pytest.approx(1.0, abs=1e-12)


def test_feature_similarity_range(gauss_net, theta_star, gauss_corpus):
    v = baseline_feature_similarity(gauss_net, theta_star, gauss_corpus, 1, 0)
    assert -1.0 <= v <= 1.0


def test_pairwise_cosine_vs_oracle_correlation_recorded(
    gauss_net, theta_star, gauss_corpus, cache
):
    # record how pairwise gradient cosine tracks the oracle f({i, j}); the
    # correlation is corpus-specific, so no particular strength is asserted
    from conftest import FINETUNE_CFG
    from gradsel.trainer import eval_loss, fine_tune_subset

    rng = np.random.default_rng(3)
    cosines, f_values = [], []
    for _ in range(8):
        i, j = (int(t) + 1 for t in rng.choice(20, size=2, replace=False))
        cosines.append(baseline_gradient_cosine(cache, i, j))
        fit = fine_tune_subset(gauss_net, theta_star, {i, j}, gauss_corpus, FINETUNE_CFG)
        f_values.append(eval_loss(gauss_net, fit.params, *gauss_corpus.target.val))
    corr = float(np.corrcoef(cosines, f_values)[0, 1])
    print(f"pairwise cosine vs oracle f({{i,j}}) correlation: {corr:+.3f}")
    assert -1.0 <= corr <= 1.0


def test_exp_rrss_deterministic(gauss_net, theta_star, gauss_corpus):
    from gradsel.bench import exp_rrss

    a = exp_rrss(gauss_net, theta_star, gauss_corpus, [0.001, 0.01], n_directions=4, seed=9)
    b = exp_rrss(gauss_net, theta_star, gauss_corpus, [0.001, 0.01], n_directions=4, seed=9)
    assert a.scalars == b.scalars
    assert a.tables == b.tables
    assert a.corpus_digest == b.corpus_digest
    assert a.seeds == {"directions": 9}


# ---- report emission ----

def test_report_csv_lines_and_summary():
    from gradsel.bench import ExperimentReport

    report = ExperimentReport(
        name="demo",
        scalars={"metric": 0.5},
        tables={"rows": [{"a": 1, "b": 2.5}, {"a": 2, "b": 3.5}]},
        seeds={"s": 1},
        corpus_digest="ab" * 32,
    )
    csvs = report_to_csv_lines(report)
    assert csvs["demo_scalars"][0] == "name,value"
    assert csvs["demo_rows"] == ["a,b", "1,2.5", "2,3.5"]
    text = summarize([report])
    assert "metric = 0.5" in text
