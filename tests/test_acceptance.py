"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. Tolerances are frozen here; several were derived by measurement before
this suite was written (see the assertions' comments).
"""

import time

import numpy as np

from gradsel.bench import exp_addition, predicted_forward_passes, relative_error
from gradsel.estimate import SolveConfig, estimate_subset, prepare
from gradsel.linearize import GradientCache, build_cache, rrss_sweep
from gradsel.model import ModelConfig, Network
from gradsel.project import gaussian_projection
from gradsel.select import (
    compute_T,
    forward_select,
    estimator_evaluator,
    oracle_evaluator,
    random_ensemble,
    threshold_select,
)
from gradsel.taskgen import Corpus, TaskDataset, gen_multitask_gaussian, gen_noisy_addition
from gradsel.trainer import TrainConfig, eval_loss, fine_tune_subset, meta_train

from conftest import DEFAULT_CORPUS, FINETUNE_CFG, META_CFG, SOLVE_CFG, newton_solve
from reference import finite_difference_margin_gradient, margin


def _verdict(number, name, ok, detail):
    print(f"ACCEPTANCE {number} [{name}]: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {number} ({name}): {detail}"


def test_criterion_1_gradient_correctness():
    # the margin gradients the cache stage projects (margin_gradient_product,
    # here with M = I) vs central finite differences across the model grid
    rng = np.random.default_rng(0)
    worst = 0.0
    for width in (8, 64):
        for depth in (1, 2):
            cfg = ModelConfig(input_dim=6, hidden_dims=(width,) * depth,
                              num_classes=2, init_scale=0.5, seed=width + depth)
            net = Network(cfg)
            params = net.init_params()
            full = net.margin_gradient_product(np.eye(net.param_count))
            for _ in range(3):
                x, label = rng.standard_normal(6), int(rng.integers(2))
                g = full(params, x[None], np.array([label]))[1][0]
                fd = finite_difference_margin_gradient(net, params, x, label, step=1e-5)
                worst = max(worst, np.linalg.norm(fd - g) / np.linalg.norm(g))
    _verdict(1, "gradient correctness", worst <= 1e-5, f"max FD relative error {worst:.2e}")


def test_criterion_2_linearization_exact_for_linear_models():
    rng = np.random.default_rng(1)
    net = Network(ModelConfig(input_dim=6, hidden_dims=(), num_classes=2, init_scale=0.5, seed=2))
    theta = net.init_params() + 0.5  # margins bounded away from zero
    draws = [(rng.standard_normal(6) + 1.0, int(rng.integers(2))) for _ in range(25)]
    X, y = np.array([x for x, _ in draws]), np.array([label for _, label in draws])
    rows = rrss_sweep(net, theta, X, y, [0.0025, 0.005, 0.01, 0.025], 10, seed=3)
    worst = max(r["mean_rrss"] for r in rows)
    _verdict(2, "linear exactness", worst <= 1e-12, f"max mean RRSS {worst:.2e}")


def test_criterion_3_rrss_trend(gauss_corpus):
    net = Network(ModelConfig(input_dim=10, hidden_dims=(64,), activation="tanh",
                              num_classes=2, init_scale=0.5, seed=7))
    theta = meta_train(net, gauss_corpus, META_CFG).params
    # RRSS divides by h_X^2, so evaluate where the base margin is bounded away
    # from the zero crossing; near-boundary samples put a pole in the ratio
    X, y = gauss_corpus.target.val
    margins = np.array([margin(net, theta, X[i], y[i]) for i in range(len(X))])
    samples = np.flatnonzero(np.abs(margins) >= 0.5)[:40]
    assert len(samples) >= 20
    distances = [0.0025, 0.005, 0.01, 0.025]
    rows = rrss_sweep(net, theta, X[samples], y[samples], distances, 20, seed=6)
    means = [r["mean_rrss"] for r in rows]
    monotone = all(a <= b for a, b in zip(means, means[1:]))
    ok = monotone and means[0] <= 1e-2
    _verdict(3, "RRSS trend", ok,
             f"means {['%.2e' % m for m in means]}, monotone={monotone}")


def test_criterion_4_estimator_fidelity(gauss_net, theta_star, gauss_corpus, cache):
    rng = np.random.default_rng(101)
    problem = prepare(cache, SOLVE_CFG)
    f_true, f_hat = [], []
    for _ in range(30):
        S = frozenset(int(t) + 1 for t in rng.choice(20, size=10, replace=False))
        fit = fine_tune_subset(gauss_net, theta_star, S, gauss_corpus, FINETUNE_CFG)
        f_true.append(eval_loss(gauss_net, fit.params, *gauss_corpus.target.val))
        result = estimate_subset(gauss_net, theta_star, problem, S, gauss_corpus.target.val)
        f_hat.append(result.f_hat)
    err = relative_error(f_true, f_hat)
    _verdict(4, "estimator fidelity", err <= 0.05, f"relative error {err:.4f} over 30 subsets")


def test_criterion_5_convex_equivalence_oracle():
    # linear model + identity projector: estimation and fine-tuning solve the
    # same convex problem; label noise keeps the optimum finite, and val=train
    # lets fine-tuning run to convergence
    rng = np.random.default_rng(0)
    dim = 5

    def task(tid, n=30):
        y = rng.integers(0, 2, size=n)
        X = (2 * y - 1)[:, None] * 1.2 + rng.standard_normal((n, dim))
        flip = rng.random(n) < 0.15
        y = np.where(flip, 1 - y, y)
        return TaskDataset(tid, (X, y), (X, y))

    corpus = Corpus([task(t) for t in range(1, 7)], task(0, n=40), {"kind": "toy"})
    net = Network(ModelConfig(input_dim=dim, hidden_dims=(), num_classes=2, init_scale=0.1, seed=1))
    theta = net.init_params()
    cache5 = build_cache(net, theta, corpus, np.eye(net.param_count), None)
    ftc = TrainConfig(step_size=0.5, batch_size=10**6, max_epochs=6000,
                      early_stop_patience=None, seed=4, optimizer="sgd")
    problem = prepare(cache5, SolveConfig(ridge_lambda=1e-9, grad_tol=1e-12, max_iters=500))
    rng2 = np.random.default_rng(1)
    worst = 0.0
    for _ in range(10):
        S = frozenset(int(t) + 1 for t in rng2.choice(6, size=3, replace=False))
        fit = fine_tune_subset(net, theta, S, corpus, ftc)
        truth = eval_loss(net, fit.params, *corpus.target.val)
        result = estimate_subset(net, theta, problem, S, corpus.target.val)
        worst = max(worst, abs(truth - result.f_hat))
    _verdict(5, "convex equivalence", worst <= 1e-3, f"max |f - f_hat| {worst:.2e}")


def test_criterion_6_cost_accounting():
    corpus = gen_multitask_gaussian(**{**DEFAULT_CORPUS, "n": 12})
    net = Network(ModelConfig(input_dim=10, hidden_dims=(64,), activation="tanh",
                              num_classes=2, init_scale=0.5, seed=7))
    theta = meta_train(net, corpus, META_CFG).params

    oracle = oracle_evaluator(net, theta, corpus, FINETUNE_CFG)
    report = forward_select(oracle, 12)
    predicted = predicted_forward_passes("fs", 12, depth=report.rounds_run)
    exact = report.budget["task_units"] == predicted

    cache6 = build_cache(net, theta, corpus, gaussian_projection(net.param_count, 100, 5), 5)
    est_ev = estimator_evaluator(net, theta, cache6, corpus.target.val, SOLVE_CFG)
    estimator_report = forward_select(est_ev, 12)
    zero_ft = estimator_report.budget["fine_tune_runs"] == 0

    full = predicted_forward_passes("fs", 20)
    fast = predicted_forward_passes("estimated_fs", 20)
    speedup_ok = full == 1540 and fast == 60 and abs(full / fast - 1540 / 60) < 1e-12
    ok = exact and zero_ft and speedup_ok
    _verdict(
        6, "cost accounting", ok,
        f"oracle-FS task units {report.budget['task_units']} == predicted {predicted} "
        f"(depth {report.rounds_run}); estimator fine-tunes {estimator_report.budget['fine_tune_runs']}; "
        f"speedup {full}/{fast} = {full / fast:.2f}x",
    )


def test_criterion_7_solver_speed():
    rng = np.random.default_rng(11)
    n, d = 10_000, 100
    # the labels' signs y, folded into the gradient rows as the cache holds them
    y = rng.choice([-1.0, 1.0], size=n)
    cache7 = GradientCache(
        task_id=np.ones(n, dtype=np.int64),
        b=rng.standard_normal(n),
        g_proj=y[:, None] * rng.standard_normal((n, d)),
        theta_star_digest="0" * 64,
        P=np.eye(d),
        projector_seed=None,
    )
    problem = prepare(cache7, SOLVE_CFG)
    start = time.perf_counter()
    _, iters, converged = newton_solve(problem, {1})
    elapsed = time.perf_counter() - start
    ok = converged and elapsed <= 2.0
    _verdict(7, "solver speed", ok, f"{elapsed:.3f}s for 1e4 samples at d=100 ({iters} iters)")


def test_criterion_8_noisy_addition_separation():
    # 20 five-digit groups of 500, 10 clean; corpus seed 21, projector 22, subsets 23
    corpus = gen_noisy_addition(20, 10, 5, 500, seed=21, target_samples=60)
    net = Network(ModelConfig(input_dim=100, hidden_dims=(256,), activation="relu",
                              num_classes=10, num_positions=5, init_scale=0.5, seed=7))
    tc = TrainConfig(step_size=0.001, batch_size=32, max_epochs=120,
                     early_stop_patience=None, seed=3, optimizer="adam")
    theta = meta_train(net, corpus, tc).params
    cache = build_cache(net, theta, corpus, gaussian_projection(net.param_count, 100, 22), 22)
    report = exp_addition(net, theta, cache, corpus, SolveConfig(ridge_lambda=0.1), m=300, alpha_frac=0.15, seed=23)
    t = report.scalars["auroc_T"]
    grad = report.scalars["auroc_gradient_cosine"]
    feat = report.scalars["auroc_feature_similarity"]
    rows = report.tables["groups"]
    mean_noisy = np.mean([r["T"] for r in rows if not r["clean"]])
    mean_clean = np.mean([r["T"] for r in rows if r["clean"]])
    ok = t >= 0.9 and t > grad and t > feat and mean_noisy > mean_clean
    _verdict(8, "noisy-addition separation", ok,
             f"AUROC T={t:.3f} vs gradient-cosine {grad:.3f}, feature-similarity {feat:.3f}; "
             f"mean T noisy {mean_noisy:.4f} > clean {mean_clean:.4f}")


def test_criterion_9_selection_soundness():
    fs_clean = 0
    recoveries = []
    for seed in (11, 12, 13, 14, 15):
        corpus = gen_multitask_gaussian(**{**DEFAULT_CORPUS, "seed": seed})
        net = Network(ModelConfig(input_dim=10, hidden_dims=(320,), activation="tanh",
                                  num_classes=2, init_scale=0.5, seed=seed + 100))
        meta = TrainConfig(step_size=0.3, batch_size=32, max_epochs=300,
                           early_stop_patience=30, seed=seed + 200, optimizer="sgd")
        theta = meta_train(net, corpus, meta).params
        P = gaussian_projection(net.param_count, 100, seed + 300)
        cache9 = build_cache(net, theta, corpus, P, seed + 300)
        helpful = set(corpus.meta["helpful_ids"])
        harmful = set(corpus.meta["harmful_ids"])

        ev = estimator_evaluator(net, theta, cache9, corpus.target.val, SOLVE_CFG)
        fs_report = forward_select(ev, corpus.n_tasks)
        if not (fs_report.chosen & harmful):
            fs_clean += 1

        ev2 = estimator_evaluator(net, theta, cache9, corpus.target.val, SOLVE_CFG)
        scores = random_ensemble(ev2, corpus.n_tasks, m=300, alpha_frac=0.75, seed=seed + 400)
        T = compute_T(scores, corpus.n_tasks)
        chosen = threshold_select(T, fraction=0.5)  # q matches the planted helpful fraction
        recoveries.append(len(chosen & helpful) / len(helpful))

    ok = fs_clean >= 4 and all(r >= 0.8 for r in recoveries)
    _verdict(9, "selection soundness", ok,
             f"FS clean in {fs_clean}/5 seeds; RE recovery {['%.0f%%' % (100 * r) for r in recoveries]}")


def test_criterion_10_unit_suites(gauss_net, theta_star, gauss_corpus):
    # Eq-style per-task mean: exact hand arithmetic
    T = compute_T([(frozenset({1, 2}), 0.5), (frozenset({1, 3}), 0.7)], 3)
    t_exact = np.array_equal(T, np.array([0.6, 0.5, 0.7]))

    # projection inner-product preservation, 200 seed draws, 3 standard errors
    rng = np.random.default_rng(5)
    a = rng.standard_normal(300)
    b = rng.standard_normal(300)
    a /= np.linalg.norm(a)
    b /= np.linalg.norm(b)
    sketches = [np.stack([a, b]) @ gaussian_projection(300, 20, s) for s in range(200)]
    vals = np.array([pa @ pb for pa, pb in sketches])
    se = vals.std(ddof=1) / np.sqrt(len(vals))
    jl_mean_ok = abs(vals.mean() - a @ b) <= 3 * se

    # JL cosine concentration at d=100, p=1e4
    P = gaussian_projection(10_000, 100, 11)
    A = rng.standard_normal((100, 10_000))
    B = rng.standard_normal((100, 10_000))
    A /= np.linalg.norm(A, axis=1, keepdims=True)
    B /= np.linalg.norm(B, axis=1, keepdims=True)
    PA, PB = A @ P, B @ P
    true_cos = np.sum(A * B, axis=1)
    proj_cos = np.sum(PA * PB, axis=1) / (np.linalg.norm(PA, axis=1) * np.linalg.norm(PB, axis=1))
    jl_cos_ok = (np.abs(proj_cos - true_cos) <= 0.25).mean() >= 0.95

    # projection-dimension ablation: error stabilizes by d=100. The oracle
    # values are d-independent, so they are computed once and reused.
    ftc = FINETUNE_CFG
    rng2 = np.random.default_rng(101)
    subsets, f_true = [], []
    for _ in range(30):
        S = frozenset(int(t) + 1 for t in rng2.choice(20, size=10, replace=False))
        subsets.append(S)
        fit = fine_tune_subset(gauss_net, theta_star, S, gauss_corpus, ftc)
        f_true.append(eval_loss(gauss_net, fit.params, *gauss_corpus.target.val))
    errs = {}
    for d in (50, 100, 200, 400):
        P_d = gaussian_projection(gauss_net.param_count, d, 5)
        problem = prepare(build_cache(gauss_net, theta_star, gauss_corpus, P_d, 5), SOLVE_CFG)
        f_hat = [estimate_subset(gauss_net, theta_star, problem, S, gauss_corpus.target.val).f_hat for S in subsets]
        errs[d] = relative_error(f_true, f_hat)
    # measured pattern: error drops from d=50 to d=100, then flattens; the
    # d=100 -> d=400 change is small next to the d=50 -> d=400 change
    drop_ok = errs[100] < errs[50]
    stabilized = abs(errs[100] - errs[400]) <= 0.5 * abs(errs[50] - errs[400])
    all_small = all(errs[d] <= 0.05 for d in (100, 200, 400))

    ok = t_exact and jl_mean_ok and jl_cos_ok and drop_ok and stabilized and all_small
    _verdict(
        10, "unit suites", ok,
        f"T exact={t_exact}; JL mean within 3se={jl_mean_ok}; JL cosine 95%={jl_cos_ok}; "
        f"d-ablation errs={{{', '.join(f'{d}: {errs[d]:.5f}' for d in errs)}}}",
    )
