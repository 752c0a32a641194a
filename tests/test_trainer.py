import math
import sys
import threading
import time

import numpy as np
import pytest

from gradsel import trainer
from gradsel.model import ModelConfig, Network
from gradsel.taskgen import Corpus, TaskDataset
from gradsel.trainer import (
    TrainConfig,
    _fit,
    eval_loss,
    fine_tune_each,
    fine_tune_subset,
    load_checkpoint,
    meta_train,
    param_digest,
    relative_distance,
    save_checkpoint,
)
from gradsel.select import oracle_evaluator

from conftest import FINETUNE_CFG
from reference import adam_fit


def _separable_task(n=40, dim=4, seed=0, task_id=1):
    rng = np.random.default_rng(seed)
    y = rng.integers(0, 2, size=n)
    X = (2 * y - 1)[:, None] * 3.0 + rng.standard_normal((n, dim)) * 0.3
    return TaskDataset(task_id, (X[: n // 2], y[: n // 2]), (X[n // 2 :], y[n // 2 :]))


def _tiny_corpus(seed=0):
    t1 = _separable_task(seed=seed, task_id=1)
    t2 = _separable_task(seed=seed + 1, task_id=2)
    target = _separable_task(seed=seed + 2, task_id=0)
    return Corpus([t1, t2], target, {"kind": "toy"})


def test_linear_model_fits_separable_task():
    corpus = _tiny_corpus()
    net = Network(ModelConfig(input_dim=4, hidden_dims=(), num_classes=2, seed=1))
    cfg = TrainConfig(step_size=0.5, batch_size=64, max_epochs=400,
                      early_stop_patience=None, seed=2, optimizer="sgd")
    fit = meta_train(net, corpus, cfg)
    assert eval_loss(net, fit.params, *corpus.mixture("train")) < 0.05


def test_zero_epochs_returns_initialization():
    corpus = _tiny_corpus()
    net = Network(ModelConfig(input_dim=4, hidden_dims=(6,), num_classes=2, seed=1))
    cfg = TrainConfig(step_size=0.1, batch_size=8, max_epochs=0, early_stop_patience=0, seed=2, optimizer="sgd")
    fit = meta_train(net, corpus, cfg)
    assert np.array_equal(fit.params, net.init_params())
    assert fit.epochs_run == 0
    assert fit.val_loss_curve == []


def test_training_is_deterministic():
    corpus = _tiny_corpus()
    net = Network(ModelConfig(input_dim=4, hidden_dims=(6,), num_classes=2, seed=1))
    cfg = TrainConfig(step_size=0.2, batch_size=8, max_epochs=20, early_stop_patience=5, seed=7, optimizer="adam")
    a = meta_train(net, corpus, cfg)
    b = meta_train(net, corpus, cfg)
    assert np.array_equal(a.params, b.params)
    assert a.val_loss_curve == b.val_loss_curve
    assert a.forward_passes == b.forward_passes


def test_eval_loss_zero_params_binary():
    net = Network(ModelConfig(input_dim=3, hidden_dims=(4,), num_classes=2))
    X, y = np.ones((6, 3)), np.arange(6) % 2
    assert eval_loss(net, np.zeros(net.param_count), X, y) == pytest.approx(math.log(2), abs=1e-12)


def test_eval_loss_singleton_and_streaming():
    net = Network(ModelConfig(input_dim=3, hidden_dims=(4,), num_classes=2, seed=3))
    params = net.init_params()
    rng = np.random.default_rng(5)
    rows = [(rng.standard_normal(3), int(rng.integers(2))) for _ in range(17)]
    X, y = np.array([x for x, _ in rows]), np.array([label for _, label in rows])

    def row_loss(i):
        return float(net.losses(params, X[i : i + 1], y[i : i + 1])[0])

    single = eval_loss(net, params, X[:1], y[:1])
    assert single == pytest.approx(row_loss(0), abs=1e-15)
    mean = eval_loss(net, params, X, y)
    streaming = sum(row_loss(i) for i in range(len(X))) / len(X)
    assert mean == pytest.approx(streaming, abs=1e-12)
    with pytest.raises(ValueError):
        eval_loss(net, params, X[:0], y[:0])


def test_relative_distance():
    theta = np.array([3.0, 4.0])
    assert relative_distance(theta, theta) == 0.0
    assert relative_distance(2 * theta, theta) == pytest.approx(1.0, abs=1e-15)
    with pytest.raises(ValueError):
        relative_distance(theta, np.zeros(2))
    with pytest.raises(ValueError):
        relative_distance(np.zeros(3), theta)


def test_true_f_empty_subset_ignores_sources():
    corpus_a = _tiny_corpus(seed=0)
    # same target, different sources
    corpus_b = Corpus(
        [_separable_task(seed=50, task_id=1), _separable_task(seed=51, task_id=2)],
        corpus_a.target,
        {"kind": "toy"},
    )
    net = Network(ModelConfig(input_dim=4, hidden_dims=(6,), num_classes=2, seed=1))
    theta0 = net.init_params()
    cfg = TrainConfig(step_size=0.2, batch_size=8, max_epochs=15, early_stop_patience=3, seed=2, optimizer="sgd")
    oracle_a = oracle_evaluator(net, theta0, corpus_a, cfg)
    oracle_b = oracle_evaluator(net, theta0, corpus_b, cfg)
    assert oracle_a(frozenset()) == oracle_b(frozenset())


def test_true_f_zero_epochs_returns_theta0_loss():
    corpus = _tiny_corpus()
    net = Network(ModelConfig(input_dim=4, hidden_dims=(6,), num_classes=2, seed=1))
    theta0 = net.init_params()
    cfg = TrainConfig(step_size=0.2, batch_size=8, max_epochs=0, early_stop_patience=0, seed=2, optimizer="sgd")
    value = oracle_evaluator(net, theta0, corpus, cfg)(frozenset({1}))
    assert value == pytest.approx(eval_loss(net, theta0, *corpus.target.val), abs=1e-15)


def test_unknown_task_id_raises():
    corpus = _tiny_corpus()
    net = Network(ModelConfig(input_dim=4, hidden_dims=(6,), num_classes=2, seed=1))
    with pytest.raises(ValueError, match="unknown task ids"):
        fine_tune_subset(net, net.init_params(), {9}, corpus, TrainConfig())


def test_helpful_subset_beats_harmful_subset(gauss_net, theta_star, gauss_corpus):
    helpful = frozenset(gauss_corpus.meta["helpful_ids"][:5])
    harmful = frozenset(gauss_corpus.meta["harmful_ids"][:5])
    oracle = oracle_evaluator(gauss_net, theta_star, gauss_corpus, FINETUNE_CFG)
    assert oracle(helpful) < oracle(harmful)


def test_finetuned_subsets_stay_near_theta_star(gauss_net, theta_star, gauss_corpus):
    # measured bound on the default corpus; the whole linearization story
    # depends on fine-tuning staying in this neighborhood
    rng = np.random.default_rng(0)
    for _ in range(5):
        S = frozenset(int(t) + 1 for t in rng.choice(20, size=10, replace=False))
        fit = fine_tune_subset(gauss_net, theta_star, S, gauss_corpus, FINETUNE_CFG)
        assert relative_distance(fit.params, theta_star) < 0.05


def test_forward_pass_accounting():
    corpus = _tiny_corpus()
    net = Network(ModelConfig(input_dim=4, hidden_dims=(6,), num_classes=2, seed=1))
    n_train = sum(len(t.train[0]) for t in corpus.tasks) + len(corpus.target.train[0])
    cfg5 = TrainConfig(step_size=0.05, batch_size=8, max_epochs=5, early_stop_patience=5, seed=2, optimizer="sgd")
    cfg9 = TrainConfig(step_size=0.05, batch_size=8, max_epochs=9, early_stop_patience=9, seed=2, optimizer="sgd")
    fit5 = meta_train(net, corpus, cfg5)
    fit9 = meta_train(net, corpus, cfg9)
    assert fit5.forward_passes == fit5.epochs_run * n_train
    assert fit9.forward_passes == fit9.epochs_run * n_train
    assert fit9.forward_passes > fit5.forward_passes


def test_early_stopping_patience_window():
    corpus = _tiny_corpus()
    net = Network(ModelConfig(input_dim=4, hidden_dims=(6,), num_classes=2, seed=1))
    patience = 4
    cfg = TrainConfig(step_size=0.3, batch_size=8, max_epochs=200, early_stop_patience=patience, seed=2, optimizer="sgd")
    fit = meta_train(net, corpus, cfg)
    curve = fit.val_loss_curve
    best = fit.best_epoch
    assert best >= 1
    window = curve[best : best + patience]
    assert all(curve[best - 1] <= v for v in window)
    assert fit.epochs_run <= best + patience + 1 or fit.epochs_run == cfg.max_epochs


def test_divergence_reports_epoch():
    corpus = _tiny_corpus()
    net = Network(ModelConfig(input_dim=4, hidden_dims=(6,), activation="relu",
                              num_classes=2, init_scale=5.0, seed=1))
    cfg = TrainConfig(step_size=1e18, batch_size=8, max_epochs=10, early_stop_patience=10, seed=2, optimizer="sgd")
    with np.errstate(all="ignore"):
        with pytest.raises(ValueError, match=r"^non-finite loss .* at epoch \d+$") as err:
            meta_train(net, corpus, cfg)
    assert int(str(err.value).rsplit(" ", 1)[1]) >= 1


def test_checkpoint_roundtrip(tmp_path):
    rng = np.random.default_rng(3)
    params = rng.standard_normal(57)
    path = tmp_path / "theta.bin"
    save_checkpoint(path, params, config_digest="ab" * 32, corpus_digest="cd" * 32)
    back, cfg_d, corp_d = load_checkpoint(path)
    assert np.array_equal(back, params)
    assert cfg_d == "ab" * 32 and corp_d == "cd" * 32
    assert param_digest(back) == param_digest(params)

    save_checkpoint(path, params, config_digest="ab" * 32, corpus_digest="cd" * 32)
    again, _, _ = load_checkpoint(path)
    assert np.array_equal(again, params)


def test_checkpoint_rejects_garbage(tmp_path):
    path = tmp_path / "bad.bin"
    path.write_bytes(b"XXXX" + b"\x00" * 64)
    with pytest.raises(ValueError):
        load_checkpoint(path)


def test_train_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(step_size=0.0)
    with pytest.raises(ValueError):
        TrainConfig(early_stop_patience=-1)
    with pytest.raises(ValueError):
        TrainConfig(optimizer="rmsprop")


def test_in_place_adam_matches_textbook_update():
    # _fit's Adam updates its state in place; the parameters are bit for
    # bit those of the textbook expressions
    corpus = _tiny_corpus()
    net = Network(ModelConfig(input_dim=4, hidden_dims=(6,), num_classes=2, seed=1))
    cfg = TrainConfig(step_size=0.05, batch_size=8, max_epochs=4, early_stop_patience=None, seed=2)
    (X, y), val = corpus.mixture("train"), corpus.mixture("val")
    fit = _fit(net, net.init_params(), (X, y), val, cfg)
    ref = adam_fit(net, net.init_params(), X, y, cfg.step_size, cfg.batch_size, cfg.max_epochs, cfg.seed)
    assert fit.params.tobytes() == ref.tobytes()


def _cpus(monkeypatch, n):
    """Make the process see n CPUs it may run on, so fine_tune_each starts
    n - 1 helpers where OpenBLAS's thread setter is found."""
    monkeypatch.setattr(trainer.os, "sched_getaffinity", lambda pid: set(range(n)))


def _fit_bytes(fit):
    return fit.params.tobytes(), fit.val_loss_curve, fit.forward_passes, fit.best_epoch


def test_fine_tune_each_is_the_same_with_helpers_and_without(gauss_net, theta_star, gauss_corpus, monkeypatch):
    subsets = [frozenset({1, 2, 3}), frozenset({4}), frozenset(range(5, 15)), frozenset({17, 20})]
    _cpus(monkeypatch, 1)
    alone = fine_tune_each(gauss_net, theta_star, subsets, gauss_corpus, FINETUNE_CFG, _fit_bytes)
    _cpus(monkeypatch, 4)
    shared = fine_tune_each(gauss_net, theta_star, subsets, gauss_corpus, FINETUNE_CFG, _fit_bytes)
    assert shared == alone
    assert [r[2] for r in alone] == [
        fine_tune_subset(gauss_net, theta_star, s, gauss_corpus, FINETUNE_CFG).forward_passes for s in subsets
    ]


def test_fine_tune_each_stress_more_workers_than_cores(monkeypatch):
    # 7 helpers and the caller on 2 subsets each, switching threads as often
    # as the interpreter allows: every subset is fit once, into its own slot
    corpus = _tiny_corpus()
    net = Network(ModelConfig(input_dim=4, hidden_dims=(6,), num_classes=2, seed=1))
    cfg = TrainConfig(step_size=0.1, batch_size=8, max_epochs=3, early_stop_patience=None, seed=2)
    subsets = [frozenset(s) for s in ({1}, {2}, {1, 2}, set())] * 4
    calls = []

    def derive(fit):
        calls.append(1)
        return fit.params.tobytes()

    _cpus(monkeypatch, 1)
    serial = fine_tune_each(net, net.init_params(), subsets, corpus, cfg, derive)
    _cpus(monkeypatch, 8)
    got = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        worker = threading.Thread(
            target=lambda: got.append(fine_tune_each(net, net.init_params(), subsets, corpus, cfg, derive))
        )
        worker.start()
        worker.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not worker.is_alive()
    assert got == [serial]
    assert len(calls) == 2 * len(subsets)


def test_fine_tune_each_raises_the_first_failing_subset(monkeypatch):
    # subset {7} fails late and {9} at once; with helpers or without, the
    # error raised is the one a serial loop meets first
    corpus = _tiny_corpus()
    net = Network(ModelConfig(input_dim=4, hidden_dims=(6,), num_classes=2, seed=1))
    cfg = TrainConfig(step_size=0.1, batch_size=8, max_epochs=3, seed=2)
    subsets = [frozenset({1}), frozenset({7}), frozenset({2}), frozenset({9})]

    def fine_tune(net, theta0, subset, corpus, cfg):
        if subset == {7}:
            time.sleep(0.2)
        return fine_tune_subset(net, theta0, subset, corpus, cfg)

    monkeypatch.setattr(trainer, "fine_tune_subset", fine_tune)
    for cpus in (1, 4):
        _cpus(monkeypatch, cpus)
        with pytest.raises(ValueError, match=r"unknown task ids in subset: \[7\]"):
            fine_tune_each(net, net.init_params(), subsets, corpus, cfg, lambda fit: fit.best_epoch)


def test_fine_tune_each_pins_one_blas_thread_and_restores_the_count(monkeypatch):
    found = trainer._openblas_threads()
    if found is None:
        pytest.skip("numpy's OpenBLAS thread-count functions are not loaded")
    get, put = found
    corpus = _tiny_corpus()
    net = Network(ModelConfig(input_dim=4, hidden_dims=(6,), activation="relu",
                              num_classes=2, init_scale=5.0, seed=1))
    fine = TrainConfig(step_size=0.1, batch_size=8, max_epochs=3, seed=2, optimizer="sgd")
    diverging = TrainConfig(step_size=1e18, batch_size=8, max_epochs=10, early_stop_patience=10, seed=2,
                            optimizer="sgd")
    subsets = [frozenset({1}), frozenset({2}), frozenset({1, 2})]
    _cpus(monkeypatch, 2)
    original = get()
    put(2)
    try:
        before = get()
        inside = fine_tune_each(net, net.init_params(), subsets, corpus, fine, lambda fit: get())
        assert inside == [1, 1, 1]
        assert get() == before
        with np.errstate(all="ignore"):
            with pytest.raises(ValueError, match=r"^non-finite loss .* at epoch \d+$"):
                fine_tune_each(net, net.init_params(), subsets, corpus, diverging, lambda fit: get())
        assert get() == before
    finally:
        put(original)
