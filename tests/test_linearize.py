import dataclasses
import math
import re
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gradsel import linearize
from gradsel.linearize import (
    RRSS_DENOM_GUARD,
    TARGET_VAL_ID,
    _rrss_batch,
    build_cache,
    load_cache,
    rrss_sweep,
    save_cache,
)
from gradsel.model import ModelConfig, Network
from gradsel.project import _BLOCK_ROWS, gaussian_projection
from gradsel.taskgen import Corpus, TaskDataset
from gradsel.trainer import param_digest

from conftest import _cpus
from reference import margin, margin_gradients


def _task(tid, rows, n_train):
    """A task from (features, label) rows: the first n_train train, the rest val."""
    X = np.array([x for x, _ in rows])
    y = np.array([label for _, label in rows], dtype=np.int64)
    return TaskDataset(tid, (X[:n_train], y[:n_train]), (X[n_train:], y[n_train:]))


def _mini_corpus(dim=4, seed=0, n_train=1):
    rng = np.random.default_rng(seed)
    def task(tid):
        rows = [(rng.standard_normal(dim), rng.integers(2)) for _ in range(n_train + 2)]
        return _task(tid, rows, n_train)
    return Corpus([task(1)], task(0), {"kind": "toy"})


def _linear_net(dim=4, seed=1):
    return Network(ModelConfig(input_dim=dim, hidden_dims=(), num_classes=2, seed=seed))


def _first(split, n):
    """The first n samples of an (X, labels) split."""
    return split[0][:n], split[1][:n]


def _grad(net, params, x, label):
    """Full margin gradient of the one sample (x, label)."""
    return margin_gradients(net, params, x[None, :], np.asarray([label]))[0]


def _rrss(net, theta_star, x, X, y):
    """Per-sample RRSS at x, with the first-order term from the full gradients."""
    lin = margin_gradients(net, theta_star, X, y) @ (x - theta_star)
    return _rrss_batch(net, x, X, y, net.margins(theta_star, X, y), lin)


def _multi_position_setup(n_train=6, seed=0):
    """A multi-position relu model whose p (9,118) spans two P blocks, its
    init params, and a two-task corpus with three position labels per sample."""
    net = Network(ModelConfig(input_dim=40, hidden_dims=(128,), activation="relu",
                              num_classes=10, num_positions=3, seed=seed))
    rng = np.random.default_rng(seed)

    def task(tid):
        return _task(tid, [(rng.standard_normal(40), rng.integers(10, size=3)) for _ in range(n_train + 5)], n_train)

    return net, net.init_params(), Corpus([task(1), task(2)], task(0), {"kind": "toy"})


def _cached_taylor_margin(cache, i, z):
    """First-order margin at theta* + P z from cache row i: the cached
    b = -h* gives h* = -b, and g~ . z equals the full g . (P z)."""
    return -cache.b[i] + cache.g_proj[i] @ z


def _full_taylor_margin(net, theta_star, x, features, label):
    """First-order margin at an arbitrary X, using the full gradient."""
    return margin(net, theta_star, features, label) + _grad(net, theta_star, features, label) @ (x - theta_star)


def test_cache_entries_and_b_values():
    corpus = _mini_corpus()
    net = _linear_net()
    theta = net.init_params()
    cache = build_cache(net, theta, corpus, np.eye(net.param_count), None)
    # one row per train sample: the single source sample plus the target's,
    # then the target's val rows
    n_val = len(corpus.target.val[0])
    assert cache.task_id.tolist() == [1, 0] + [TARGET_VAL_ID] * n_val
    for i in range(2):
        X, labels = corpus.task(int(cache.task_id[i])).train
        # b is minus the labeled class's margin: minus the logit signed by the label
        z = net.logits(theta, X[:1])[0, 0]
        assert cache.b[i] == pytest.approx(-(2 * labels[0] - 1) * z, abs=1e-12)
        assert cache.b[i] == pytest.approx(-margin(net, theta, X[0], labels[0]), abs=1e-12)


def test_identity_projector_caches_full_gradient():
    corpus = _mini_corpus()
    net = _linear_net()
    theta = net.init_params()
    cache = build_cache(net, theta, corpus, np.eye(net.param_count), None)
    X, labels = corpus.tasks[0].train
    g = _grad(net, theta, X[0], labels[0])
    idx = int(np.flatnonzero(cache.task_id == 1)[0])
    assert np.allclose(cache.g_proj[idx], g, atol=1e-14)


def test_build_cache_matches_per_sample_reference(monkeypatch):
    # batched gradients, chunked across a short chunk size, equal the same
    # entries computed one sample at a time against the dense P
    monkeypatch.setattr(linearize, "_CHUNK", 4)
    net, theta, corpus = _multi_position_setup()
    assert net.param_count > _BLOCK_ROWS
    P = gaussian_projection(net.param_count, 6, 2)
    cache = build_cache(net, theta, corpus, P, 2)
    val = cache.task_id == TARGET_VAL_ID
    for (X, labels), rows in ((corpus.mixture("train"), ~val), (corpus.target.val, val)):
        b, g_proj = cache.b[rows], cache.g_proj[rows]
        assert len(X) == len(b) > linearize._CHUNK
        for i in range(len(X)):
            # rounded to the float32 values every cache holds
            ref = (P.T @ _grad(net, theta, X[i], labels[i])).astype(np.float32)
            assert np.max(np.abs(g_proj[i] - ref)) <= 1e-12 * max(1.0, np.max(np.abs(ref)))
            assert b[i] == pytest.approx(-margin(net, theta, X[i], labels[i]), abs=1e-12)


def test_build_cache_never_builds_a_gradient_block(monkeypatch):
    # a multi-position relu model with p = 36,196 and four 128-row chunks of
    # train samples, filled on 1 CPU (the caller fills every chunk, one at a
    # time) and on 4 (the caller fills one; forked workers, whose memory
    # this process does not trace, fill the rest and send back their rows):
    # projecting from the layer factors keeps the traced peak under a
    # quarter of one (_CHUNK, p) float64 gradient block (37 MB) either way,
    # and under 3.5 MB: no factor copies P's rows (a reordered copy of the
    # head layer's would take 4.1 MB), and the rows go straight into the
    # float32 records, with no float64 table of them
    net = Network(ModelConfig(input_dim=40, hidden_dims=(256,), activation="relu",
                              num_classes=10, num_positions=10, seed=0))
    assert net.param_count >= 30_000
    rng = np.random.default_rng(0)

    def task(tid, n_train):
        return _task(tid, [(rng.standard_normal(40), rng.integers(10, size=10)) for _ in range(n_train + 20)], n_train)

    corpus = Corpus([task(1, 200), task(2, 200)], task(0, 20), {"kind": "toy"})
    assert len(corpus.mixture("train")[0]) > linearize._CHUNK
    P = gaussian_projection(net.param_count, 20, 1)  # built before tracing starts
    theta = net.init_params()
    for cpus in (1, 4):
        _cpus(monkeypatch, cpus)
        tracemalloc.start()
        try:
            cache = build_cache(net, theta, corpus, P, 1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert cache.g_proj.shape == (420 + 20, 20)  # train rows, then the target's val rows
        assert peak < linearize._CHUNK * net.param_count * 8 / 4, cpus
        assert peak < 3.5e6, (cpus, peak)


def test_build_cache_is_the_same_with_helpers_and_without(monkeypatch):
    # chunks of 4 rows, some spanning two tasks' splits, filled by the
    # caller alone and side by side with 5 forked workers: the same bits
    monkeypatch.setattr(linearize, "_CHUNK", 4)
    net, theta, corpus = _multi_position_setup()
    P = gaussian_projection(net.param_count, 6, 2)
    built = []
    for cpus in (1, 6):
        _cpus(monkeypatch, cpus)
        built.append(build_cache(net, theta, corpus, P, 2))
    alone, shared = built
    assert len(corpus.tasks[0].train[0]) % linearize._CHUNK != 0
    for name in ("task_id", "b", "g_proj"):
        assert getattr(shared, name).tobytes() == getattr(alone, name).tobytes(), name


@pytest.mark.parametrize("split", ["train", "val"])
def test_build_cache_rejects_non_finite_entries(split):
    corpus = _mini_corpus(n_train=3)
    X, labels = corpus.tasks[0].train if split == "train" else corpus.target.val
    X[1], labels[1] = np.inf, 1
    # task 1's train rows come first; the target's val rows come last
    row, tid = (1, 1) if split == "train" else (len(corpus.mixture("train")[1]) + 1, TARGET_VAL_ID)
    net = _linear_net()
    with np.errstate(invalid="ignore"), pytest.raises(
        ValueError, match=re.escape(f"non-finite b or projected gradient in row {row} (task id {tid})") + "$"
    ):
        build_cache(net, net.init_params(), corpus, gaussian_projection(net.param_count, 3, 0), 0)


def test_projection_blocks_generated_once(tmp_path, monkeypatch):
    # build_cache projects by the P it is given and generates none; loading
    # the saved cache generates P once, equal to the built cache's
    calls = []
    monkeypatch.setattr(linearize, "gaussian_projection",
                        lambda *args: calls.append(args) or gaussian_projection(*args))
    net, theta, corpus = _multi_position_setup()
    P = gaussian_projection(net.param_count, 6, 2)
    cache = build_cache(net, theta, corpus, P, 2)
    assert cache.P is P and calls == []
    save_cache(tmp_path / "cache.bin", cache)
    back = load_cache(tmp_path / "cache.bin")
    assert calls == [(net.param_count, 6, 2)]
    assert np.array_equal(back.P, P)


def test_rebuild_identical_digest(gauss_net, theta_star, gauss_corpus, cache):
    a = build_cache(gauss_net, theta_star, gauss_corpus, cache.P, cache.projector_seed)
    b = build_cache(gauss_net, theta_star, gauss_corpus, cache.P, cache.projector_seed)
    assert a.digest() == b.digest() == cache.digest()


def test_cache_soundness_recompute(gauss_net, theta_star, gauss_corpus, cache):
    # recompute b and the projected gradient for a sample of entries
    X, labels = gauss_corpus.mixture("train")
    tasks = [*gauss_corpus.tasks, gauss_corpus.target]
    n_val = len(gauss_corpus.target.val[1])
    assert np.array_equal(cache.task_id, np.concatenate([[t.task_id] * len(t.train[1]) for t in tasks]
                                                        + [[TARGET_VAL_ID] * n_val]))
    rng = np.random.default_rng(0)
    for i in rng.choice(len(X), size=25, replace=False):
        x, label = X[i], labels[i]
        h = margin(gauss_net, theta_star, x, label)
        assert abs(cache.b[i] - (-h)) <= 1e-10
        g_proj = (_grad(gauss_net, theta_star, x, label) @ cache.P).astype(np.float32)
        assert np.max(np.abs(g_proj - cache.g_proj[i])) <= 1e-10


def test_taylor_margin_zero_displacement():
    corpus = _mini_corpus()
    net = _linear_net()
    theta = net.init_params()
    cache = build_cache(net, theta, corpus, np.eye(net.param_count), None)
    X, labels = _first(corpus.task(int(cache.task_id[0])).train, 1)
    h = margin(net, theta, X[0], labels[0])
    assert _cached_taylor_margin(cache, 0, np.zeros(cache.d)) == pytest.approx(h, abs=1e-12)
    assert _full_taylor_margin(net, theta, theta, X[0], labels[0]) == pytest.approx(h, abs=1e-12)
    # zero displacement leaves no residual
    assert _rrss(net, theta, theta, X, labels)[0] == pytest.approx(0.0, abs=1e-15)


def test_taylor_margin_exact_for_linear_model():
    corpus = _mini_corpus(dim=5, seed=3)
    net = _linear_net(dim=5, seed=4)
    theta = net.init_params()
    rng = np.random.default_rng(5)
    X, labels = corpus.tasks[0].train
    for _ in range(3):
        x = theta + rng.standard_normal(net.param_count)
        assert _full_taylor_margin(net, theta, x, X[0], labels[0]) == pytest.approx(
            margin(net, x, X[0], labels[0]), abs=1e-10
        )


def test_projected_taylor_consistent_with_full(gauss_net, theta_star, gauss_corpus, cache):
    # the first-order margin at theta* + P z from a cache entry equals the one
    # from the full gradient projected by P, rounded to the float32 values
    # the cache holds
    rng = np.random.default_rng(6)
    z = 0.01 * rng.standard_normal(cache.d)
    X, labels = gauss_corpus.mixture("train")
    for i in (0, 100, 500):
        x, label = X[i], labels[i]
        h = margin(gauss_net, theta_star, x, label)
        g_proj = (_grad(gauss_net, theta_star, x, label) @ cache.P).astype(np.float32)
        assert _cached_taylor_margin(cache, i, z) == pytest.approx(h + g_proj @ z, abs=1e-10)


def test_rrss_zero_at_theta_star(gauss_net, theta_star, gauss_corpus):
    vals = _rrss(gauss_net, theta_star, theta_star, *_first(gauss_corpus.target.val, 10))
    finite = vals[np.isfinite(vals)]
    assert finite.size > 0
    assert np.all(finite <= 1e-15)


def test_rrss_zero_for_linear_model():
    corpus = _mini_corpus(dim=5, seed=7)
    net = _linear_net(dim=5, seed=8)
    theta = net.init_params() + 1.0  # keep margins away from zero
    rng = np.random.default_rng(9)
    t = corpus.tasks[0]
    X, y = np.concatenate([t.train[0], t.val[0]]), np.concatenate([t.train[1], t.val[1]])
    for _ in range(5):
        x = theta + rng.standard_normal(net.param_count)
        vals = _rrss(net, theta, x, X, y)
        assert np.all(vals[np.isfinite(vals)] <= 1e-12)


def test_rrss_flags_near_zero_denominator():
    net = _linear_net(dim=3, seed=10)
    flat = np.array([[1.0, 2.0, -1.0]])
    zero = np.zeros(net.param_count)  # margin is exactly 0
    x = zero.copy()
    x[-1] = 1.0  # bias 1: margin 1, away from the guard
    vals = _rrss(net, zero, zero, np.vstack([flat, flat]), np.array([1, 1]))
    assert np.isnan(vals).all()
    vals = _rrss(net, zero, x, flat, np.array([1]))
    assert abs(margin(net, x, flat[0], 1)) >= RRSS_DENOM_GUARD
    assert vals[0] == pytest.approx(0.0, abs=1e-15)


def test_rrss_sweep_zero_distance(gauss_net, theta_star, gauss_corpus):
    rows = rrss_sweep(gauss_net, theta_star, *_first(gauss_corpus.target.val, 20), [0.0], 4, seed=0)
    assert rows[0]["mean_rrss"] == pytest.approx(0.0, abs=1e-20)


def test_taylor_margin_tracks_forward_pass_at_five_percent(gauss_corpus):
    # width-64 model, random X at 5% relative distance: the first-order margin
    # stays close to the true forward pass on confident samples
    from conftest import META_CFG
    from gradsel.trainer import meta_train

    net = Network(ModelConfig(input_dim=10, hidden_dims=(64,), activation="tanh",
                              num_classes=2, init_scale=0.5, seed=7))
    theta = meta_train(net, gauss_corpus, META_CFG).params
    rng = np.random.default_rng(4)
    u = rng.standard_normal(net.param_count)
    x = theta + 0.05 * np.linalg.norm(theta) * u / np.linalg.norm(u)
    X, y = gauss_corpus.target.val
    confident = np.abs(net.margins(x, X, y)) >= 0.5
    ratios = _rrss(net, theta, x, X[confident], y[confident])
    assert len(ratios) >= 20
    assert np.mean(ratios) <= 1e-2


def test_rrss_sweep_monotone_and_stable(gauss_corpus):
    # width-64 model trained on the default corpus
    from conftest import META_CFG
    from gradsel.trainer import meta_train

    net = Network(ModelConfig(input_dim=10, hidden_dims=(64,), activation="tanh",
                              num_classes=2, init_scale=0.5, seed=7))
    theta = meta_train(net, gauss_corpus, META_CFG).params
    samples = _first(gauss_corpus.target.val, 40)
    distances = [0.0025, 0.005, 0.01, 0.025]
    rows = rrss_sweep(net, theta, *samples, distances, 10, seed=1)
    means = [r["mean_rrss"] for r in rows]
    assert all(a <= b for a, b in zip(means, means[1:]))
    # doubling the direction count moves the means by < 2 standard errors
    rows2 = rrss_sweep(net, theta, *samples, distances, 20, seed=2)
    for r1, r2 in zip(rows, rows2):
        se = max(r1["std_rrss"] / math.sqrt(10), 1e-18)
        assert abs(r1["mean_rrss"] - r2["mean_rrss"]) <= 2 * (se + r2["std_rrss"] / math.sqrt(20))


def test_rrss_sweep_rejects_negative_distance(gauss_net, theta_star, gauss_corpus):
    with pytest.raises(ValueError):
        rrss_sweep(gauss_net, theta_star, *_first(gauss_corpus.target.val, 5), [-0.1], 2, seed=0)


def test_cache_file_roundtrip(tmp_path, cache):
    path = tmp_path / "cache.bin"
    save_cache(path, cache)
    back = load_cache(path)
    # load rebuilds the P the rows were projected by from the header's seed
    assert np.array_equal(back.P, cache.P) and not back.P.flags.writeable
    assert back.theta_star_digest == cache.theta_star_digest
    assert back.projector_seed == cache.projector_seed
    _assert_same_entries(back, cache)
    # byte-identical on rewrite
    path2 = tmp_path / "cache2.bin"
    save_cache(path2, cache)
    assert path.read_bytes() == path2.read_bytes()


def _assert_same_entries(a, b):
    assert a.digest() == b.digest()
    for field in ("task_id", "b", "g_proj"):
        assert np.array_equal(getattr(a, field), getattr(b, field)), field


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**16), n_tasks=st.integers(1, 3), n_train=st.integers(1, 4),
       dim=st.integers(1, 6), hidden=st.sampled_from([(), (3,), (5, 2)]), multi=st.booleans(),
       d=st.integers(1, 8))
def test_built_cache_equals_its_loaded_copy(seed, n_tasks, n_train, dim, hidden, multi, d):
    # build_cache holds the numbers load_cache reads back from save_cache's file
    net = Network(ModelConfig(input_dim=dim, hidden_dims=hidden, activation="relu" if multi else "tanh",
                              num_classes=10 if multi else 2, num_positions=2 if multi else 1, seed=seed))
    rng = np.random.default_rng(seed)

    def task(tid):
        labels = rng.integers(10, size=(n_train + 2, 2)) if multi else rng.integers(2, size=n_train + 2)
        return _task(tid, list(zip(rng.standard_normal((n_train + 2, dim)), labels)), n_train)

    corpus = Corpus([task(t) for t in range(1, n_tasks + 1)], task(0), {"kind": "toy"})
    cache = build_cache(net, net.init_params(), corpus, gaussian_projection(net.param_count, d, seed), seed)
    with tempfile.TemporaryDirectory() as tmp:
        save_cache(Path(tmp) / "cache.bin", cache)
        _assert_same_entries(load_cache(Path(tmp) / "cache.bin"), cache)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**16), n=st.integers(1, 5), dim=st.integers(1, 6),
       hidden=st.sampled_from([(), (3,), (5, 2)]), activation=st.sampled_from(["tanh", "relu"]),
       d=st.integers(1, 8))
def test_binary_rows_of_the_two_labels_are_exact_negations(seed, n, dim, hidden, activation, d):
    # a binary margin is the logit signed by the label, so the row of
    # (x, label 1) is the row of (x, label 0) negated, in b and in g, exactly
    net = Network(ModelConfig(input_dim=dim, hidden_dims=hidden, activation=activation, seed=seed))
    rng = np.random.default_rng(seed)
    theta = net.init_params() + 0.1 * rng.standard_normal(net.param_count)
    X = rng.standard_normal((n, dim))
    split = (np.vstack([X, X]), np.repeat(np.array([1, 0]), n))
    corpus = Corpus([TaskDataset(1, split, split)], TaskDataset(0, split, split), {"kind": "toy"})
    cache = build_cache(net, theta, corpus, gaussian_projection(net.param_count, d, seed), seed)
    for lo in range(0, len(cache.b), 2 * n):  # task 1, the target, the target's val rows
        ones, zeros = slice(lo, lo + n), slice(lo + n, lo + 2 * n)
        assert np.array_equal(cache.b[ones], -cache.b[zeros])
        assert np.array_equal(cache.g_proj[ones], -cache.g_proj[zeros])


def test_build_cache_rejects_gradients_beyond_float32():
    # finite in float64 but beyond float32's range as the cache stores it:
    # build_cache refuses the entry, as load_cache would refuse it in a file
    corpus = _mini_corpus(n_train=3)
    corpus.target.val[0][1] *= 1e39
    net = _linear_net()
    row = len(corpus.mixture("train")[1]) + 1  # the target's second val row
    with pytest.raises(ValueError, match=re.escape(f"non-finite b or projected gradient in row {row} (task id -1)") + "$"):
        build_cache(net, net.init_params(), corpus, gaussian_projection(net.param_count, 3, 0), 0)


def test_cache_file_rejects_injected_and_garbage(tmp_path):
    # a P with no seed (here the identity) cannot be rebuilt at load, so it
    # is not saved
    corpus = _mini_corpus()
    net = _linear_net()
    theta = net.init_params()
    cache = build_cache(net, theta, corpus, np.eye(net.param_count), None)
    with pytest.raises(ValueError, match="gaussian_projection"):
        save_cache(tmp_path / "x.bin", cache)
    assert not (tmp_path / "x.bin").exists()
    bad = tmp_path / "bad.bin"
    bad.write_bytes(b"NOPE" + b"\x00" * 100)
    with pytest.raises(ValueError):
        load_cache(bad)


@pytest.mark.parametrize(
    "field, row, value",
    [("g_proj", 3, np.nan), ("b", 5, np.inf), ("val_g_proj", 0, -np.inf), ("val_b", 1, np.nan)],
)
def test_load_cache_rejects_nonfinite_values(tmp_path, cache, field, row, value):
    # the solver trusts its inputs, so a NaN or inf in any train or val
    # record is refused at load; a val_* field names the row-th target-val row
    if field.startswith("val_"):
        field, row = field.removeprefix("val_"), int(np.flatnonzero(cache.task_id == TARGET_VAL_ID)[row])
    damaged = getattr(cache, field).copy()
    damaged[row] = value
    path = tmp_path / "cache.bin"
    save_cache(path, dataclasses.replace(cache, **{field: damaged}))
    message = f"{path}: non-finite b or projected gradient in row {row} (task id {cache.task_id[row]})"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        load_cache(path)


def test_task_ids_beyond_the_records_16_bits_are_refused(tmp_path, cache, monkeypatch):
    # cache.bin stores a task id in 16 bits: 32,767 round-trips, and 32,768
    # is refused by name instead of wrapping to -32,768
    path = tmp_path / "cache.bin"
    for tid in (32767, -32768):
        relabeled = dataclasses.replace(cache, task_id=np.where(cache.task_id == 1, tid, cache.task_id))
        save_cache(path, relabeled)
        assert np.array_equal(load_cache(path).task_id, relabeled.task_id)
    path.unlink()
    for tid in (32768, -32769, 40000):
        ids = cache.task_id.copy()
        ids[3:] = tid
        with pytest.raises(ValueError, match=f"^task id {tid} does not fit cache.bin's task ids \\(-32768..32767\\)$"):
            save_cache(path, dataclasses.replace(cache, task_id=ids))
        assert not path.exists()
    # build_cache writes its rows into the same records, so it refuses too,
    # before any chunk of rows is computed
    corpus, net = _mini_corpus(), _linear_net()
    corpus.tasks[0].task_id = 32768

    def no_chunks(count, job):
        raise AssertionError("a chunk of rows was computed")

    monkeypatch.setattr(linearize, "side_by_side", no_chunks)
    with pytest.raises(ValueError, match="^task id 32768 does not fit"):
        build_cache(net, net.init_params(), corpus, gaussian_projection(net.param_count, 3, 0), 0)


def test_build_cache_dimension_check():
    corpus = _mini_corpus()
    net = _linear_net()
    with pytest.raises(ValueError):
        build_cache(net, net.init_params(), corpus, gaussian_projection(net.param_count + 1, 4, 0), 0)


def test_theta_digest_recorded(gauss_net, theta_star, cache):
    assert cache.theta_star_digest == param_digest(theta_star)
