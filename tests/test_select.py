import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gradsel.estimate import Stop, estimate_subsets, prepare
from gradsel.select import (
    Evaluator,
    compute_T,
    ensemble_select,
    estimator_block,
    forward_select,
    fraction_grid_select,
    estimator_evaluator,
    group_cache,
    oracle_evaluator,
    random_ensemble,
    random_subsets,
    scored_in_blocks,
    threshold_select,
)
from gradsel.model import ModelConfig, Network
from gradsel.trainer import fine_tune_subset

from conftest import FINETUNE_CFG, SOLVE_CFG, _cpus


GRID = (0.05, 0.10, 0.15, 0.20)  # the default select.fraction_grid


def fake_evaluator(score_fn):
    return Evaluator(lambda subsets: [(score_fn(s), {}) for s in subsets])


# ---- forward selection ----

def test_single_task_chosen_iff_it_improves():
    improves = fake_evaluator(lambda s: 0.5 if s else 1.0)
    assert forward_select(improves, 1).chosen == {1}
    worsens = fake_evaluator(lambda s: 2.0 if s else 1.0)
    assert forward_select(worsens, 1).chosen == set()


def test_ties_break_to_smallest_id():
    ev = fake_evaluator(lambda s: 0.5 if s else 1.0)  # all candidates tie
    report = forward_select(ev, 5)
    assert 1 in report.chosen
    # second round ties again at no improvement, so only one task is chosen
    assert report.chosen == {1}


def test_forward_select_greedy_trajectory():
    # loss drops by 1 per helpful task in {1, 2}; others add nothing
    def score(s):
        return 10.0 - len(s & {1, 2})

    ev = fake_evaluator(score)
    report = forward_select(ev, 4)
    assert report.chosen == {1, 2}
    assert report.rounds_run == 3  # two improving rounds plus the stopping one
    assert report.trajectory[0] == (frozenset(), 10.0)
    # every candidate evaluation is recorded
    assert len(report.trajectory) == 1 + 4 + 3 + 2


def test_forward_select_budget_formula():
    # strictly improving scores force a run to full depth: task-unit count
    # must hit sum_{i=1..n} (n-i+1) * i = n(n+1)(n+2)/6
    n = 6
    ev = fake_evaluator(lambda s: -len(s))
    report = forward_select(ev, n)
    assert report.chosen == set(range(1, n + 1))
    assert report.budget["task_units"] == n * (n + 1) * (n + 2) // 6
    assert report.budget["calls"] == 1 + sum(n - i + 1 for i in range(1, n + 1))


def test_forward_select_requires_positive_n():
    with pytest.raises(ValueError):
        forward_select(fake_evaluator(lambda s: 0.0), 0)


# ---- non-finite and tied scores ----

NON_FINITE = (math.nan, math.inf, -math.inf)
SCORES = st.one_of(
    st.sampled_from(NON_FINITE + (0.0, 0.5, 1.0)),
    st.floats(min_value=-10, max_value=10, allow_nan=False),
)


def table_evaluator(table):
    # score of a subset looked up by its bitmask over task ids 1..n
    return fake_evaluator(lambda s: table[sum(1 << (t - 1) for t in s)])


@st.composite
def score_tables(draw):
    n = draw(st.integers(min_value=1, max_value=5))
    empty = draw(st.floats(min_value=-10, max_value=10, allow_nan=False, allow_infinity=False))
    rest = draw(st.lists(SCORES, min_size=2**n - 1, max_size=2**n - 1))
    return n, [empty] + rest


@settings(max_examples=200, deadline=None)
@given(score_tables())
def test_forward_select_under_nonfinite_scores(case):
    n, table = case
    report = forward_select(table_evaluator(table), n)
    chosen = frozenset(report.chosen)
    final = table[sum(1 << (t - 1) for t in chosen)]
    # never worse than the empty set, and never a non-finite set
    assert math.isfinite(final)
    assert final <= table[0]
    # growth stopped only because no finite candidate improves
    for t in set(range(1, n + 1)) - chosen:
        value = table[sum(1 << (u - 1) for u in chosen | {t})]
        assert not math.isfinite(value) or value >= final


@settings(max_examples=200, deadline=None)
@given(
    st.integers(min_value=1, max_value=6).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.sets(st.integers(min_value=1, max_value=n)),
            st.sampled_from(NON_FINITE),
            st.lists(st.sampled_from([0.0, 0.5, 1.0, 2.0]), min_size=n + 1, max_size=n + 1),
        )
    )
)
def test_forward_select_ties_skip_poisoned_tasks(case):
    # every clean candidate of a round ties; sets holding a poisoned task
    # score non-finite. Growth must take the clean tasks in id order while
    # the per-size level keeps dropping.
    n, poisoned, poison, level = case

    def score(s):
        return poison if s & poisoned else level[len(s)]

    report = forward_select(fake_evaluator(score), n)
    clean = sorted(set(range(1, n + 1)) - poisoned)
    k = 0
    while k < len(clean) and level[k + 1] < level[k]:
        k += 1
    assert report.chosen == set(clean[:k])


def test_nan_candidate_does_not_stop_growth():
    scores = {frozenset(): 1.0, frozenset({1}): math.nan, frozenset({2}): 0.5}
    report = forward_select(fake_evaluator(lambda s: scores.get(s, 2.0)), 2)
    assert report.chosen == {2}


@pytest.mark.parametrize("bad", NON_FINITE)
def test_forward_select_rejects_nonfinite_empty_score(bad):
    with pytest.raises(ValueError, match="empty set"):
        forward_select(fake_evaluator(lambda s: bad if not s else 0.0), 3)


@settings(max_examples=200, deadline=None)
@given(st.lists(SCORES, min_size=4, max_size=4))
def test_fraction_grid_select_skips_nonfinite(values):
    T = np.linspace(0.1, 2.0, 20)
    by_size = {1: values[0], 2: values[1], 3: values[2], 4: values[3]}
    ev = fake_evaluator(lambda s: by_size[len(s)])
    finite = [(v, i) for i, v in enumerate(values) if math.isfinite(v)]
    if not finite:
        with pytest.raises(ValueError):
            fraction_grid_select(T, ev, GRID)
        return
    chosen = fraction_grid_select(T, ev, GRID)
    best = min(finite)[1]  # lowest finite score, first grid fraction on ties
    assert chosen == set(range(1, best + 2))


# ---- random ensemble ----

def test_random_ensemble_full_set_single_draw():
    ev = fake_evaluator(lambda s: float(len(s)))
    scores = random_ensemble(ev, 5, m=1, alpha_frac=1.0, seed=0)
    assert scores == [(frozenset({1, 2, 3, 4, 5}), 5.0)]


def test_random_ensemble_coverage_statistics():
    # n=4, subsets of size 2: each task appears in about m/2 draws
    ev = fake_evaluator(lambda s: 0.0)
    m = 400
    scores = random_ensemble(ev, 4, m=m, alpha_frac=0.5, seed=1)
    counts = np.zeros(4)
    for subset, _ in scores:
        assert len(subset) == 2
        for t in subset:
            counts[t - 1] += 1
    sigma = np.sqrt(m * 0.5 * 0.5)
    assert np.all(np.abs(counts - m / 2) <= 3 * sigma)


def test_random_ensemble_deterministic_and_validated():
    ev = fake_evaluator(lambda s: 0.0)
    a = random_ensemble(ev, 6, m=10, alpha_frac=0.5, seed=3)
    b = random_ensemble(fake_evaluator(lambda s: 0.0), 6, m=10, alpha_frac=0.5, seed=3)
    assert [s for s, _ in a] == [s for s, _ in b] == random_subsets(6, 3, 10, seed=3)
    with pytest.raises(ValueError):
        random_ensemble(ev, 6, m=0, alpha_frac=0.75, seed=0)
    with pytest.raises(ValueError):
        random_ensemble(ev, 6, m=5, alpha_frac=1.5, seed=0)


# ---- T scores and thresholds ----

def test_compute_T_hand_example():
    scores = [(frozenset({1, 2}), 0.5), (frozenset({1, 3}), 0.7)]
    T = compute_T(scores, 3)
    assert T == pytest.approx([0.6, 0.5, 0.7], abs=1e-15)


def test_compute_T_constant_scores():
    scores = [(frozenset({1, 2}), 0.4), (frozenset({2, 3}), 0.4), (frozenset({1, 3}), 0.4)]
    assert compute_T(scores, 3) == pytest.approx([0.4, 0.4, 0.4], abs=1e-15)


def test_compute_T_uncovered_task_named():
    with pytest.raises(ValueError, match="task 3"):
        compute_T([(frozenset({1, 2}), 0.5)], 3)


@settings(max_examples=50, deadline=None)
@given(st.permutations(range(6)))
def test_compute_T_permutation_invariant(order):
    rng = np.random.default_rng(0)
    subsets = [frozenset({1, 2}), frozenset({2, 3}), frozenset({1, 3}),
               frozenset({1}), frozenset({2}), frozenset({3})]
    scores = [(s, float(rng.standard_normal())) for s in subsets]
    base = compute_T(scores, 3)
    shuffled = [scores[i] for i in order]
    assert np.allclose(compute_T(shuffled, 3), base, atol=1e-15)


def test_compute_T_full_subset_shifts_all_counts():
    scores = [(frozenset({1, 2}), 0.5), (frozenset({1, 3}), 0.7)]
    with_full = scores + [(frozenset({1, 2, 3}), 1.0)]
    T = compute_T(with_full, 3)
    assert T == pytest.approx([(0.5 + 0.7 + 1.0) / 3, (0.5 + 1.0) / 2, (0.7 + 1.0) / 2], abs=1e-15)


@settings(max_examples=200, deadline=None)
@given(
    st.integers(min_value=1, max_value=4).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.lists(st.tuples(st.frozensets(st.integers(1, n), min_size=1), SCORES), max_size=8),
        )
    )
)
def test_compute_T_skips_nonfinite_scores(case):
    n, scores = case
    finite = [(s, v) for s, v in scores if math.isfinite(v)]
    uncovered = set(range(1, n + 1)).difference(*(s for s, _ in finite))
    if uncovered:
        with pytest.raises(ValueError, match=f"task {min(uncovered)} is not covered by any finite"):
            compute_T(scores, n)
        return
    T = compute_T(scores, n)
    assert np.array_equal(T, compute_T(finite, n))  # the non-finite scores add nothing
    for t in range(1, n + 1):
        covering = [v for s, v in finite if t in s]
        assert T[t - 1] == pytest.approx(sum(covering) / len(covering))


@settings(max_examples=100, deadline=None)
@given(st.sets(st.sampled_from([frozenset({1, 2}), frozenset({1, 3}), frozenset({2, 3})])), st.sampled_from(NON_FINITE))
def test_ensemble_select_builds_T_from_finite_scores(poisoned, bad):
    # draws of a 3-task ensemble whose subset is in poisoned score
    # non-finite; RE must go on from the finite draws, or name a task none
    # of them covers
    weight = {1: 0.1, 2: 0.5, 3: 0.9}

    def score(s):
        return bad if s in poisoned else sum(weight[t] for t in s)

    def run():
        return ensemble_select(fake_evaluator(score), 3, GRID, m=20, alpha_frac=2 / 3, seed=1)

    draws = random_ensemble(fake_evaluator(lambda s: 0.0), 3, m=20, alpha_frac=2 / 3, seed=1)
    covered = set().union(*(s for s, _ in draws if s not in poisoned))
    if covered != {1, 2, 3}:
        with pytest.raises(ValueError, match="finite-scored subset"):
            run()
        return
    report = run()
    assert report.budget["nonfinite"] == sum(s in poisoned for s, _ in draws)
    finite = [(s, v) for s, v in report.trajectory if math.isfinite(v)]
    assert np.array_equal(report.t_scores, compute_T(finite, 3))
    assert report.chosen == threshold_select(report.t_scores, fraction=GRID[0])


def test_a_bad_grid_fraction_fails_before_any_subset_is_scored():
    scored = []
    ev = fake_evaluator(lambda s: scored.append(s) or 0.0)
    for grid in [(0.5, 1.5), (0.0,), (-0.1, 0.2), (float("nan"),)]:
        with pytest.raises(ValueError, match=r"fraction must be in \(0, 1\]"):
            ensemble_select(ev, 4, grid, m=50, alpha_frac=0.5, seed=0)
    assert scored == []


def test_threshold_modes():
    T = np.array([0.6, 0.5, 0.7])
    assert threshold_select(T, fraction=1.0) == {1, 2, 3}
    assert threshold_select(T, fraction=1 / 3) == {2}
    with pytest.raises(ValueError):
        threshold_select(T, fraction=0.0)
    with pytest.raises(ValueError):
        threshold_select(np.array([0.5, np.nan]), fraction=1.0)


def test_threshold_fraction_ties_break_by_id():
    T = np.array([0.5, 0.5, 0.5, 0.1])
    assert threshold_select(T, fraction=0.5) == {4, 1}


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=1, max_value=4))
def test_lowering_scores_keeps_task_selected(task):
    # fraction-mode monotonicity: lowering one task's score in every covering
    # subset never removes it from the selection
    rng = np.random.default_rng(5)
    subsets = [frozenset(int(t) + 1 for t in rng.choice(4, size=2, replace=False))
               for _ in range(12)]
    scores = [(s, float(rng.uniform(1, 2))) for s in subsets]
    try:
        base_T = compute_T(scores, 4)
    except ValueError:
        return
    chosen_before = threshold_select(base_T, fraction=0.5)
    lowered = [(s, v - 1.5 if task in s else v) for s, v in scores]
    chosen_after = threshold_select(compute_T(lowered, 4), fraction=0.5)
    if task in chosen_before:
        assert task in chosen_after


# ---- evaluator plumbing ----

def test_evaluator_swap_structural_identity():
    table = {}

    def score(s):
        return table.setdefault(s, 10.0 - len(s & {2, 4}) + 0.01 * len(s))

    fs_a = forward_select(fake_evaluator(score), 5)
    fs_b = forward_select(fake_evaluator(score), 5)
    assert fs_a.trajectory == fs_b.trajectory
    assert fs_a.chosen == fs_b.chosen

    re_a = random_ensemble(fake_evaluator(score), 5, m=20, alpha_frac=0.6, seed=7)
    re_b = random_ensemble(fake_evaluator(score), 5, m=20, alpha_frac=0.6, seed=7)
    assert re_a == re_b


def test_evaluator_counters():
    ev = fake_evaluator(lambda s: 1.0)
    ev(frozenset({1, 2}))
    ev(frozenset({3}))
    assert ev.budget["calls"] == 2
    assert ev.budget["task_units"] == 3
    assert ev.budget["fine_tune_runs"] == 0


def test_evaluator_counts_nonfinite_scores():
    values = iter([1.0, math.nan, math.inf, -math.inf, 0.5])
    ev = fake_evaluator(lambda s: next(values))
    for t in range(1, 6):
        ev(frozenset({t}))
    assert ev.budget["calls"] == 5
    assert ev.budget["nonfinite"] == 3


def test_estimator_evaluator_counts_nonconverged_solves(gauss_net, theta_star, gauss_corpus, cache):
    subsets = [frozenset({1, 2, 3}), frozenset(), frozenset({4})]
    for max_iters, expected in ((100, 0), (1, len(subsets))):
        cfg = dataclasses.replace(SOLVE_CFG, max_iters=max_iters)
        ev = estimator_evaluator(gauss_net, theta_star, cache, gauss_corpus.target.val, cfg)
        for s in subsets:
            ev(s)
        assert ev.budget["nonconverged"] == expected
        assert ev.budget["nonfinite"] == 0


def test_estimator_evaluator_never_finetunes(gauss_net, theta_star, gauss_corpus, cache):
    ev = estimator_evaluator(gauss_net, theta_star, cache, gauss_corpus.target.val, SOLVE_CFG)
    ev(frozenset({1, 2, 3}))
    ev(frozenset())
    assert ev.budget["fine_tune_runs"] == 0
    assert ev.budget["calls"] == 2


@settings(max_examples=20, deadline=None)
@given(
    st.lists(st.frozensets(st.integers(min_value=1, max_value=20)), min_size=1, max_size=4),
    st.integers(min_value=1, max_value=6),
)
def test_estimator_scores_are_estimate_subset(gauss_net, theta_star, gauss_corpus, cache, subsets, max_iters):
    # few iterations, so some solves stop short and the budget must say so
    cfg = dataclasses.replace(SOLVE_CFG, max_iters=max_iters)
    problem = prepare(cache, cfg)
    for linearized in (False, True):
        ev = estimator_evaluator(gauss_net, theta_star, cache, gauss_corpus.target.val, cfg, linearized)
        stops = []
        for s in subsets:
            [result] = estimate_subsets(gauss_net, theta_star, problem, [s], gauss_corpus.target.val, linearized)
            assert ev(s) == result.f_hat
            stops.append(result.stop)
        assert ev.budget["calls"] == len(subsets)
        assert ev.budget["nonconverged"] == stops.count(Stop.MAX_ITERS)
        assert ev.budget["linesearch_failures"] == stops.count(Stop.LINESEARCH)


def _scored_one_by_one_and_in_batches(make, subsets, monkeypatch):
    """(scores, budget) of make() scoring subsets by single calls, then by
    one batch in 1 and in 4 workers, as float hex strings and key-value
    lists, so equal means equal bit for bit and in order."""
    runs = []
    for cpus, batch in ((1, False), (1, True), (4, True)):
        _cpus(monkeypatch, cpus)
        ev = make()
        scores = ev.many(subsets) if batch else [ev(s) for s in subsets]
        runs.append(([float(v).hex() for v in scores], list(ev.budget.items())))
    return runs


def test_estimator_batch_is_single_calls_bit_for_bit(gauss_net, theta_star, gauss_corpus, cache, monkeypatch):
    # max_iters 2, so some solves stop short and the scorer adds to budgets.
    # 150 distinct subsets are four blocks of 38, scored in 1 and in 4 workers to
    # the same bits. A single call is a block of one, and a gemm's bits
    # depend on its width, so single calls agree with the batch to rounding,
    # and their budgets exactly
    rng = np.random.default_rng(3)
    drawn = [frozenset(int(t) for t in rng.choice(np.arange(1, 21), size=k, replace=False))
             for k in rng.integers(1, 21, size=145)]
    subsets = [frozenset(), frozenset({1}), frozenset({2, 3, 4}), frozenset(range(1, 16)), frozenset({7, 19}), *drawn] * 2
    assert len(set(subsets)) > 128
    for linearized in (False, True):
        cfg = dataclasses.replace(SOLVE_CFG, max_iters=2)
        runs = _scored_one_by_one_and_in_batches(
            lambda: estimator_evaluator(gauss_net, theta_star, cache, gauss_corpus.target.val, cfg, linearized),
            subsets, monkeypatch,
        )
        assert runs[2] == runs[1]
        assert runs[1][1] == runs[0][1]
        single, batch = ([float.fromhex(v) for v in scores] for scores, _ in runs[:2])
        np.testing.assert_allclose(batch, single, rtol=1e-12, atol=0)
        assert dict(runs[0][1])["nonconverged"] > 0


def test_oracle_batch_is_single_calls_bit_for_bit(gauss_net, theta_star, gauss_corpus, monkeypatch):
    subsets = [frozenset({1, 2}), frozenset({15}), frozenset(), frozenset({3, 9, 11}), frozenset({20})]
    runs = _scored_one_by_one_and_in_batches(
        lambda: oracle_evaluator(gauss_net, theta_star, gauss_corpus, FINETUNE_CFG), subsets, monkeypatch
    )
    assert runs[1] == runs[0] and runs[2] == runs[0]
    assert dict(runs[0][1])["fine_tune_runs"] == len(subsets)


def test_a_failing_batch_raises_the_first_failing_subset(monkeypatch):
    def score(s):
        if len(s) > 1:
            raise ValueError(f"cannot score {sorted(s)}")
        return 1.0

    for cpus in (1, 4):
        _cpus(monkeypatch, cpus)
        ev = fake_evaluator(score)
        with pytest.raises(ValueError, match=r"cannot score \[2, 3\]"):
            ev.many([frozenset({1}), frozenset({2, 3}), frozenset(), frozenset({1, 4})])
        assert ev.budget["calls"] == 0


def test_a_repeated_subset_is_scored_once_and_counted_each_time(monkeypatch):
    # blocks of 2 distinct subsets in order of first appearance, the same in
    # 1 and 3 workers; each repeat gets its subset's score and budget again
    a, b, c = frozenset({1}), frozenset({2, 3}), frozenset()
    batch = [a, b, a, c, b, a]

    def score(block):  # a score that tells the blocks apart
        return [(10.0 * len(block) + i, {"fine_tune_runs": 1, "forward_passes": len(s)}) for i, s in enumerate(block)]

    for cpus in (1, 3):
        _cpus(monkeypatch, cpus)
        seen = []
        ev = Evaluator(lambda block: seen.append(block) or score(block), lambda n: 2)
        assert ev.many(batch) == [20.0, 21.0, 20.0, 10.0, 21.0, 20.0]
        if cpus == 1:
            assert seen == [[a, b], [c]]
        assert ev.budget["calls"] == ev.budget["fine_tune_runs"] == 6
        assert ev.budget["forward_passes"] == ev.budget["task_units"] == 7


def test_estimator_batches_are_cut_into_at_most_four_blocks(monkeypatch):
    # max(10, ceil(n / 4)) subsets a block: from the batch length alone,
    # cut in order, the same blocks at 1 CPU and at 3
    cuts = {1: [1], 9: [9], 10: [10], 11: [10, 1], 20: [10, 10], 100: [25] * 4, 977: [245, 245, 245, 242]}
    assert [estimator_block(n) for n in cuts] == [10, 10, 10, 10, 10, 25, 245]
    for n, want in cuts.items():
        for cpus in (1, 3):
            _cpus(monkeypatch, cpus)
            # each item scored as (its block's first item, the block's length)
            blocks = dict(scored_in_blocks(list(range(n)), lambda block: [(block[0], len(block))] * len(block)))
            assert list(blocks.values()) == want
            assert list(blocks) == [sum(want[:i]) for i in range(len(want))]


def test_estimator_batches_score_the_same_at_1_and_3_cpus(gauss_net, theta_star, gauss_corpus, cache, monkeypatch):
    # an FS first round (two blocks of 10) and 100 distinct RE draws (four
    # blocks of 25): each batch's scores are its blocks' estimate_subsets
    # scores, bit for bit, whether one process scores them or three
    val = gauss_corpus.target.val
    problem = prepare(cache, SOLVE_CFG)
    draws = list(dict.fromkeys(random_subsets(20, 15, 120, 6)))[:100]
    for batch in ([frozenset({t}) for t in range(1, 21)], draws):
        size = estimator_block(len(batch))
        want = [
            r.f_hat.hex()
            for lo in range(0, len(batch), size)
            for r in estimate_subsets(gauss_net, theta_star, problem, batch[lo : lo + size], val)
        ]
        for cpus in (1, 3):
            _cpus(monkeypatch, cpus)
            ev = estimator_evaluator(gauss_net, theta_star, cache, val, SOLVE_CFG)
            assert [v.hex() for v in ev.many(batch)] == want


def test_oracle_evaluator_budget_matches_trainer(gauss_net, theta_star, gauss_corpus):
    ev = oracle_evaluator(gauss_net, theta_star, gauss_corpus, FINETUNE_CFG)
    subsets = [frozenset({1, 2}), frozenset({15})]
    for s in subsets:
        ev(s)
    expected = sum(
        fine_tune_subset(gauss_net, theta_star, s, gauss_corpus, FINETUNE_CFG).forward_passes
        for s in subsets
    )
    assert ev.budget["forward_passes"] == expected
    assert ev.budget["fine_tune_runs"] == 2
    assert ev.budget["task_units"] == 3


# ---- integrated selection on the planted corpus ----

def test_forward_select_avoids_harmful_tasks(gauss_net, theta_star, gauss_corpus, cache):
    ev = estimator_evaluator(gauss_net, theta_star, cache, gauss_corpus.target.val, SOLVE_CFG)
    report = forward_select(ev, gauss_corpus.n_tasks)
    harmful = set(gauss_corpus.meta["harmful_ids"])
    assert report.chosen
    assert not (report.chosen & harmful)


def test_fraction_grid_select_picks_min(gauss_corpus):
    T = np.linspace(0.1, 2.0, gauss_corpus.n_tasks)
    calls = []

    def score(s):
        calls.append(s)
        return float(min(s))  # favors sets containing task 1

    chosen = fraction_grid_select(T, fake_evaluator(score), GRID)
    assert chosen == {1}  # the 0.05 fraction's set; every set holds task 1
    assert len(calls) == 4


@pytest.mark.parametrize("n, sizes", [(4, [1]), (10, [1, 2])])
def test_fraction_grid_select_scores_each_threshold_set_once(n, sizes):
    # at n = 4 every default fraction selects the same one task, at n = 10
    # two sets; each is scored once, in grid order, and the first still wins
    T = np.linspace(0.1, 2.0, n)
    ev = fake_evaluator(lambda s: float(min(s)))
    assert fraction_grid_select(T, ev, GRID) == {1}
    assert ev.budget["calls"] == len(sizes)
    assert ev.budget["task_units"] == sum(sizes)


def test_select_ds_single_group(gauss_net, theta_star, gauss_corpus, cache):
    grouped = group_cache(cache, 1, seed=0)
    assert np.array_equal(grouped.task_id, np.minimum(cache.task_id, 1))  # target keeps 0
    assert grouped.g_proj is cache.g_proj and grouped.digest() != cache.digest()
    ev = estimator_evaluator(gauss_net, theta_star, grouped, gauss_corpus.target.val, SOLVE_CFG)
    assert forward_select(ev, 1).chosen in (set(), {1})


def test_grouped_cache_gets_its_own_start(cache):
    # a regrouped cache's Problem holds one gradient sum and one row list per
    # group id (the target's 0 included), and the source's x_all: the same
    # train rows, in the same order
    source, grouped = prepare(cache, SOLVE_CFG), prepare(group_cache(cache, 5, seed=0), SOLVE_CFG)
    assert len(grouped.sums) == 6 and len(source.sums) == 21
    tid = grouped.cache.task_id
    assert [rows.tolist() for rows in grouped.id_rows] == [np.flatnonzero(tid == t).tolist() for t in range(6)]
    assert np.array_equal(grouped.x_all, source.x_all)


def test_both_evaluators_refuse_ids_that_name_no_task(gauss_net, theta_star, gauss_corpus, cache):
    # an id outside 1..n is refused by the estimator as by the oracle, not
    # scored as if the subset lacked it
    estimator = estimator_evaluator(gauss_net, theta_star, cache, gauss_corpus.target.val, SOLVE_CFG)
    oracle = oracle_evaluator(gauss_net, theta_star, gauss_corpus, FINETUNE_CFG)
    for subset, bad in (({1, 99}, 99), ({0}, 0)):
        for ev in (estimator, oracle):
            with pytest.raises(ValueError, match=rf"^unknown task ids in subset: \[{bad}\]$"):
                ev(subset)
            assert ev.budget["calls"] == 0


def test_select_ds_reduces_to_plain_fs_on_separated_gradients():
    # plant perfectly task-separated cached gradients: clustering must recover
    # the task partition, making FS over the regrouped cache structurally
    # identical to plain FS
    from gradsel.linearize import build_cache
    from gradsel.taskgen import Corpus, TaskDataset

    rng = np.random.default_rng(13)
    dim = 6

    def task(tid, n=10):
        rows = [(rng.standard_normal(dim), rng.integers(2)) for _ in range(n)]
        X, y = np.array([x for x, _ in rows]), np.array([label for _, label in rows])
        return TaskDataset(tid, (X, y), (X[:2], y[:2]))

    corpus = Corpus([task(1), task(2)], task(0), {"kind": "toy"})
    net = Network(ModelConfig(input_dim=dim, hidden_dims=(), num_classes=2, seed=1))
    theta = net.init_params()
    cache = build_cache(net, theta, corpus, np.eye(net.param_count), None)

    # overwrite source gradients with two tight, well-separated clusters
    for i in range(len(cache.task_id)):
        tid = int(cache.task_id[i])
        if tid <= 0:
            continue
        g = 0.02 * rng.standard_normal(cache.d)
        g[tid - 1] += 1.0
        cache.g_proj[i] = g

    def fs(c):
        return forward_select(estimator_evaluator(net, theta, c, corpus.target.val, SOLVE_CFG), 2)

    grouped = group_cache(cache, 2, seed=5)
    # the groups are the tasks, up to relabeling
    pairs = set(zip(cache.task_id.tolist(), grouped.task_id.tolist()))
    assert len(pairs) == len(set(grouped.task_id.tolist())) == 4  # two groups, the target, its val rows
    ds_report, plain_report = fs(grouped), fs(cache)
    # group ids are an arbitrary relabeling of task ids, so compare the
    # multisets of evaluated scores and the chosen-set scores
    ds_scores = sorted(round(v, 10) for _, v in ds_report.trajectory)
    plain_scores = sorted(round(v, 10) for _, v in plain_report.trajectory)
    assert ds_scores == plain_scores
    assert len(ds_report.chosen) == len(plain_report.chosen)


def test_selection_report_roundtrip(tmp_path):
    from gradsel.select import SelectionReport, load_report, save_report

    report = SelectionReport(
        method="re",
        chosen={2, 5},
        trajectory=[(frozenset(), 0.9), (frozenset({2, 5}), 0.4)],
        t_scores=np.array([0.8, 0.4, 0.9, 0.7, 0.5]),
        budget={"calls": 2, "task_units": 2, "forward_passes": 0, "fine_tune_runs": 0},
        rounds_run=2,
    )
    path = tmp_path / "selection.txt"
    save_report(path, report, digests={"config": "ab" * 32})
    back = load_report(path)
    assert back.method == "re"
    assert back.chosen == {2, 5}
    assert back.trajectory == report.trajectory
    assert np.allclose(back.t_scores, report.t_scores)
    assert back.budget == report.budget
    assert back.rounds_run == 2


@pytest.mark.parametrize("line", ["T 0 0.5", "eval 1,2", "budget calls", "rounds x", "chosen 1 y", "digest config", "xyz"])
def test_load_report_rejects_malformed_lines(tmp_path, line):
    from gradsel import artifact
    from gradsel.select import load_report

    path = tmp_path / "selection.txt"
    artifact.write(path, "selection", 1, {}, f"method fs\n{line}\n".encode())
    with pytest.raises(ValueError, match="line 3"):
        load_report(path)


def test_select_ds_re_excludes_planted_noisy_groups():
    # end-to-end data-selection check on a planted cache: six tight gradient
    # clusters, three of them with unfit entries whose fix direction damages
    # the target val entries; ds-re must drop the damaging groups
    from gradsel.linearize import TARGET_VAL_ID, GradientCache

    rng = np.random.default_rng(21)
    d = 12
    per_group = 30
    clean_groups, noisy_groups = (0, 1, 2), (3, 4, 5)

    g_rows, b_rows = [], []
    for g in range(6):
        e = np.zeros(d)
        e[g] = 1.0
        for _ in range(per_group):
            g_rows.append(e + 0.02 * rng.standard_normal(d))
            # noisy groups are confidently wrong at theta*, clean ones fit
            b_rows.append(1.5 + 0.1 * rng.standard_normal() if g in noisy_groups
                          else -1.5 + 0.1 * rng.standard_normal())
    n = len(g_rows)

    # target val entries: fixing a noisy group's entries moves the solution
    # along +e_g, which lowers these val margins; clean directions help a bit
    val_g, val_b = [], []
    for g in noisy_groups:
        e = np.zeros(d)
        e[g] = -1.0
        for _ in range(10):
            val_g.append(e + 0.02 * rng.standard_normal(d))
            val_b.append(0.0)
    for g in clean_groups:
        e = np.zeros(d)
        e[g] = 0.3
        for _ in range(10):
            val_g.append(e + 0.02 * rng.standard_normal(d))
            val_b.append(0.0)

    planted = GradientCache(
        # a single raw source task, then the target-val rows
        task_id=np.repeat(np.array([1, TARGET_VAL_ID], dtype=np.int64), [n, len(val_b)]),
        b=np.array(b_rows + val_b),
        g_proj=np.array(g_rows + val_g),
        theta_star_digest="0" * 64,
        P=np.eye(d),
        projector_seed=None,
    )

    net = Network(ModelConfig(input_dim=3, hidden_dims=(), num_classes=2, seed=0))

    # the planted cache cannot be lifted to a network, so subsets are scored
    # on its planted target val entries, and no target val data is needed
    grouped = group_cache(planted, 6, seed=4)
    ev = estimator_evaluator(net, net.init_params(), grouped, None, SOLVE_CFG, linearized=True)
    report = ensemble_select(ev, 6, GRID, m=120, alpha_frac=0.34, seed=4)
    # map chosen group ids back to planted membership
    planted_noisy = np.repeat([g in noisy_groups for g in range(6)], per_group)
    chosen_mask = np.isin(grouped.task_id[:n], list(report.chosen))
    excluded = 1.0 - planted_noisy[chosen_mask].sum() / planted_noisy.sum()
    assert excluded >= 0.8


def _majority_purity(groups, helpful):
    """Share of rows whose group's majority (helpful or harmful) they share."""
    return sum(max(helpful[groups == g].sum(), (~helpful[groups == g]).sum()) for g in np.unique(groups)) / len(groups)


def test_gradient_groups_split_helpful_from_harmful_rows(gauss_corpus, cache):
    # ds-* clusters the signed margin gradients the objective reads, so a
    # cluster holds rows that pull the solution the same way: helpful tasks
    # (1-10) and harmful ones (11-20) rarely share one
    source = cache.task_id > 0
    helpful = np.isin(cache.task_id[source], gauss_corpus.meta["helpful_ids"])
    grouped = group_cache(cache, 20, 6)
    assert _majority_purity(grouped.task_id[source], helpful) >= 0.7
