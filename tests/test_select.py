import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gradsel.select import (
    Evaluator,
    compute_T,
    forward_select,
    fraction_grid_select,
    estimator_evaluator,
    oracle_evaluator,
    random_ensemble,
    select_ds,
    threshold_select,
)
from gradsel.model import ModelConfig, Network
from gradsel.trainer import fine_tune_subset

from conftest import FINETUNE_CFG, SOLVE_CFG


def fake_evaluator(score_fn, kind="estimator"):
    return Evaluator(kind=kind, _score=score_fn)


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
            fraction_grid_select(T, ev)
        return
    chosen, q = fraction_grid_select(T, ev)
    best = min(finite)[1]  # lowest finite score, first grid fraction on ties
    assert q == (0.05, 0.10, 0.15, 0.20)[best]
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
    assert [s for s, _ in a] == [s for s, _ in b]
    with pytest.raises(ValueError):
        random_ensemble(ev, 6, m=0)
    with pytest.raises(ValueError):
        random_ensemble(ev, 6, m=5, alpha_frac=1.5)


def test_random_ensemble_spec_defaults():
    import inspect

    sig = inspect.signature(random_ensemble)
    assert sig.parameters["m"].default == 1000
    assert sig.parameters["alpha_frac"].default == 0.75


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


def test_threshold_modes():
    T = np.array([0.6, 0.5, 0.7])
    assert threshold_select(T, gamma=0.4) == set()
    assert threshold_select(T, gamma=0.65) == {1, 2}
    assert threshold_select(T, fraction=1.0) == {1, 2, 3}
    assert threshold_select(T, fraction=1 / 3) == {2}
    with pytest.raises(ValueError):
        threshold_select(T, fraction=0.0)
    with pytest.raises(ValueError):
        threshold_select(T)
    with pytest.raises(ValueError):
        threshold_select(T, gamma=0.5, fraction=0.5)
    with pytest.raises(ValueError):
        threshold_select(np.array([0.5, np.nan]), gamma=1.0)


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

    fs_a = forward_select(fake_evaluator(score, kind="estimator"), 5)
    fs_b = forward_select(fake_evaluator(score, kind="oracle"), 5)
    assert fs_a.trajectory == fs_b.trajectory
    assert fs_a.chosen == fs_b.chosen

    re_a = random_ensemble(fake_evaluator(score, kind="estimator"), 5, m=20, alpha_frac=0.6, seed=7)
    re_b = random_ensemble(fake_evaluator(score, kind="oracle"), 5, m=20, alpha_frac=0.6, seed=7)
    assert re_a == re_b


def test_evaluator_counters():
    ev = fake_evaluator(lambda s: 1.0)
    ev(frozenset({1, 2}))
    ev(frozenset({3}))
    assert ev.call_count == 2
    assert ev.task_units == 3
    assert ev.fine_tune_runs == 0


def test_estimator_evaluator_never_finetunes(gauss_net, theta_star, gauss_corpus, projector, cache):
    ev = estimator_evaluator(gauss_net, theta_star, projector, cache, gauss_corpus.target.val, SOLVE_CFG)
    ev(frozenset({1, 2, 3}))
    ev(frozenset())
    assert ev.kind == "estimator"
    assert ev.fine_tune_runs == 0
    assert ev.call_count == 2


def test_oracle_evaluator_budget_matches_trainer(gauss_net, theta_star, gauss_corpus):
    ev = oracle_evaluator(gauss_net, theta_star, gauss_corpus, FINETUNE_CFG)
    subsets = [frozenset({1, 2}), frozenset({15})]
    for s in subsets:
        ev(s)
    expected = sum(
        fine_tune_subset(gauss_net, theta_star, s, gauss_corpus, FINETUNE_CFG).forward_passes
        for s in subsets
    )
    assert ev.forward_pass_count == expected
    assert ev.fine_tune_runs == 2
    assert ev.task_units == 3


# ---- integrated selection on the planted corpus ----

def test_forward_select_avoids_harmful_tasks(gauss_net, theta_star, gauss_corpus, projector, cache):
    ev = estimator_evaluator(gauss_net, theta_star, projector, cache, gauss_corpus.target.val, SOLVE_CFG)
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

    chosen, q = fraction_grid_select(T, fake_evaluator(score))
    assert 1 in chosen
    assert q in (0.05, 0.10, 0.15, 0.20)
    assert len(calls) == 4


def test_select_ds_single_group(gauss_net, theta_star, gauss_corpus, projector, cache):
    report = select_ds(
        gauss_net, theta_star, projector, cache, gauss_corpus,
        n_groups=1, downstream="fs", solve_cfg=SOLVE_CFG, seed=0,
    )
    assert report.method == "ds-fs"
    assert report.chosen in (set(), {1})


def test_select_ds_reduces_to_plain_fs_on_separated_gradients():
    # plant perfectly task-separated cached gradients: clustering must recover
    # the task partition, making ds-fs structurally identical to plain fs
    from gradsel.linearize import build_cache
    from gradsel.model import Sample
    from gradsel.project import identity_projector
    from gradsel.taskgen import Corpus, TaskDataset

    rng = np.random.default_rng(13)
    dim = 6

    def task(tid, n=10):
        samples = [Sample(rng.standard_normal(dim), int(rng.integers(2)), tid) for _ in range(n)]
        return TaskDataset(tid, samples, samples[:2])

    corpus = Corpus([task(1), task(2)], task(0), {"kind": "toy"})
    net = Network(ModelConfig(input_dim=dim, hidden_dims=(), num_classes=2, seed=1))
    theta = net.init_params()
    proj = identity_projector(net.param_count)
    cache = build_cache(net, theta, corpus, proj)

    # overwrite source gradients with two tight, well-separated clusters
    for i in range(cache.n_entries):
        tid = int(cache.task_id[i])
        if tid == 0:
            continue
        g = 0.02 * rng.standard_normal(cache.d)
        g[tid - 1] += 1.0
        cache.g_proj[i] = g

    ds_report = select_ds(net, theta, proj, cache, corpus, n_groups=2,
                          downstream="fs", solve_cfg=SOLVE_CFG, seed=5)
    plain_report = forward_select(
        estimator_evaluator(net, theta, proj, cache, corpus.target.val, SOLVE_CFG), 2
    )
    # group ids are an arbitrary relabeling of task ids, so compare the
    # multisets of evaluated scores and the chosen-set scores
    ds_scores = sorted(round(v, 10) for _, v in ds_report.trajectory)
    plain_scores = sorted(round(v, 10) for _, v in plain_report.trajectory)
    assert ds_scores == plain_scores
    assert len(ds_report.chosen) == len(plain_report.chosen)


def test_select_ds_validates_downstream(gauss_net, theta_star, gauss_corpus, projector, cache):
    with pytest.raises(ValueError):
        select_ds(gauss_net, theta_star, projector, cache, gauss_corpus,
                  n_groups=2, downstream="bogus", solve_cfg=SOLVE_CFG)


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


def test_select_ds_re_excludes_planted_noisy_groups():
    # end-to-end data-selection check on a planted cache: six tight gradient
    # clusters, three of them with unfit entries whose fix direction damages
    # the target val entries; ds-re must drop the damaging groups
    from gradsel.linearize import GradientCache, build_cache
    from gradsel.model import Sample
    from gradsel.project import identity_projector
    from gradsel.taskgen import Corpus, TaskDataset

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
        sample_ref=np.arange(n),
        task_id=np.ones(n, dtype=np.int64),  # a single raw source task
        y=np.ones(n),
        b=np.array(b_rows),
        g_proj=np.array(g_rows),
        val_y=np.ones(len(val_b)),
        val_b=np.array(val_b),
        val_g_proj=np.array(val_g),
        p=d,
        d=d,
        theta_star_digest="0" * 64,
        projector_seed=0,
        projector_mode="gaussian",
    )

    samples = [Sample(np.zeros(3), 0, 1) for _ in range(n)]
    corpus = Corpus(
        [TaskDataset(1, samples, samples[:2])],
        TaskDataset(0, [Sample(np.zeros(3), 0, 0)], [Sample(np.zeros(3), 0, 0)]),
        {"kind": "toy"},
    )
    net = Network(ModelConfig(input_dim=3, hidden_dims=(), num_classes=2, seed=0))
    proj = identity_projector(net.param_count)

    report = select_ds(
        net, net.init_params(), proj, planted, corpus, n_groups=6, downstream="re",
        solve_cfg=SOLVE_CFG, seed=4, m=120, alpha_frac=0.34, fraction=0.5, linearized=True,
    )
    assert report.method == "ds-re"
    # map chosen group ids back to planted membership via the cluster run
    from gradsel.taskgen import cluster_into_groups

    groups = cluster_into_groups(planted, 6, seed=4).group_of
    planted_noisy = np.repeat([g in noisy_groups for g in range(6)], per_group)
    chosen_mask = np.isin(groups + 1, list(report.chosen))
    excluded = 1.0 - planted_noisy[chosen_mask].sum() / planted_noisy.sum()
    assert excluded >= 0.8
