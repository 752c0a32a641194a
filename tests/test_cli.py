import fcntl
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import gradsel.artifact
import gradsel.estimate
from gradsel.bench import exp_addition, report_to_csv_lines
from gradsel.cli import (
    DEFAULT_CONFIG,
    StageError,
    config_digest,
    main,
    parse_config_text,
    recipe,
    resolve_config,
    solve_config,
)
from gradsel import linearize
from gradsel.linearize import TARGET_VAL_ID, load_cache, row_task_ids, save_cache
from gradsel.taskgen import gen_multitask_gaussian, gen_noisy_addition, load_corpus, save_corpus
from gradsel.trainer import load_checkpoint, save_checkpoint

from conftest import TINY, _cpus


def run(args, tmp_path):
    return main(["--out", str(tmp_path), *args])


@pytest.mark.parametrize("kind", ["gaussian", "addition"])
def test_gen_refuses_task_ids_cache_bin_cannot_hold(tmp_path, capsys, kind):
    # refused before any sample is drawn, not by cache after meta-training
    assert run(["gen", "--corpus.kind", kind, "--corpus.n", "32768"], tmp_path) == 2
    assert capsys.readouterr().err.splitlines() == [
        "gradsel gen: task id 32768 does not fit cache.bin's task ids (-32768..32767)"
    ]
    assert not (tmp_path / "corpus.txt").exists()


def test_a_corpus_file_written_another_way_needs_a_new_checkpoint(tiny_run, tmp_path, capsys):
    # the checkpoint records the digest of the corpus file it was trained
    # on; a valid rewrite with other bytes is another corpus
    shutil.copytree(tiny_run, tmp_path, dirs_exist_ok=True)
    path = tmp_path / "corpus.txt"
    header, body = gradsel.artifact.read(path, "corpus", 1, {})
    line, rest = body.split(b"\n", 1)
    gradsel.artifact.write(path, "corpus", 1, header, line.replace(b"p", b"0p", 1) + b"\n" + rest)
    capsys.readouterr()
    assert run(["cache", *TINY], tmp_path) == 2
    assert capsys.readouterr().err.splitlines() == [
        "gradsel cache: checkpoint.bin: trained on a different corpus; re-run 'meta-train'"
    ]


@pytest.mark.parametrize("label", ["7", "-1"])
def test_a_binary_label_outside_0_and_1_fails_meta_train_in_one_line(tiny_run, tmp_path, capsys, label):
    # such a label used to train on a wrong loss, and meta-train exited 0
    shutil.copytree(tiny_run, tmp_path, dirs_exist_ok=True)
    path = tmp_path / "corpus.txt"
    header, body = gradsel.artifact.read(path, "corpus", 1, {})
    line, rest = body.split(b"\n", 1)
    tid, split, _, feats = line.split()
    gradsel.artifact.write(path, "corpus", 1, header, b" ".join([tid, split, label.encode(), feats]) + b"\n" + rest)
    capsys.readouterr()
    assert run(["meta-train", *TINY], tmp_path) == 2
    assert capsys.readouterr().err.splitlines() == ["gradsel meta-train: labels must be class indices in 0..1"]


def test_config_file_and_overrides(tmp_path):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text("corpus.n = 7\n# comment line\nproject.d = 33\n")
    cfg = resolve_config(str(cfg_file), {"corpus.n": "9"})
    assert cfg["corpus.n"] == "9"  # flag beats file
    assert cfg["project.d"] == "33"
    assert cfg["corpus.kind"] == str(DEFAULT_CONFIG["corpus.kind"])


def test_unknown_config_key_rejected(tmp_path):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text("corpus.bogus = 1\n")
    with pytest.raises(StageError, match="unknown config key"):
        resolve_config(str(cfg_file), {})


def test_removed_solver_method_key_rejected():
    # damped Newton is the only solver, so there is no method to choose
    with pytest.raises(StageError, match="unknown config key 'estimate.method'"):
        resolve_config(None, {"estimate.method": "lbfgs"})


@pytest.mark.parametrize(
    "key", ["train.optimizer", "train.restore_best", "finetune.optimizer", "finetune.restore_best"]
)
def test_removed_train_keys_rejected(tmp_path, capsys, key):
    # meta-training runs SGD with best-epoch restore, and the addition recipe
    # picks Adam by corpus kind, so no key chooses the optimizer
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text(f"{key} = adam\n")
    with pytest.raises(StageError, match=f"unknown config key '{key}'"):
        resolve_config(str(cfg_file), {})
    with pytest.raises(SystemExit):
        main(["--help"])
    assert f"--{key}" not in capsys.readouterr().out


def test_recipe_per_corpus_kind():
    cfg = resolve_config(None, {})
    gaussian = gen_multitask_gaussian(n=2, samples_per_task=4, dim=10, frac_helpful=0.5,
                                      rotation_deg=90.0, label_noise=0.0, seed=0)
    model, train = recipe(cfg, gaussian)
    assert (model.input_dim, model.num_classes, model.num_positions) == (10, 2, 1)
    assert (train.optimizer, train.early_stop_patience, train.max_epochs) == ("sgd", 30, 300)
    # five-digit addition: two one-hot operands in, five digit heads out
    model, train = recipe(cfg, gen_noisy_addition(2, 1, 5, 4, seed=0))
    assert (model.input_dim, model.num_classes, model.num_positions, model.activation) == (100, 10, 5, "relu")
    assert (train.optimizer, train.early_stop_patience, train.max_epochs) == ("adam", None, 120)


def test_malformed_config_line():
    with pytest.raises(StageError, match="line 2"):
        parse_config_text("corpus.n = 3\nnot a pair\n")


def test_pipeline_end_to_end(tmp_path, capsys):
    assert run(["gen", *TINY], tmp_path) == 0
    assert (tmp_path / "corpus.txt").exists()
    assert (tmp_path / "config.txt").exists()

    assert run(["meta-train", *TINY], tmp_path) == 0
    assert (tmp_path / "checkpoint.bin").exists()

    assert run(["cache", *TINY], tmp_path) == 0
    assert (tmp_path / "cache.bin").exists()

    assert run(["estimate", "--subset", "1,2", "--subset", "3", *TINY], tmp_path) == 0
    lines = (tmp_path / "estimates.csv").read_text().strip().splitlines()
    assert lines[0].startswith("subset,")
    assert len(lines) == 3

    assert run(["select", *TINY], tmp_path) == 0
    report = (tmp_path / "selection.txt").read_text()
    assert report.startswith("gradsel selection v1 ")
    assert "budget fine_tune_runs 0" in report

    assert run(["report", *TINY], tmp_path) == 0
    assert (tmp_path / "report" / "summary.txt").exists()


def test_missing_artifact_names_stage(tmp_path, capsys):
    assert run(["gen", *TINY], tmp_path) == 0
    code = run(["cache", *TINY], tmp_path)
    err = capsys.readouterr().err
    assert code == 2
    assert "run 'meta-train' first" in err


def test_estimate_unknown_task_id(tmp_path, capsys):
    assert run(["gen", *TINY], tmp_path) == 0
    assert run(["meta-train", *TINY], tmp_path) == 0
    assert run(["cache", *TINY], tmp_path) == 0
    code = run(["estimate", "--subset", "1,9", *TINY], tmp_path)
    err = capsys.readouterr().err
    assert code == 2
    assert err.splitlines() == ["gradsel estimate: unknown task ids in subset: [9]"]
    assert not (tmp_path / "estimates.csv").exists()


def test_report_on_empty_run_dir(tmp_path, capsys):
    code = run(["report", *TINY], tmp_path)
    assert code == 2
    assert not (tmp_path / "report").exists()


def test_gen_idempotent_byte_identical(tmp_path):
    assert run(["gen", *TINY], tmp_path) == 0
    first = (tmp_path / "corpus.txt").read_bytes()
    assert run(["gen", *TINY], tmp_path) == 0
    assert (tmp_path / "corpus.txt").read_bytes() == first


def test_cache_idempotent_byte_identical(tmp_path):
    for stage in (["gen"], ["meta-train"], ["cache"]):
        assert run([*stage, *TINY], tmp_path) == 0
    first = (tmp_path / "cache.bin").read_bytes()
    assert run(["cache", *TINY], tmp_path) == 0
    assert (tmp_path / "cache.bin").read_bytes() == first


def test_estimate_idempotent_byte_identical(tmp_path):
    for stage in (["gen"], ["meta-train"], ["cache"]):
        assert run([*stage, *TINY], tmp_path) == 0
    assert run(["estimate", "--subset", "1,2", *TINY], tmp_path) == 0
    first = (tmp_path / "estimates.csv").read_bytes()
    assert run(["estimate", "--subset", "1,2", *TINY], tmp_path) == 0
    assert (tmp_path / "estimates.csv").read_bytes() == first


def test_corpus_change_invalidates_checkpoint(tmp_path, capsys):
    for stage in (["gen"], ["meta-train"]):
        assert run([*stage, *TINY], tmp_path) == 0
    # regenerate the corpus with another seed: cache must refuse
    assert run(["gen", "--corpus.seed", "99", *TINY], tmp_path) == 0
    code = run(["cache", *TINY], tmp_path)
    err = capsys.readouterr().err
    assert code == 2
    assert "different corpus" in err


def test_lock_file_blocks_concurrent_use(tmp_path, capsys):
    # another holder of the flock on .lock blocks the stage; once it lets go
    # the stage runs
    with open(tmp_path / ".lock", "w") as holder:
        fcntl.flock(holder, fcntl.LOCK_EX)
        code = run(["gen", *TINY], tmp_path)
        err = capsys.readouterr().err
        assert code == 2
        assert "locked" in err
        assert len(err.splitlines()) == 1
    assert run(["gen", *TINY], tmp_path) == 0


def test_leftover_lock_file_does_not_block(tmp_path):
    # a .lock file that no live process holds, as a killed run leaves it,
    # is not a lock
    (tmp_path / ".lock").write_text("left by a killed run\n")
    assert run(["gen", *TINY], tmp_path) == 0
    assert run(["gen", *TINY], tmp_path) == 0


def test_out_env_var(tmp_path, monkeypatch):
    monkeypatch.setenv("GRADSEL_OUT", str(tmp_path / "envrun"))
    assert main(["gen", *TINY]) == 0
    assert (tmp_path / "envrun" / "corpus.txt").exists()


def test_seed_flag_overrides_all_seeds(tmp_path):
    assert run(["gen", "--seed", "123", *TINY], tmp_path) == 0
    text = (tmp_path / "config.txt").read_text()
    assert "corpus.seed = 123" in text
    assert "train.seed = 123" in text


def test_config_digest_stable():
    cfg_a = resolve_config(None, {})
    cfg_b = resolve_config(None, {})
    assert config_digest(cfg_a) == config_digest(cfg_b)
    cfg_c = resolve_config(None, {"corpus.n": "5"})
    assert config_digest(cfg_c) != config_digest(cfg_a)


def test_provenance_embedded(tmp_path):
    assert run(["gen", *TINY], tmp_path) == 0
    header = (tmp_path / "config.txt").read_text().splitlines()[0]
    assert header.startswith("# digest ")


def test_config_reflects_last_writing_stage(tmp_path):
    assert run(["gen", *TINY], tmp_path) == 0
    assert run(["meta-train", *TINY, "--train.max_epochs", "7"], tmp_path) == 0
    text = (tmp_path / "config.txt").read_text()
    assert "train.max_epochs = 7" in text


def test_bench_rrss(tmp_path):
    for stage in (["gen"], ["meta-train"], ["cache"]):
        assert run([*stage, *TINY], tmp_path) == 0
    args = ["bench", "--exp", "rrss", "--bench.rrss_directions", "4", *TINY]
    assert run(args, tmp_path) == 0
    bench_dir = tmp_path / "bench"
    assert (bench_dir / "rrss_scalars.csv").exists()
    assert (bench_dir / "rrss_rrss.csv").exists()
    assert (bench_dir / "summary.txt").exists()
    assert run(["report", *TINY], tmp_path) == 0
    summary = (tmp_path / "report" / "summary.txt").read_text()
    assert "[rrss]" in summary


def test_default_pipeline_within_budget(tmp_path):
    # the un-overridden defaults run the whole selection pipeline quickly
    # (spec budget: 10 CPU-minutes; measured: seconds)
    import time

    start = time.monotonic()
    for stage in ("gen", "meta-train", "cache", "select", "report"):
        assert main(["--out", str(tmp_path), stage]) == 0
    elapsed = time.monotonic() - start
    assert elapsed < 600
    report = (tmp_path / "selection.txt").read_text()
    assert "budget fine_tune_runs 0" in report


def test_addition_pipeline(tmp_path):
    args = [
        "--corpus.kind", "addition",
        "--corpus.n", "4",
        "--corpus.n_clean", "2",
        "--corpus.digits", "3",
        "--corpus.samples_per_task", "20",
        "--corpus.target_samples", "12",
        "--addition.hidden_dims", "16",
        "--addition.epochs", "5",
        "--project.d", "15",
    ]
    for stage in ("gen", "meta-train", "cache"):
        assert run([stage, *args], tmp_path) == 0
    assert run(["select", *args, "--select.method", "re", "--select.m", "20"], tmp_path) == 0
    report = (tmp_path / "selection.txt").read_text()
    assert "method re" in report


def test_select_re_method(tmp_path):
    for stage in (["gen"], ["meta-train"], ["cache"]):
        assert run([*stage, *TINY], tmp_path) == 0
    assert run(["select", *TINY, "--select.method", "re", "--select.m", "40"], tmp_path) == 0
    report = (tmp_path / "selection.txt").read_text()
    assert "method re" in report
    assert any(line.startswith("T ") for line in report.splitlines())


def test_bench_speedup_small(tmp_path):
    for stage in (["gen"], ["meta-train"], ["cache"]):
        assert run([*stage, *TINY], tmp_path) == 0
    assert run(["bench", "--exp", "speedup", *TINY], tmp_path) == 0
    scalars = (tmp_path / "bench" / "speedup_scalars.csv").read_text()
    rows = dict(line.split(",") for line in scalars.strip().splitlines()[1:])
    assert float(rows["oracle_task_units"]) == float(rows["predicted_task_units"])
    assert float(rows["estimator_fine_tune_runs"]) == 0.0


def test_bench_addition_small(tmp_path):
    # the addition experiment builds its own corpus, model and cache, so it
    # runs in an empty run directory
    args = [
        "bench", "--exp", "addition", *TINY,
        "--corpus.n", "4",
        "--corpus.n_clean", "2",
        "--corpus.digits", "3",
        "--addition.hidden_dims", "16",
        "--addition.epochs", "3",
        "--addition.samples_per_group", "15",
        "--addition.target_samples", "10",
        "--addition.m", "40",
    ]
    assert run(args, tmp_path) == 0
    scalars = (tmp_path / "bench" / "addition_scalars.csv").read_text()
    rows = dict(line.split(",") for line in scalars.strip().splitlines()[1:])
    assert 0.0 <= float(rows["auroc_T"]) <= 1.0
    assert (tmp_path / "bench" / "addition_groups.csv").exists()


def test_bench_addition_scores_the_run_the_stages_build(tmp_path):
    # bench builds its addition run with the gen, meta-train and cache
    # stages' calls, seeded B, B + 1 and B + 2: scoring the stages' run
    # gives the same groups table
    S, T, B = 30, 10, 9
    sizes = [
        "--corpus.n", "4", "--corpus.n_clean", "2", "--corpus.digits", "2",
        "--addition.hidden_dims", "16", "--addition.epochs", "3", "--project.d", "20",
    ]
    staged = tmp_path / "staged"
    for argv in (
        ["gen", "--corpus.kind", "addition", "--corpus.samples_per_task", str(S),
         "--corpus.target_samples", str(T), "--corpus.seed", str(B)],
        ["meta-train"],
        ["cache", "--project.seed", str(B + 1)],
    ):
        assert main(["--out", str(staged), *argv, *sizes]) == 0
    corpus = load_corpus(staged / "corpus.txt")
    net, theta = load_checkpoint(staged / "checkpoint.bin", corpus.digest())
    cache = load_cache(staged / "cache.bin", theta, row_task_ids(corpus))
    cfg = resolve_config(None, {})
    report = exp_addition(net, theta, cache, corpus, solve_config(cfg), m=12, alpha_frac=0.15, seed=B + 2)
    assert report.seeds == {"corpus": B, "projector": B + 1, "subsets": B + 2}

    argv = ["bench", "--exp", "addition", *sizes, "--addition.samples_per_group", str(S),
            "--addition.target_samples", str(T), "--addition.m", "12", "--bench.seed", str(B)]
    assert run(argv, tmp_path) == 0
    groups = (tmp_path / "bench" / "addition_groups.csv").read_text().splitlines()
    assert groups == report_to_csv_lines(report)["addition_groups"]


def test_target_samples_zero_reads_alike_in_gen_and_bench(tmp_path, monkeypatch):
    # 0 means "as many as a source group" on both routes to an addition corpus
    sizes = ["--corpus.n", "4", "--corpus.n_clean", "2", "--corpus.digits", "2"]
    assert run(["gen", "--corpus.kind", "addition", "--corpus.samples_per_task", "20",
                "--corpus.target_samples", "0", *sizes], tmp_path) == 0
    staged = load_corpus(tmp_path / "corpus.txt").target
    built = []

    class Built(Exception):
        pass

    def first_stage_only(*args, **kwargs):
        built.append(gen_noisy_addition(*args, **kwargs).target)
        raise Built  # skip the training that follows

    monkeypatch.setattr("gradsel.cli.gen_noisy_addition", first_stage_only)
    with pytest.raises(Built):
        run(["bench", "--exp", "addition", *sizes, "--addition.samples_per_group", "20",
             "--addition.target_samples", "0"], tmp_path / "bench-run")
    assert [len(s[1]) for s in (built[0].train, built[0].val)] == [len(s[1]) for s in (staged.train, staged.val)]


@pytest.mark.parametrize("n_clean", ["0", "4", "5"])
def test_bench_addition_refuses_a_single_group_before_training(tmp_path, capsys, monkeypatch, n_clean):
    # AUROC needs clean and noisy groups; without both, bench stops before
    # it generates or trains anything
    def unreachable(*args, **kwargs):
        raise AssertionError("an unscorable addition run was built")

    monkeypatch.setattr("gradsel.cli.gen_noisy_addition", unreachable)
    monkeypatch.setattr("gradsel.cli.meta_train", unreachable)
    assert run(["bench", "--exp", "addition", "--corpus.n", "4", "--corpus.n_clean", n_clean], tmp_path) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and "corpus.n_clean" in lines[0]
    assert not (tmp_path / "bench").exists()


def test_one_digit_addition_runs_in_memory_and_from_its_file(tmp_path):
    # bench builds its addition corpus in memory, the stages load theirs from
    # corpus.txt; a one-digit corpus has one label per sample either way
    args = [
        *TINY,
        "--corpus.kind", "addition",
        "--corpus.n_clean", "2",
        "--corpus.digits", "1",
        "--addition.hidden_dims", "16",
        "--addition.epochs", "2",
        "--addition.samples_per_group", "40",
        "--addition.target_samples", "10",
        "--addition.m", "20",
    ]
    assert run(["bench", "--exp", "addition", *args], tmp_path) == 0
    assert (tmp_path / "bench" / "addition_scalars.csv").exists()
    for stage in ("gen", "meta-train", "cache", "select"):
        assert run([stage, *args], tmp_path) == 0


def test_bench_relerr_small(tmp_path):
    for stage in (["gen"], ["meta-train"], ["cache"]):
        assert run([*stage, *TINY], tmp_path) == 0
    assert run(["bench", "--exp", "relerr", *TINY, "--bench.relerr_subsets", "4"], tmp_path) == 0
    scalars = (tmp_path / "bench" / "relerr_scalars.csv").read_text()
    rows = dict(line.split(",") for line in scalars.strip().splitlines()[1:])
    assert float(rows["m"]) == 4.0
    assert float(rows["relative_error"]) >= 0.0
    assert float(rows["mean_abs_relative_error"]) >= abs(float(rows["mean_signed_relative_error"]))
    assert -1.0 <= float(rows["spearman_rho"]) <= 1.0
    assert (tmp_path / "bench" / "relerr_subsets.csv").exists()


@pytest.mark.parametrize("name", ["typo", "structure"])
def test_bench_unknown_experiment_runs_nothing(tmp_path, capsys, name):
    # the names are checked before any artifact is loaded or experiment run
    assert run(["bench", "--exp", "rrss", "--exp", name, *TINY], tmp_path) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith(f"gradsel bench: unknown experiment '{name}'")
    assert not (tmp_path / "bench").exists()


def _flip_middle_byte(data):
    data = bytearray(data)
    data[len(data) // 2] ^= 1
    return bytes(data)


DAMAGE = {
    "cut_to_10_bytes": lambda data: data[:10],
    "cut_in_half": lambda data: data[: len(data) // 2],
    "drop_last_byte": lambda data: data[:-1],
    "append_3_bytes": lambda data: data + b"xyz",
    "flip_middle_byte": _flip_middle_byte,
}

DAMAGED_ARTIFACTS = [
    ("corpus.txt", "select", False),
    ("checkpoint.bin", "select", True),
    ("cache.bin", "select", True),
    ("selection.txt", "report", False),
]

# the container version each loader reads
VERSION = {"corpus.txt": 1, "checkpoint.bin": 2, "cache.bin": 2}

# the container kind and a header key its loader reads
HEADER_KEY = {"corpus.txt": ("corpus", "dim"), "checkpoint.bin": ("checkpoint", "corpus_digest"),
              "cache.bin": ("cache", "d")}

# the container kind, a header key its loader reads, and a value of the wrong
# JSON type for it
MISTYPED = {"corpus.txt": ("corpus", "dim", "5"), "checkpoint.bin": ("checkpoint", "corpus_digest", True),
            "cache.bin": ("cache", "projector_seed", "5")}

# checkpoint.bin's model fields, each with a value its loader refuses (one
# ModelConfig refuses, or one of the wrong JSON type), and the refusal
MODEL_HEADER = {
    "model_activation": ("activation", "gelu", "activation must be one of ('tanh', 'relu')"),
    "model_hidden_dims": ("hidden_dims", "320", "header key 'hidden_dims' is '320', not of type list"),
    "model_input_dim": ("input_dim", 10.5, "header key 'input_dim' is 10.5, not of type int"),
}


@pytest.mark.parametrize(
    "artifact, stage, binary, damage",
    [(*a, damage) for damage in DAMAGE for a in DAMAGED_ARTIFACTS]
    + [(*a, "drop_header_key") for a in DAMAGED_ARTIFACTS if a[0] in HEADER_KEY]
    + [(*a, "mistype_header_key") for a in DAMAGED_ARTIFACTS if a[0] in MISTYPED]
    + [(*a, "replace_by_directory") for a in DAMAGED_ARTIFACTS]
    + [("checkpoint.bin", "select", True, damage) for damage in MODEL_HEADER],
)
def test_damaged_artifact_fails_in_one_line(tiny_run, tmp_path, capsys, artifact, stage, binary, damage):
    shutil.copytree(tiny_run, tmp_path, dirs_exist_ok=True)
    path = tmp_path / artifact
    data = path.read_bytes()
    if not binary:  # a text artifact stays text, its checksum on its own last line
        assert data.decode().splitlines()[-1].startswith("sha256 ")
    if damage == "drop_header_key":  # rewritten whole, so its checksum holds
        kind, key = HEADER_KEY[artifact]
        header, body = gradsel.artifact.read(path, kind, VERSION[artifact], {})
        del header[key]
        gradsel.artifact.write(path, kind, VERSION[artifact], header, body)
    elif damage == "mistype_header_key" or damage in MODEL_HEADER:
        kind, key, value = ("checkpoint", *MODEL_HEADER[damage][:2]) if damage in MODEL_HEADER else MISTYPED[artifact]
        header, body = gradsel.artifact.read(path, kind, VERSION[artifact], {})
        gradsel.artifact.write(path, kind, VERSION[artifact], {**header, key: value}, body)
    elif damage == "replace_by_directory":  # open() fails, not the parse
        path.unlink()
        path.mkdir()
    else:
        path.write_bytes(DAMAGE[damage](data))
    capsys.readouterr()
    assert run([stage, *TINY], tmp_path) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1, lines
    assert lines[0].startswith(f"gradsel {stage}: {artifact}: ")
    if damage == "drop_header_key":
        assert f"header has no {key!r} key" in lines[0]
    if damage == "mistype_header_key":
        assert f"header key {key!r} is {value!r}, not of type " in lines[0]
    if damage == "replace_by_directory":
        assert ": Is a directory; re-run '" in lines[0]
    if damage in MODEL_HEADER:
        assert lines[0] == f"gradsel {stage}: {artifact}: {MODEL_HEADER[damage][2]}; re-run 'meta-train'"


def test_an_out_that_names_a_file_fails_in_one_line(tmp_path, capsys):
    out = tmp_path / "run"
    out.write_text("")
    assert main(["--out", str(out), "gen", *TINY]) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("gradsel gen: ") and "File exists" in lines[0], lines
    assert out.read_text() == ""


def test_cache_projected_for_another_model_fails_in_one_line(tiny_run, tmp_path, capsys):
    # the checksum holds, but the header's p is not the model's parameter
    # count; it is refused before P is made, which at p = 10**12 would not fit
    # in memory
    shutil.copytree(tiny_run, tmp_path, dirs_exist_ok=True)
    path = tmp_path / "cache.bin"
    header, body = gradsel.artifact.read(path, "cache", 2, {})
    for p in (header["p"] + 1, 10**12):
        gradsel.artifact.write(path, "cache", 2, {**header, "p": p}, body)
        capsys.readouterr()
        assert run(["select", *TINY], tmp_path) == 2
        lines = capsys.readouterr().err.splitlines()
        assert lines == [
            f"gradsel select: cache.bin: projected for {p} parameters, but the model has {header['p']}; re-run 'cache'"
        ]
    # a d whose records would not fit in memory, and no records: the
    # corpus's row count pins the body's length, so it is refused by its
    # length before P is made
    rows = len(body) // (10 + 4 * header["d"])
    gradsel.artifact.write(path, "cache", 2, {**header, "d": 10**6}, b"")
    capsys.readouterr()
    assert run(["select", *TINY], tmp_path) == 2
    assert capsys.readouterr().err.splitlines() == [
        f"gradsel select: cache.bin: holds 0 bytes of records, not the corpus's {rows} rows at d = 1000000; "
        "re-run 'cache'"
    ]


def _load_cache(path):
    """cache.bin loaded for the checkpoint and corpus beside it."""
    corpus = load_corpus(path.parent / "corpus.txt")
    theta = load_checkpoint(path.parent / "checkpoint.bin", corpus.digest())[1]
    return load_cache(path, theta, row_task_ids(corpus))


def _rewrite_cache(path, edit):
    """Rewrite cache.bin through the container with its records passed
    through edit, so the checksum and the header hold."""
    header, body = gradsel.artifact.read(path, "cache", 2, {})
    records = np.frombuffer(body, dtype=linearize._record_dtype(header["d"])).copy()
    gradsel.artifact.write(path, "cache", 2, header, edit(records).tobytes())


def test_cache_with_more_train_entries_than_the_corpus_fails_in_one_line(tiny_run, tmp_path, capsys):
    # 30 more target train rows than the corpus has
    shutil.copytree(tiny_run, tmp_path, dirs_exist_ok=True)
    rows = len(_load_cache(tmp_path / "cache.bin").task_id)
    _rewrite_cache(tmp_path / "cache.bin", lambda r: np.concatenate([r, np.repeat(r[r["tid"] == 0][:1], 30)]))
    capsys.readouterr()
    assert run(["select", *TINY], tmp_path) == 2
    lines = capsys.readouterr().err.splitlines()
    assert lines == [
        f"gradsel select: cache.bin: holds {(rows + 30) * (10 + 4 * 20)} bytes of records, "
        f"not the corpus's {rows} rows at d = 20; re-run 'cache'"
    ]


@pytest.mark.parametrize("a, b", [(1, 2), (1, TARGET_VAL_ID)])
def test_cache_with_two_tasks_ids_swapped_fails_in_one_line(tiny_run, tmp_path, capsys, a, b):
    # the row total and the checksum hold; tasks 1 and 2 have equal row
    # counts, task 1 and the target-val rows do not
    shutil.copytree(tiny_run, tmp_path, dirs_exist_ok=True)

    def swap(records):
        tid = records["tid"].copy()
        records["tid"][tid == a], records["tid"][tid == b] = b, a
        return records

    _rewrite_cache(tmp_path / "cache.bin", swap)
    capsys.readouterr()
    assert run(["select", *TINY], tmp_path) == 2
    lines = capsys.readouterr().err.splitlines()
    assert lines == ["gradsel select: cache.bin: its rows' task ids are not the corpus's; re-run 'cache'"]


def test_cache_v1_fails_in_one_line(tiny_run, tmp_path, capsys):
    # a cache.bin from before the one-table layout is refused by its version
    shutil.copytree(tiny_run, tmp_path, dirs_exist_ok=True)
    path = tmp_path / "cache.bin"
    header, body = gradsel.artifact.read(path, "cache", 2, {})
    gradsel.artifact.write(path, "cache", 1, {**header, "n_train": 1}, body)
    capsys.readouterr()
    assert run(["select", *TINY], tmp_path) == 2
    lines = capsys.readouterr().err.splitlines()
    assert lines == ["gradsel select: cache.bin: holds a cache v1 artifact, not cache v2; re-run 'cache'"]


def test_cache_beyond_float32_fails_cache_in_one_line(tmp_path, capsys):
    # relu target-val features scaled by 1e39: their projected gradients are
    # finite in float64 but not as the float32 values cache.bin stores, so the
    # cache stage stops instead of writing a file every later stage refuses
    relu = [*TINY, "--model.activation", "relu"]
    for stage in ("gen", "meta-train"):
        assert run([stage, *relu], tmp_path) == 0
    corpus = load_corpus(tmp_path / "corpus.txt")
    net, params = load_checkpoint(tmp_path / "checkpoint.bin", corpus.digest())
    corpus.target.val[0][:] *= 1e39
    save_corpus(tmp_path / "corpus.txt", corpus)
    save_checkpoint(tmp_path / "checkpoint.bin", net, params, load_corpus(tmp_path / "corpus.txt").digest())
    capsys.readouterr()
    assert run(["cache", *relu], tmp_path) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("gradsel cache: non-finite b or projected gradient in row ")
    assert lines[0].endswith(" (task id -1)")  # a target-val row
    assert not (tmp_path / "cache.bin").exists()


def test_cache_cut_at_any_record_boundary_fails_in_one_line(tiny_run, tmp_path, capsys):
    # every prefix that ends between records, from the bare header line to
    # the last record without its checksum line
    shutil.copytree(tiny_run, tmp_path, dirs_exist_ok=True)
    path = tmp_path / "cache.bin"
    data = path.read_bytes()
    cache = _load_cache(path)
    start = data.index(b"\n") + 1
    size = 10 + 4 * cache.d
    n_records = len(cache.task_id)
    assert len(data) == start + n_records * size + len(b"sha256 \n") + 64
    for k in range(n_records + 1):
        path.write_bytes(data[: start + k * size])
        capsys.readouterr()
        assert run(["select", *TINY], tmp_path) == 2
        lines = capsys.readouterr().err.splitlines()
        assert lines == ["gradsel select: cache.bin: checksum mismatch (damaged or not a gradsel artifact); re-run 'cache'"]


def _budget(path):
    return {
        parts[1]: int(parts[2])
        for parts in (line.split() for line in path.read_text().splitlines())
        if parts[0] == "budget"
    }


def test_solver_health_reaches_selection_and_report(tiny_run, tmp_path, capsys):
    shutil.copytree(tiny_run, tmp_path, dirs_exist_ok=True)
    budget = _budget(tmp_path / "selection.txt")
    assert budget["nonconverged"] == 0
    assert budget["nonfinite"] == 0
    # one Newton iteration cannot reach grad_tol: every solve is flagged
    assert run(["select", *TINY, "--estimate.max_iters", "1"], tmp_path) == 0
    budget = _budget(tmp_path / "selection.txt")
    assert budget["calls"] > 0
    assert budget["nonconverged"] == budget["calls"]
    assert budget["linesearch_failures"] == 0
    assert budget["nonfinite"] == 0
    capsys.readouterr()
    assert run(["report", *TINY], tmp_path) == 0
    assert f"'nonconverged': {budget['calls']}" in capsys.readouterr().out


def test_line_search_failures_are_told_apart_from_max_iters(tiny_run, tmp_path, monkeypatch):
    # no candidate ever decreases the objective: every solve stops in its
    # first line search, and the budget and the ledger say so. The
    # objective is lowest at each solve's start (a subset's shared start, or
    # x = 0 for the all-rows solve), and its gradient never shrinks, so a
    # fixed step never halves it: every subset goes on by damped Newton from
    # its start.
    shutil.copytree(tiny_run, tmp_path, dirs_exist_ok=True)
    starts = set()
    starts_of, value_grad_of = gradsel.estimate._starts, gradsel.estimate._block_value_grad

    def recorded(*args):
        X = starts_of(*args)
        starts.update(x.tobytes() for x in X)
        return X

    def uphill(segments, X, which, n, lam, keep):
        value = [float(x.any() and x.tobytes() not in starts) for x in X]
        return np.array(value), np.ones_like(X), value_grad_of(segments, X, which, n, lam, keep)[2]

    monkeypatch.setattr(gradsel.estimate, "_starts", recorded)
    monkeypatch.setattr(gradsel.estimate, "_block_value_grad", uphill)
    assert run(["select", *TINY], tmp_path) == 0
    budget = _budget(tmp_path / "selection.txt")
    assert budget["linesearch_failures"] == budget["calls"] > 0
    assert budget["nonconverged"] == 0
    assert run(["estimate", *TINY, "--subset", "1,2", "--subset", "3"], tmp_path) == 0
    rows = (tmp_path / "estimates.csv").read_text().splitlines()[1:]
    assert [row.rsplit(",", 1)[1] for row in rows] == ["linesearch", "linesearch"]
    monkeypatch.undo()
    assert run(["estimate", *TINY, "--subset", "1,2", "--estimate.max_iters", "1"], tmp_path) == 0
    assert (tmp_path / "estimates.csv").read_text().splitlines()[1].endswith(",max_iters")


@pytest.mark.parametrize("stage", [["select"], ["estimate", "--subset", "1"], ["bench", "--exp", "rrss"]])
def test_nonfinite_cache_fails_in_one_line(tiny_run, tmp_path, capsys, stage):
    shutil.copytree(tiny_run, tmp_path, dirs_exist_ok=True)
    path = tmp_path / "cache.bin"
    cache = _load_cache(path)
    cache.g_proj[2, 1] = np.nan
    cache.b[4] = np.inf
    save_cache(path, cache)
    capsys.readouterr()
    assert run([*stage, *TINY], tmp_path) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith(f"gradsel {stage[0]}: cache.bin: non-finite ")
    assert lines[0].endswith("re-run 'cache'")


def test_nonfinite_checkpoint_fails_cache_in_one_line(tiny_run, tmp_path, capsys):
    # a checkpoint whose corpus digest still matches but whose parameters
    # hold a NaN: the cache stage stops before it writes cache.bin
    shutil.copytree(tiny_run, tmp_path, dirs_exist_ok=True)
    path = tmp_path / "checkpoint.bin"
    trained, built = path.read_bytes(), (tmp_path / "cache.bin").read_bytes()
    corpus_dig = load_corpus(tmp_path / "corpus.txt").digest()
    net, params = load_checkpoint(path, corpus_dig)
    save_checkpoint(path, net, np.where(np.arange(len(params)) == 3, np.nan, params), corpus_dig)
    (tmp_path / "cache.bin").unlink()
    capsys.readouterr()
    assert run(["cache", *TINY], tmp_path) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    assert lines[0] == "gradsel cache: non-finite b or projected gradient in row 0 (task id 1)"
    assert not (tmp_path / "cache.bin").exists()
    # the checkpoint carries its model, so a model flag shapes only the
    # checkpoint meta-train writes: cache writes the same bytes under it
    path.write_bytes(trained)
    assert run(["cache", *TINY, "--model.hidden_dims", "64"], tmp_path) == 0
    assert (tmp_path / "cache.bin").read_bytes() == built
    # a body one parameter short of its model, checksum rewritten: refused
    # by name, not by a parameter-vector length error from inside the network
    save_checkpoint(path, net, params[:-1], corpus_dig)
    capsys.readouterr()
    assert run(["cache", *TINY], tmp_path) == 2
    p = len(params)
    assert capsys.readouterr().err.splitlines() == [
        f"gradsel cache: checkpoint.bin: holds {8 * (p - 1)} bytes of parameters, not its model's {p} float64s; "
        "re-run 'meta-train'"
    ]


@pytest.mark.parametrize("method", ["ds-fs", "ds-re"])
def test_select_ds_with_more_groups_than_source_rows_fails_in_one_line(tiny_run, tmp_path, capsys, method):
    shutil.copytree(tiny_run, tmp_path, dirs_exist_ok=True)
    (tmp_path / "selection.txt").unlink()
    rows = int(np.count_nonzero(_load_cache(tmp_path / "cache.bin").task_id > 0))  # the source rows
    capsys.readouterr()
    assert run(["select", *TINY, "--select.method", method, "--corpus.n", "100"], tmp_path) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith(f"gradsel select: {method} cannot split the cache's source rows")
    assert f"100 groups but only {rows} samples" in lines[0]
    assert not (tmp_path / "selection.txt").exists()


def test_report_rejects_unknown_selection_line(tiny_run, tmp_path, capsys):
    shutil.copytree(tiny_run, tmp_path, dirs_exist_ok=True)
    path = tmp_path / "selection.txt"
    header, body = gradsel.artifact.read(path, "selection", 1, {})
    gradsel.artifact.write(path, "selection", 1, header, body + b"xyz\n")
    capsys.readouterr()
    assert run(["report", *TINY], tmp_path) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("gradsel report: selection.txt: ")
    assert "unknown line kind 'xyz'" in lines[0]


def test_select_with_oracle_evaluator(tiny_run, tmp_path):
    # the brute-force baseline: every score is a real fine-tune
    shutil.copytree(tiny_run, tmp_path, dirs_exist_ok=True)
    assert run(["select", *TINY, "--select.evaluator", "oracle"], tmp_path) == 0
    budget = _budget(tmp_path / "selection.txt")
    assert budget["fine_tune_runs"] > 0
    assert budget["fine_tune_runs"] == budget["calls"]


@pytest.mark.parametrize("flags", [["--select.method", "re"], ["--select.method", "fs"],
                                   ["--select.method", "fs", "--select.evaluator", "oracle"]])
def test_selection_is_the_same_bytes_in_any_number_of_workers(tiny_run, tmp_path, monkeypatch, flags):
    reports = []
    for cpus in (1, 2, 4):
        _cpus(monkeypatch, cpus)
        shutil.copytree(tiny_run, tmp_path / str(cpus))
        assert run(["select", *TINY, *flags], tmp_path / str(cpus)) == 0
        reports.append((tmp_path / str(cpus) / "selection.txt").read_bytes())
    assert reports[1] == reports[0] and reports[2] == reports[0]


@pytest.mark.parametrize("method", ["re", "ds-re"])
def test_select_fraction_grid_applies_to_every_re(tiny_run, tmp_path, method):
    # m draws, then one threshold set per grid fraction
    shutil.copytree(tiny_run, tmp_path, dirs_exist_ok=True)
    argv = ["select", *TINY, "--select.method", method, "--select.m", "20", "--select.fraction_grid", "0.5"]
    assert run(argv, tmp_path) == 0
    assert _budget(tmp_path / "selection.txt")["calls"] == 21


@pytest.mark.parametrize("method", ["re", "fs", "ds-re"])
def test_a_select_stage_prepares_its_problem_once(tiny_run, tmp_path, monkeypatch, method):
    # on one CPU every block is scored in this process, so a Problem built
    # per block, and not once per stage, would be counted here
    shutil.copytree(tiny_run, tmp_path, dirs_exist_ok=True)
    _cpus(monkeypatch, 1)
    calls = []
    prepare = gradsel.estimate.prepare
    monkeypatch.setattr(gradsel.estimate, "prepare", lambda *args: calls.append(args) or prepare(*args))
    assert run(["select", *TINY, "--select.method", method], tmp_path) == 0
    assert len(calls) == 1


@pytest.mark.parametrize(
    "argv, message",
    [
        (["select", "--select.evaluator", "orcale"], "unknown evaluator 'orcale'"),
        (["select", "--select.method", "xx"], "unknown selection method 'xx'"),
        (["meta-train", "--model.activation", "foo"], "config: activation must be one of"),
        (["meta-train", "--train.batch_size", "0"], "config: batch_size must be >= 1"),
        (["estimate", "--subset", "1", "--estimate.ridge_lambda", "-1"], "config: ridge_lambda must be positive"),
        (["cache", "--project.d", "x"], "config project.d: expected int, got 'x'"),
        (["select", "--select.alpha", "0.5.1"], "config select.alpha: expected float, got '0.5.1'"),
        (["meta-train", "--model.hidden_dims", "16,x"], "config model.hidden_dims: expected a list of int"),
        (["select", "--config", "{cfg}"], "unknown config key 'train.optimizer'"),
        # the oracle fine-tunes on tasks; it cannot score clusters of samples
        (["select", "--select.method", "ds-fs", "--select.evaluator", "oracle"], "the oracle cannot score ds-fs"),
        (["select", "--select.method", "ds-re", "--select.evaluator", "oracle"], "the oracle cannot score ds-re"),
        # values the program's own checks reject, each one line like the rest
        (["estimate", "--subset", "1,x"], "invalid literal for int()"),
        (["select", "--select.method", "re", "--select.m", "0"], "m must be >= 1"),
        (["select", "--select.method", "re", "--select.alpha", "0"], "alpha_frac must be in (0, 1]"),
        (["select", "--select.method", "re", "--select.fraction_grid", ","], "the fraction grid is empty"),
        (["bench", "--exp", "relerr", "--bench.relerr_subsets", "0"], "need at least one subset"),
        (["bench", "--exp", "rrss", "--bench.rrss_distances", "-1"], "distances must be non-negative"),
        (["bench", "--exp", "rrss", "--bench.rrss_directions", "0"], "need at least one direction"),
        (["cache", "--project.d", "0"], "p and d must be positive"),
        (["gen", "--corpus.n", "1"], "need at least 2 source tasks"),
        (["gen", "--corpus.kind", "addition", "--corpus.n_clean", "50"], "n_clean must not exceed n_groups"),
        (["select", "--select.method", "ds-fs", "--corpus.n", "0"], "ds-fs cannot split the cache's source rows"),
        (["meta-train", "--model.activation", "relu", "--train.step_size", "1e18"], "non-finite loss inf at epoch"),
        # a float key takes finite values only
        (["select", "--estimate.ridge_lambda", "inf"], "config estimate.ridge_lambda: expected a finite float, got 'inf'"),
        (["select", "--estimate.grad_tol", "nan"], "config estimate.grad_tol: expected a finite float, got 'nan'"),
        (["gen", "--corpus.rotation_deg", "nan"], "config corpus.rotation_deg: expected a finite float, got 'nan'"),
        (["bench", "--exp", "rrss", "--bench.rrss_distances", "nan,0.01"], "config bench.rrss_distances: expected finite values"),
        # at lambda 0 the projected rows can be separable, so no minimizer exists
        (["estimate", "--subset", "1,2", "--estimate.ridge_lambda", "0"], "config: ridge_lambda must be positive"),
        (["estimate", "--subset", "1,2", "--estimate.max_iters", "-3"], "config: max_iters must be >= 1"),
        (["select", "--select.method", "re", "--select.fraction_grid", "0.5,1.5"], "fraction must be in (0, 1]"),
        (["bench", "--exp", "rrss", "--bench.rrss_distances", ","], "need at least one distance"),
    ],
)
def test_bad_config_value_fails_in_one_line(tiny_run, tmp_path, capsys, argv, message):
    shutil.copytree(tiny_run, tmp_path, dirs_exist_ok=True)
    (tmp_path / "bad.cfg").write_text("train.optimizer = Adam\n")
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir() if p.is_file()}
    argv = [a.format(cfg=tmp_path / "bad.cfg") for a in argv]
    capsys.readouterr()
    assert run([argv[0], *TINY, *argv[1:]], tmp_path) == 2  # the bad value comes last and wins
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith(f"gradsel {argv[0]}: {message}")
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir() if p.is_file()} == before


def _run_in_own_process(run_dir, argv):
    """Run one CLI stage in its own process, so numpy's warnings reach stderr
    as they do from the command line (pytest would capture them)."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, "-m", "gradsel", "--out", str(run_dir), *argv],
                          capture_output=True, text=True, env=env, timeout=120)


def test_diverging_training_prints_one_line(tiny_run, tmp_path):
    shutil.copytree(tiny_run, tmp_path, dirs_exist_ok=True)
    # the CI's diverging run: overflow in training before the loss is inf at epoch 22
    argv = ["meta-train", *TINY, "--model.activation", "relu", "--train.step_size", "1e4",
            "--train.early_stop_patience", "30"]
    proc = _run_in_own_process(tmp_path, argv)
    assert proc.returncode == 2
    lines = proc.stderr.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("gradsel meta-train: non-finite loss inf at epoch ")


def test_diverging_oracle_fine_tune_prints_one_line(tiny_run, tmp_path):
    # the relerr fine-tunes run side by side on a host with several CPUs; a
    # diverging one still ends the stage in one line
    shutil.copytree(tiny_run, tmp_path, dirs_exist_ok=True)
    argv = ["bench", "--exp", "relerr", "--bench.relerr_subsets", "4", *TINY,
            "--finetune.step_size", "1e307", "--finetune.early_stop_patience", "30"]
    proc = _run_in_own_process(tmp_path, argv)
    assert proc.returncode == 2
    lines = proc.stderr.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("gradsel bench: non-finite loss inf at epoch ")
