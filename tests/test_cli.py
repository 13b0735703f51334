import contextlib
import copy
import functools
import io
import json
import math
import os
import shutil
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from asslab.cli import load_config_file, main
from asslab.errors import InputError


def write_config(path, **overrides):
    cfg = {
        "dataset": {"size": 200},
        "n_init": 10,
        "acquire_k": 5,
        "rounds": 1,
        "n_test": 40,
        "ssl": {"steps_per_round": 10, "snapshot_interval": 5, "hidden_dims": [8, 8]},
        "strategies": ["random", "ucb-product"],
        "seeds": [0],
        "out_dir": "unused",
    }
    cfg.update(overrides)
    with open(path, "w") as f:
        json.dump(cfg, f)
    return path


class TestRunCommand:
    def test_run_writes_tree(self, tmp_path, capsys):
        config = write_config(tmp_path / "cfg.json")
        out = tmp_path / "out"
        assert main(["run", "--config", str(config), "--out", str(out)]) == 0
        captured = capsys.readouterr()
        assert f"wrote {out}" in captured.out
        assert "round 0" in captured.out
        assert (out / "rounds.csv").exists()
        assert (out / "manifest.json").exists()

    def test_seed_override(self, tmp_path):
        config = write_config(tmp_path / "cfg.json", seeds=[0, 1, 2])
        out = tmp_path / "out"
        assert main(["run", "--config", str(config), "--seed", "7", "--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["seeds"] == [7]
        assert os.path.isdir(out / "seed_7")

    def test_out_defaults_to_config(self, tmp_path):
        out = tmp_path / "from_config"
        config = write_config(tmp_path / "cfg.json", out_dir=str(out))
        assert main(["run", "--config", str(config)]) == 0
        assert (out / "rounds.csv").exists()

    def test_missing_config_file(self, tmp_path, capsys):
        assert main(["run", "--config", str(tmp_path / "nope.json")]) == 2
        assert "not found" in capsys.readouterr().err

    def test_invalid_json(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["run", "--config", str(bad)]) == 2
        assert "not valid JSON" in capsys.readouterr().err

    def test_unparsable_config_is_an_input_error(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(InputError, match="not valid JSON"):
            load_config_file(str(bad))

    def test_unknown_config_key(self, tmp_path, capsys):
        config = write_config(tmp_path / "cfg.json", typo_key=1)
        assert main(["run", "--config", str(config)]) == 2
        assert "typo_key" in capsys.readouterr().err

    @pytest.mark.parametrize("text, message", [
        ('{"rounds": "5"}', "rounds must be an integer"),
        ("[1]", "config must be an object"),
    ])
    def test_mistyped_config_exits_2_without_traceback(self, tmp_path, capsys, text, message):
        config = tmp_path / "cfg.json"
        config.write_text(text)
        assert main(["run", "--config", str(config)]) == 2
        err = capsys.readouterr().err
        assert message in err
        assert "Traceback" not in err

    def test_out_of_another_config_exits_2_before_training(self, tmp_path, capsys):
        out = tmp_path / "out"
        first = write_config(tmp_path / "first.json")
        assert main(["run", "--config", str(first), "--out", str(out)]) == 0
        assert main(["run", "--config", str(first), "--out", str(out)]) == 0  # same config
        capsys.readouterr()
        other = write_config(tmp_path / "other.json", seeds=[1])
        assert main(["run", "--config", str(other), "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and "different config" in captured.err
        assert "Traceback" not in captured.err
        assert "round 0" not in captured.out
        assert not (out / "seed_1").exists()

    def test_out_with_old_layout_event_logs_exits_2(self, tmp_path, capsys):
        out = tmp_path / "out"
        config = write_config(tmp_path / "cfg.json")
        assert main(["run", "--config", str(config), "--out", str(out)]) == 0
        (out / "seed_0" / "events_random.csv").write_text("")
        capsys.readouterr()
        assert main(["run", "--config", str(config), "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and "older layout" in captured.err
        assert captured.err.count("\n") == 1 and "Traceback" not in captured.err
        assert "round 0" not in captured.out  # refused before any training

    def test_unwritable_seed_dir_exits_2_without_traceback(self, tmp_path, capsys):
        out = tmp_path / "out"
        out.mkdir()
        (out / "seed_0").write_bytes(b"")
        assert main(["run", "--config", str(write_config(tmp_path / "cfg.json")),
                     "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "seed_0" in err
        assert "Traceback" not in err

    def test_infeasible_budget_rejected_before_work(self, tmp_path, capsys):
        config = write_config(tmp_path / "cfg.json", rounds=100)
        out = tmp_path / "out"
        assert main(["run", "--config", str(config), "--out", str(out)]) == 2
        assert "budget" in capsys.readouterr().err
        assert not out.exists()


def _replace_line(path, index, edit):
    lines = path.read_bytes().split(b"\r\n")
    lines[index] = edit(lines[index])
    path.write_bytes(b"\r\n".join(lines))


def _bad_float_cell(run):
    _replace_line(run / "seed_0" / "snapshots_round0.csv", 1,
                  lambda line: b",".join(line.split(b",")[:3] + [b"abc", b"0.5"]))


def _nan_uncertainty(run):
    _replace_line(run / "seed_0" / "snapshots_round0.csv", 1,
                  lambda line: b",".join(line.split(b",")[:3] + [b"nan", b"0.5"]))


def _nan_score(run):
    _replace_line(run / "seed_0" / "scores" / "round0.csv", 1,
                  lambda line: b",".join(line.split(b",")[:-1] + [b"nan"]))


def _truncated_scores(run):
    path = run / "seed_0" / "scores" / "round0.csv"
    text = path.read_bytes()
    second_row = text.index(b"\r\n", text.index(b"\r\n") + 2) + 2
    path.write_bytes(text[:text.index(b",", second_row)])


def _short_rounds_row(run):
    _replace_line(run / "rounds.csv", 1, lambda line: line.rsplit(b",", 1)[0])


def _round_past_the_config(run):
    # A copy of the first row, one round past the config's last; every lane
    # still has its final round.
    path = run / "rounds.csv"
    text = path.read_bytes()
    row = text.split(b"\r\n")[1].split(b",")
    path.write_bytes(text + b",".join(row[:2] + [b"1"] + row[3:]) + b"\r\n")


def _duplicated_series_row(run):
    path = run / "seed_0" / "snapshots_round0.csv"
    text = path.read_bytes()
    path.write_bytes(text + text.split(b"\r\n")[1] + b"\r\n")


def _scores_directory(run):
    path = run / "seed_0" / "scores" / "round0.csv"
    os.remove(path)
    os.mkdir(path)


def _analysis_file(run):
    shutil.rmtree(run / "analysis")
    (run / "analysis").write_bytes(b"")


def _scores_of_other_samples(run):
    path = run / "seed_0" / "scores" / "round0.csv"
    text = path.read_bytes()
    last = text.rstrip(b"\r\n").split(b"\r\n")[-1].split(b",")
    path.write_bytes(text + b",".join([str(int(last[0]) + 1).encode()] + last[1:]) + b"\r\n")


def _manifest_directory(run):
    os.remove(run / "manifest.json")
    os.mkdir(run / "manifest.json")


def _manifest_retired_key(run):
    # The manifest of a run from before export_datasets became a constant.
    path = run / "manifest.json"
    manifest = json.loads(path.read_text())
    manifest["config"]["export_datasets"] = True
    path.write_text(json.dumps(manifest))


def _manifest_more_rounds(run):
    # rounds.csv has round 0 only, the final round of the recorded config.
    path = run / "manifest.json"
    manifest = json.loads(path.read_text())
    manifest["config"]["rounds"] = 7
    path.write_text(json.dumps(manifest))


def _manifest(data):
    def damage(run):
        (run / "manifest.json").write_bytes(data)
    return damage


DAMAGES = {
    "analysis-is-a-file": _analysis_file,
    "bad-float-cell": _bad_float_cell,
    "nan-uncertainty-cell": _nan_uncertainty,
    "nan-score-cell": _nan_score,
    "round-past-the-config": _round_past_the_config,
    "rounds-csv-missing": lambda run: os.remove(run / "rounds.csv"),
    "manifest-more-rounds": _manifest_more_rounds,
    "truncated-scores": _truncated_scores,
    "short-rounds-row": _short_rounds_row,
    "duplicated-series-row": _duplicated_series_row,
    "scores-is-a-directory": _scores_directory,
    "scores-of-other-samples": _scores_of_other_samples,
    "manifest-not-json": _manifest(b"{not json"),
    "manifest-not-utf8": _manifest(b"\xff\xfe"),
    "manifest-empty-object": _manifest(b"{}"),
    "manifest-not-object": _manifest(b"[1]"),
    "manifest-is-a-directory": _manifest_directory,
    "manifest-retired-key": _manifest_retired_key,
}


@pytest.fixture(scope="module")
def tiny_run(tmp_path_factory):
    root = tmp_path_factory.mktemp("tiny")
    out = root / "out"
    assert main(["run", "--config", str(write_config(root / "cfg.json")),
                 "--out", str(out)]) == 0
    return out


class TestAnalyzeCommand:
    def test_analyze_rebuilds(self, tmp_path, capsys):
        config = write_config(tmp_path / "cfg.json")
        out = tmp_path / "out"
        main(["run", "--config", str(config), "--out", str(out)])
        ti = out / "analysis" / "ti_profile_seed0.csv"
        original = ti.read_bytes()
        os.remove(ti)
        assert main(["analyze", "--in", str(out)]) == 0
        assert "rebuilt" in capsys.readouterr().out
        assert ti.read_bytes() == original

    @pytest.mark.parametrize("damage", sorted(DAMAGES))
    def test_damaged_run_exits_2_without_traceback(self, tiny_run, tmp_path, capsys, damage):
        run = tmp_path / "run"
        shutil.copytree(tiny_run, run)
        DAMAGES[damage](run)
        capsys.readouterr()
        assert main(["analyze", "--in", str(run)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "Traceback" not in err

    def test_run_dir_with_a_retired_key_exits_2(self, tiny_run, tmp_path, capsys):
        run = tmp_path / "run"
        shutil.copytree(tiny_run, run)
        _manifest_retired_key(run)
        capsys.readouterr()
        assert main(["analyze", "--in", str(run)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "export_datasets" in err
        assert "Traceback" not in err
        # tiny_run's own config, refused because the manifest records more.
        config = write_config(tmp_path / "cfg.json")
        assert main(["run", "--config", str(config), "--out", str(run)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and "different config" in captured.err
        assert "Traceback" not in captured.err
        assert "round 0" not in captured.out  # refused before any training

    def test_analyze_missing_dir(self, tmp_path, capsys):
        assert main(["analyze", "--in", str(tmp_path / "missing")]) == 2
        assert "manifest" in capsys.readouterr().err


class TestGradcheckCommand:
    def test_gradcheck_passes(self, capsys):
        assert main(["gradcheck", "--instances", "3"]) == 0
        out = capsys.readouterr().out
        assert "instance 0" in out
        assert "ok" in out


def _config_directory(tmp_path):
    (tmp_path / "cfg").mkdir()
    return ["run", "--config", str(tmp_path / "cfg")]


def _config_not_utf8(tmp_path):
    (tmp_path / "cfg.json").write_bytes(b'{"out_dir": "\xff"}')
    return ["run", "--config", str(tmp_path / "cfg.json")]


def _out_is_a_file(tmp_path):
    (tmp_path / "out").write_text("")
    return ["run", "--config", str(write_config(tmp_path / "cfg.json")),
            "--out", str(tmp_path / "out")]


def _ucb_round0_too_short(tmp_path):
    # 5 steps of 64 draws cannot visit round 0's 1,480 unlabeled samples.
    (tmp_path / "cfg.json").write_text(
        '{"seeds": [0], "rounds": 1, "ssl": {"steps_per_round": 5}}')
    return ["run", "--config", str(tmp_path / "cfg.json"), "--out", str(tmp_path / "out")]


def _huge(**overrides):
    # Every array these configs ask for needs at least 2**50 bytes, past any
    # address space, so no allocation can succeed. Only random acquires: the
    # tracked strategies refuse a pool that the round's steps cannot cover.
    def case(tmp_path):
        config = write_config(tmp_path / "cfg.json", strategies=["random"], **overrides)
        return ["run", "--config", str(config), "--out", str(tmp_path / "out")]
    return case


BAD_INPUTS = {
    "gradcheck-zero-instances": lambda tmp_path: ["gradcheck", "--instances", "0"],
    "gradcheck-negative-seed": lambda tmp_path: ["gradcheck", "--seed", "-1"],
    "ucb-round0-too-short": _ucb_round0_too_short,
    "config-is-a-directory": _config_directory,
    "config-not-utf8": _config_not_utf8,
    "out-is-a-file": _out_is_a_file,
    "dataset-of-3.55-PiB": _huge(dataset={"size": 10**15}),
    "hidden-layer-of-1.42-PiB": _huge(ssl={"steps_per_round": 10, "snapshot_interval": 5,
                                           "hidden_dims": [10**14]}),
    # Past numpy's largest array, where numpy raises ValueError, not MemoryError.
    "dataset-of-64-EiB": _huge(dataset={"size": 2**62}),
    "hidden-layer-of-32-EiB": _huge(ssl={"steps_per_round": 10, "snapshot_interval": 5,
                                         "hidden_dims": [2**61]}),
}


@pytest.mark.parametrize("case", sorted(BAD_INPUTS))
def test_bad_input_exits_2_without_traceback(tmp_path, capsys, case):
    assert main(BAD_INPUTS[case](tmp_path)) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert "Traceback" not in captured.err
    assert "round 0" not in captured.out  # rejected before any training


# A valid tiny config that sets every leaf, trains, acquires with a
# model-based and a tracked strategy, and emits in well under a second.
FUZZ_BASE = {
    "dataset": {"kind": "two-moons", "size": 200, "n_classes": 2, "noise": 0.25},
    "n_init": 10, "acquire_k": 5, "rounds": 2, "n_test": 40,
    "ssl": {"steps_per_round": 10, "batch_size": 16, "mu": 4, "tau": 0.95, "lambda_u": 1.0,
            "lr": 0.03, "momentum": 0.0, "init_mode": "rand_init", "snapshot_interval": 5,
            "hidden_dims": [8, 8], "carry_tracker": False},
    "tracker": {"alpha": 0.8, "c_u": 0.5, "c_i": 2.0},
    "strategies": ["random", "coreset", "ucb-product"], "seeds": [0], "out_dir": "unused",
    "stratify_init": True, "log_events": True,
}
# Leaves whose value sizes an array. At 2**50 or more every array they
# size needs at least 2**50 bytes, so no allocation can succeed; no other
# leaf gets a huge value, since a huge step count is a long run, not an error.
SIZE_LEAVES = [("dataset", "size"), ("ssl", "batch_size"), ("ssl", "mu"),
               ("ssl", "hidden_dims", 0), ("ssl", "hidden_dims", 1)]


def _leaves(node, path=()):
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in items:
        if isinstance(value, (dict, list)):
            yield from _leaves(value, path + (key,))
        else:
            yield path + (key,)


@st.composite
def mutated_configs(draw):
    """FUZZ_BASE with one leaf given a wrong type, a negative, a non-finite
    or (for a size leaf) a huge value."""
    cfg = copy.deepcopy(FUZZ_BASE)
    kind = draw(st.sampled_from(["type", "negative", "non-finite", "huge"]))
    path = draw(st.sampled_from(SIZE_LEAVES if kind == "huge" else list(_leaves(cfg))))
    *parents, key = path
    node = functools.reduce(lambda n, k: n[k], parents, cfg)
    if kind == "type":
        node[key] = draw(st.sampled_from(["x", [], {}, None, True, 0.5, 7]))
    elif kind == "negative":
        old = node[key]
        node[key] = -abs(old) - 1 if isinstance(old, (int, float)) else -1
    elif kind == "non-finite":
        node[key] = draw(st.sampled_from([math.nan, math.inf, -math.inf]))
    else:
        node[key] = draw(st.integers(2**50, 2**62))
    return cfg


def _main_outcome(argv):
    """(exit code, stderr) of cli.main; an uncaught exception fails the test."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


def _assert_clean_exit(code, err):
    assert code in (0, 1, 2)
    assert "Traceback" not in err
    if code == 2:
        assert err.startswith("error: ") and err.count("\n") == 1


class TestFuzz:
    @settings(max_examples=100, deadline=None)
    @given(mutated_configs())
    def test_mutated_config_exits_cleanly(self, cfg):
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "cfg.json")
            with open(path, "w") as f:
                json.dump(cfg, f)
            _assert_clean_exit(*_main_outcome(
                ["run", "--config", path, "--out", os.path.join(tmp, "out")]))

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_damaged_run_tree_exits_cleanly(self, tiny_run, data):
        files = sorted(str(p.relative_to(tiny_run)) for p in tiny_run.rglob("*") if p.is_file())
        name = data.draw(st.sampled_from(files))
        with tempfile.TemporaryDirectory() as tmp:
            run = os.path.join(tmp, "run")
            shutil.copytree(tiny_run, run)
            path = os.path.join(run, name)
            with open(path, "rb") as f:
                text = f.read()
            lo = data.draw(st.integers(0, len(text)))
            hi = data.draw(st.integers(lo, min(len(text), lo + 64)))
            with open(path, "wb") as f:
                f.write(text[:lo] + data.draw(st.binary(max_size=8)) + text[hi:])
            _assert_clean_exit(*_main_outcome(["analyze", "--in", run]))
