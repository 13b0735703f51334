import json
import os
import shutil

import pytest

from asslab.cli import main


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
        assert manifest["seeds"] == [7]
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


def _truncated_scores(run):
    path = run / "seed_0" / "scores" / "round0.csv"
    text = path.read_bytes()
    second_row = text.index(b"\r\n", text.index(b"\r\n") + 2) + 2
    path.write_bytes(text[:text.index(b",", second_row)])


def _short_rounds_row(run):
    _replace_line(run / "rounds.csv", 1, lambda line: line.rsplit(b",", 1)[0])


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


def _manifest(data):
    def damage(run):
        (run / "manifest.json").write_bytes(data)
    return damage


DAMAGES = {
    "analysis-is-a-file": _analysis_file,
    "bad-float-cell": _bad_float_cell,
    "nan-uncertainty-cell": _nan_uncertainty,
    "truncated-scores": _truncated_scores,
    "short-rounds-row": _short_rounds_row,
    "duplicated-series-row": _duplicated_series_row,
    "scores-is-a-directory": _scores_directory,
    "scores-of-other-samples": _scores_of_other_samples,
    "manifest-not-json": _manifest(b"{not json"),
    "manifest-not-utf8": _manifest(b"\xff\xfe"),
    "manifest-empty-object": _manifest(b"{}"),
    "manifest-not-object": _manifest(b"[1]"),
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
        assert err.startswith("error: ")
        assert "Traceback" not in err

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


BAD_INPUTS = {
    "gradcheck-zero-instances": lambda tmp_path: ["gradcheck", "--instances", "0"],
    "config-is-a-directory": _config_directory,
    "config-not-utf8": _config_not_utf8,
    "out-is-a-file": _out_is_a_file,
}


@pytest.mark.parametrize("case", sorted(BAD_INPUTS))
def test_bad_input_exits_2_without_traceback(tmp_path, capsys, case):
    assert main(BAD_INPUTS[case](tmp_path)) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ")
    assert "Traceback" not in captured.err
    assert "round 0" not in captured.out  # rejected before any training
