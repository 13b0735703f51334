import json
import os

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

    def test_infeasible_budget_rejected_before_work(self, tmp_path, capsys):
        config = write_config(tmp_path / "cfg.json", rounds=100)
        out = tmp_path / "out"
        assert main(["run", "--config", str(config), "--out", str(out)]) == 2
        assert "budget" in capsys.readouterr().err
        assert not out.exists()


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

    def test_analyze_missing_dir(self, tmp_path, capsys):
        assert main(["analyze", "--in", str(tmp_path / "missing")]) == 2
        assert "manifest" in capsys.readouterr().err


class TestGradcheckCommand:
    def test_gradcheck_passes(self, capsys):
        assert main(["gradcheck", "--instances", "3"]) == 0
        out = capsys.readouterr().out
        assert "instance 0" in out
        assert "ok" in out
