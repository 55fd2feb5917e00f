"""Config parsing, precedence, and derived recipes/paths."""

from pathlib import Path

import pytest

from rumorvet.backends import TrainingRecipe
from rumorvet.config import (
    BACKEND_REFERENCE,
    RunConfig,
    default_config_text,
    load_config,
    parse_config_text,
)
from rumorvet.errors import ConfigError
from rumorvet.pipeline import backend_name


class TestRunConfigDefaults:
    def test_published_recipe_defaults(self):
        cfg = RunConfig()
        assert cfg.mode == "double"
        assert cfg.backend == BACKEND_REFERENCE
        assert cfg.entropy_epsilon == 1e-3
        assert cfg.phase1_per_class == 21
        assert cfg.recipe("phase1_pretrain") == TrainingRecipe(
            epochs=5, batch_size=32, learning_rate=5e-5, label_smoothing=0.2
        )
        assert cfg.recipe("phase1_finetune").label_smoothing == 0.2
        assert cfg.recipe("lie_pretrain").label_smoothing == 0.3
        assert cfg.recipe("lie_finetune") == TrainingRecipe(
            epochs=1, batch_size=32, learning_rate=5e-5, label_smoothing=0.3
        )
        assert cfg.recipe("agreement_pretrain").epochs == 5
        assert cfg.recipe("agreement_finetune").epochs == 1

    def test_unknown_stage(self):
        with pytest.raises(ConfigError):
            RunConfig().recipe("phase3_pretrain")

    def test_validation(self):
        with pytest.raises(ConfigError):
            RunConfig(mode="triple")
        with pytest.raises(ConfigError):
            RunConfig(backend="rnn")
        with pytest.raises(ConfigError):
            RunConfig(reply_window_days=0)

    def test_recipe_reads_its_stage_keys(self):
        cfg = RunConfig(lie_finetune_epochs=7)
        assert cfg.recipe("lie_finetune").epochs == 7
        assert cfg.recipe("lie_pretrain").epochs == 5
        assert cfg.phase1_per_class == 21

    def test_model_paths(self):
        cfg = RunConfig(model_dir=Path("m"))
        assert cfg.model_path("phase1") == Path("m/phase1.json")
        assert cfg.model_path("lie") == Path("m/lie.json")
        assert cfg.model_path("lie_unrouted") == Path("m/lie_unrouted.json")
        assert cfg.model_path("agreement") == Path("m/agreement.json")
        with pytest.raises(ConfigError):
            cfg.model_path("phase3")

    def test_single_lie_config_uses_unrouted_model(self):
        cfg = RunConfig(mode="single_lie")
        assert cfg.model_path(backend_name(cfg.mode, "lie")).name == "lie_unrouted.json"
        assert cfg.pipeline_config().lie_model.name == "lie_unrouted.json"

    def test_pipeline_config_projection(self):
        cfg = RunConfig(mode="inverse", entropy_epsilon=0.01, reply_window_days=3)
        pc = cfg.pipeline_config()
        assert pc.mode == "inverse"
        assert pc.entropy_epsilon == 0.01
        assert pc.reply_window_days == 3
        assert pc.lie_model == cfg.model_path("lie")

    def test_to_dict_stringifies_paths(self):
        d = RunConfig(train_dir=Path("/data/train")).to_dict()
        assert d["train_dir"] == "/data/train"
        assert d["train_key"] is None
        assert "test_dir" not in d and "test_key" not in d


class TestParseConfigText:
    def test_comments_and_blanks(self):
        raw = parse_config_text("# header\n\nmode = double  # inline\nseed = 3\n")
        assert raw == {"mode": "double", "seed": "3"}

    def test_missing_equals(self):
        with pytest.raises(ConfigError) as exc:
            parse_config_text("mode double", source="f.cfg")
        assert "f.cfg:1" in str(exc.value)

    def test_duplicate_key(self):
        with pytest.raises(ConfigError) as exc:
            parse_config_text("seed = 1\nseed = 2\n")
        assert "duplicate" in str(exc.value)


class TestLoadConfig:
    def test_defaults_when_no_file(self):
        assert load_config() == RunConfig()

    def test_file_overrides_defaults(self, tmp_path):
        p = tmp_path / "run.cfg"
        p.write_text("mode = inverse\nseed = 9\nlie_pretrain_epochs = 2\n", encoding="utf-8")
        cfg = load_config(p)
        assert cfg.mode == "inverse"
        assert cfg.seed == 9
        assert cfg.lie_pretrain_epochs == 2
        assert cfg.entropy_epsilon == 1e-3

    def test_overrides_beat_file(self, tmp_path):
        p = tmp_path / "run.cfg"
        p.write_text("seed = 9\n", encoding="utf-8")
        assert load_config(p, {"seed": 4}).seed == 4

    def test_none_valued_overrides_skipped(self, tmp_path):
        p = tmp_path / "run.cfg"
        p.write_text("seed = 9\n", encoding="utf-8")
        assert load_config(p, {"seed": None}).seed == 9

    def test_unknown_key_in_file(self, tmp_path):
        p = tmp_path / "run.cfg"
        p.write_text("momentum = 0.9\n", encoding="utf-8")
        with pytest.raises(ConfigError) as exc:
            load_config(p)
        assert "momentum" in str(exc.value)

    def test_unknown_override_key(self):
        with pytest.raises(ConfigError):
            load_config(None, {"momentum": 0.9})

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(tmp_path / "absent.cfg")

    def test_bad_value_type(self, tmp_path):
        p = tmp_path / "run.cfg"
        p.write_text("seed = soon\n", encoding="utf-8")
        with pytest.raises(ConfigError) as exc:
            load_config(p)
        assert "seed" in str(exc.value)

    def test_none_tokens_for_optional_paths(self, tmp_path):
        p = tmp_path / "run.cfg"
        p.write_text("train_dir = none\nreply_window_days = null\n", encoding="utf-8")
        cfg = load_config(p)
        assert cfg.train_dir is None
        assert cfg.reply_window_days is None

    def test_path_coercion(self, tmp_path):
        cfg = load_config(None, {"train_dir": str(tmp_path)})
        assert cfg.train_dir == tmp_path

    def test_string_override_coerced(self):
        assert load_config(None, {"reply_window_days": "5"}).reply_window_days == 5


class TestDefaultConfigText:
    def test_round_trips_to_defaults(self, tmp_path):
        p = tmp_path / "default.cfg"
        p.write_text(default_config_text(), encoding="utf-8")
        assert load_config(p) == RunConfig()

    def test_checked_in_example_matches_defaults(self):
        checked_in = Path(__file__).resolve().parent.parent / "configs" / "default.cfg"
        assert checked_in.is_file()
        assert load_config(checked_in) == RunConfig()
