"""Run configuration: flat key=value files plus CLI overrides.

Every training hyperparameter is an explicit key with the published
recipe as its default, so a bare run reproduces the reference setup and
any deviation is visible in the config snapshot that lands in the run
manifest. Precedence is defaults < config file < CLI flags.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from pathlib import Path
from typing import Mapping, Optional

from .backends import TrainingRecipe
from .errors import ConfigError
from .pipeline import BACKEND_NAMES, MODES, PipelineConfig, backend_name

BACKEND_REFERENCE = "reference"
BACKEND_TRANSFORMER = "transformer"
BACKENDS = (BACKEND_REFERENCE, BACKEND_TRANSFORMER)

_STAGES = (
    "phase1_pretrain",
    "phase1_finetune",
    "lie_pretrain",
    "lie_finetune",
    "agreement_pretrain",
    "agreement_finetune",
)


@dataclass(frozen=True)
class RunConfig:
    """One experiment's full knob set; flat so files and flags map 1:1."""

    mode: str = "double"
    backend: str = BACKEND_REFERENCE
    entropy_epsilon: float = 1e-3
    reply_window_days: Optional[int] = None
    seed: int = 0

    train_dir: Optional[Path] = None
    train_key: Optional[Path] = None
    hedge_corpus: Optional[Path] = None
    deception_corpus: Optional[Path] = None
    agreement_corpus: Optional[Path] = None
    model_dir: Path = Path("models")

    phase1_per_class: int = 21
    phase1_pretrain_epochs: int = 5
    phase1_pretrain_batch_size: int = 32
    phase1_pretrain_learning_rate: float = 5e-5
    phase1_pretrain_label_smoothing: float = 0.2
    phase1_finetune_epochs: int = 5
    phase1_finetune_batch_size: int = 32
    phase1_finetune_learning_rate: float = 5e-5
    phase1_finetune_label_smoothing: float = 0.2
    lie_pretrain_epochs: int = 5
    lie_pretrain_batch_size: int = 32
    lie_pretrain_learning_rate: float = 5e-5
    lie_pretrain_label_smoothing: float = 0.3
    lie_finetune_epochs: int = 1
    lie_finetune_batch_size: int = 32
    lie_finetune_learning_rate: float = 5e-5
    lie_finetune_label_smoothing: float = 0.3
    agreement_pretrain_epochs: int = 5
    agreement_pretrain_batch_size: int = 32
    agreement_pretrain_learning_rate: float = 5e-5
    agreement_pretrain_label_smoothing: float = 0.3
    agreement_finetune_epochs: int = 1
    agreement_finetune_batch_size: int = 32
    agreement_finetune_learning_rate: float = 5e-5
    agreement_finetune_label_smoothing: float = 0.3

    def __post_init__(self):
        if self.mode not in MODES:
            raise ConfigError(f"mode must be one of {MODES}, got {self.mode!r}")
        if self.backend not in BACKENDS:
            raise ConfigError(f"backend must be one of {BACKENDS}, got {self.backend!r}")
        if not self.entropy_epsilon >= 0.0:
            raise ConfigError(f"entropy_epsilon must be >= 0, got {self.entropy_epsilon!r}")
        if self.reply_window_days is not None and self.reply_window_days <= 0:
            raise ConfigError(
                f"reply_window_days must be a positive integer, got {self.reply_window_days!r}"
            )
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed!r}")
        if self.phase1_per_class < 0:
            raise ConfigError(f"phase1_per_class must be >= 0, got {self.phase1_per_class!r}")
        for stage in _STAGES:
            try:
                self.recipe(stage)
            except ValueError as exc:
                raise ConfigError(f"{stage} recipe: {exc}") from exc

    def recipe(self, stage: str) -> TrainingRecipe:
        if stage not in _STAGES:
            raise ConfigError(f"unknown training stage {stage!r}")
        return TrainingRecipe(
            epochs=getattr(self, f"{stage}_epochs"),
            batch_size=getattr(self, f"{stage}_batch_size"),
            learning_rate=getattr(self, f"{stage}_learning_rate"),
            label_smoothing=getattr(self, f"{stage}_label_smoothing"),
        )

    def model_path(self, name: str) -> Path:
        """Where the named backend (see pipeline.MODE_BACKENDS) lives."""
        if name not in BACKEND_NAMES:
            raise ConfigError(f"unknown backend name {name!r}")
        return self.model_dir / f"{name}.json"

    def pipeline_config(self) -> PipelineConfig:
        """The config's mode and window, with the model each slot reads."""
        paths = {s: self.model_path(backend_name(self.mode, s)) for s in ("phase1", "lie", "agreement")}
        return PipelineConfig(
            mode=self.mode,
            entropy_epsilon=self.entropy_epsilon,
            reply_window_days=self.reply_window_days,
            seed=self.seed,
            phase1_model=paths["phase1"],
            lie_model=paths["lie"],
            agreement_model=paths["agreement"],
        )

    def to_dict(self) -> dict:
        out = {}
        for f in fields(self):
            v = getattr(self, f.name)
            out[f.name] = str(v) if isinstance(v, Path) else v
        return out


_PATH_KEYS = frozenset(
    {
        "train_dir",
        "train_key",
        "hedge_corpus",
        "deception_corpus",
        "agreement_corpus",
        "model_dir",
    }
)

_NONE_TOKENS = frozenset({"", "none", "null"})


def _coerce(key: str, raw: str, kind: type, optional: bool):
    raw = raw.strip()
    if optional and raw.lower() in _NONE_TOKENS:
        return None
    try:
        if kind is Path:
            return Path(raw)
        return kind(raw)
    except ValueError:
        raise ConfigError(f"config key {key}: cannot parse {raw!r} as {kind.__name__}")


def _field_types() -> dict[str, tuple[type, bool]]:
    types: dict[str, tuple[type, bool]] = {}
    for f in fields(RunConfig):
        if f.name in _PATH_KEYS:
            types[f.name] = (Path, f.name != "model_dir")
        elif f.name == "reply_window_days":
            types[f.name] = (int, True)
        elif f.name in ("mode", "backend"):
            types[f.name] = (str, False)
        elif f.type in ("int", int):
            types[f.name] = (int, False)
        else:
            types[f.name] = (float, False)
    return types


def parse_config_text(text: str, source: str = "<config>") -> dict[str, str]:
    """Flat key=value lines; # starts a comment; blanks skipped."""
    out: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"{source}:{lineno}: expected key = value, got {line.strip()!r}")
        key, value = stripped.split("=", 1)
        key = key.strip()
        if key in out:
            raise ConfigError(f"{source}:{lineno}: duplicate key {key}")
        out[key] = value.strip()
    return out


def load_config(
    path: Optional[Path] = None, overrides: Optional[Mapping[str, object]] = None
) -> RunConfig:
    """Defaults, then the config file, then overrides (already-typed
    values from CLI flags; strings are coerced like file values)."""
    types = _field_types()
    values: dict[str, object] = {}
    if path is not None:
        path = Path(path)
        if not path.is_file():
            raise ConfigError(f"config file not found: {path}")
        try:
            text = path.read_text(encoding="utf-8")
        except UnicodeDecodeError as exc:
            raise ConfigError(f"not UTF-8 text ({exc})", path=path) from exc
        raw = parse_config_text(text, source=str(path))
        for key, value in raw.items():
            if key not in types:
                raise ConfigError(f"{path}: unknown config key {key!r}")
            kind, optional = types[key]
            values[key] = _coerce(key, value, kind, optional)
    for key, value in (overrides or {}).items():
        if key not in types:
            raise ConfigError(f"unknown config key {key!r}")
        if value is None:
            continue
        if isinstance(value, str):
            kind, optional = types[key]
            value = _coerce(key, value, kind, optional)
        values[key] = value
    return RunConfig(**values)


def default_config_text() -> str:
    """Render the defaults in config-file form (the checked-in example)."""
    lines = ["# every key at its published-recipe default; edit paths for your data"]
    defaults = RunConfig()
    for f in fields(RunConfig):
        v = getattr(defaults, f.name)
        if v is None:
            v = "none"
        lines.append(f"{f.name} = {v}")
    return "\n".join(lines) + "\n"
