"""Command-line entry point: ingest, train, classify, evaluate, ablate.

Wiring only; every behavior lives in the library modules. Exit codes:
0 success, 1 usage/config error, 2 data error, 3 model error.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import sys
from collections import Counter
from pathlib import Path
from typing import Optional, Sequence

from .agreement import load_agreement_corpus
from .backends import ReferenceBackend, load_model, save_model
from .certainty import assign_all, load_hedge_corpus, summarize_assignments
from .config import BACKEND_TRANSFORMER, BACKENDS, RunConfig, load_config
from .corpus import (
    Conversation,
    gold_labels,
    load_conversations_jsonl,
    load_key_file,
    load_split,
    primary_pairs,
    save_conversations_jsonl,
)
from .errors import ConfigError, DataError, ModelError, ModelFormatError, UsageError
from .evaluation import EvaluationReport, build_report, render_reports, reports_to_json
from .lie import load_deception_corpus
from .manifest import build_manifest, checksum, write_manifest
from .pipeline import (
    BACKEND_SPECS,
    MODE_BACKENDS,
    MODES,
    backend_name,
    backend_names,
    score_grid,
    train_backend,
)
from .predictions import save_predictions_jsonl

PROG = "rumorvet"

# The backend slot each --phase trains; "all" trains every backend of the mode.
_PHASE_SLOTS = {"1": "phase1", "2-1": "lie", "2-2": "agreement"}
_PHASES = (*_PHASE_SLOTS, "all")

_CORPUS_READERS = {
    "hedge_corpus": load_hedge_corpus,
    "deception_corpus": load_deception_corpus,
    "agreement_corpus": load_agreement_corpus,
}


class _Parser(argparse.ArgumentParser):
    """argparse flags usage problems with exit code 2; our contract says 1."""

    def error(self, message):
        raise UsageError(message)


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", type=Path, default=None, help="flat key=value config file")
    p.add_argument("--mode", choices=MODES, default=None, help="routing mode")
    p.add_argument("--seed", type=int, default=None, help="training seed")
    p.add_argument(
        "--epsilon", type=float, default=None, help="unverified entropy threshold offset"
    )
    p.add_argument("--model-dir", type=Path, default=None, help="trained model directory")


def _add_training(p: argparse.ArgumentParser) -> None:
    p.add_argument("--backend", choices=BACKENDS, default=None, help="classifier backend")
    p.add_argument("--train-dir", type=Path, default=None, help="train split directory")
    p.add_argument("--train-key", type=Path, default=None, help="train gold-label key file")
    p.add_argument("--hedge-corpus", type=Path, default=None, help="certainty pretrain corpus")
    p.add_argument("--deception-corpus", type=Path, default=None, help="lie pretrain corpus")
    p.add_argument(
        "--agreement-corpus", type=Path, default=None, help="agreement pretrain corpus"
    )


def _add_grid(p: argparse.ArgumentParser) -> None:
    p.add_argument("input", type=Path, help="conversation directory or ingested JSONL")
    p.add_argument("--key", type=Path, default=None, help="gold-label key file")
    p.add_argument(
        "--window-days",
        default=None,
        help="comma-separated day windows; 'none' is the unwindowed run",
    )
    p.add_argument("--micro", action="store_true", help="micro-average precision/recall")
    p.add_argument("--out", type=Path, default=Path("reports"))


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog=PROG, description="ex-ante rumor veracity pipeline")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", parents=[], help="parse a conversation layout to JSONL")
    p.add_argument("input_dir", type=Path, help="root directory in the ingestion layout")
    p.add_argument("output", type=Path, help="output conversations JSONL path")
    p.add_argument("--key", type=Path, default=None, help="gold-label key file to attach")
    p.add_argument(
        "--lenient",
        action="store_true",
        help="drop malformed subtrees with a warning instead of failing",
    )

    p = sub.add_parser("train", help="train one phase's backend (or all for the mode)")
    _add_common(p)
    _add_training(p)
    p.add_argument("--phase", choices=_PHASES, default="all", help="which backend to train")

    p = sub.add_parser("classify", help="predict veracity for a corpus")
    _add_common(p)
    p.add_argument("input", type=Path, help="conversation directory or ingested JSONL")
    p.add_argument("--out", type=Path, default=Path("predictions.jsonl"))
    p.add_argument("--window-days", default=None, help="reply window in days")
    p.add_argument("--key", type=Path, default=None, help="gold-label key file")

    p = sub.add_parser("evaluate", help="score predictions against gold labels")
    _add_common(p)
    _add_grid(p)
    p.add_argument(
        "--modes",
        default=None,
        help="comma-separated modes, or 'all' for the full grid (default: config mode)",
    )

    p = sub.add_parser("ablate", help="the full mode grid (shorthand for evaluate --modes all)")
    _add_common(p)
    _add_grid(p)

    return parser


def _resolve_config(args) -> RunConfig:
    overrides = {
        "mode": getattr(args, "mode", None),
        "backend": getattr(args, "backend", None),
        "seed": getattr(args, "seed", None),
        "entropy_epsilon": getattr(args, "epsilon", None),
        "model_dir": getattr(args, "model_dir", None),
        "train_dir": getattr(args, "train_dir", None),
        "train_key": getattr(args, "train_key", None),
        "hedge_corpus": getattr(args, "hedge_corpus", None),
        "deception_corpus": getattr(args, "deception_corpus", None),
        "agreement_corpus": getattr(args, "agreement_corpus", None),
    }
    return load_config(getattr(args, "config", None), overrides)


def _resolve_windows(args, cfg: RunConfig) -> tuple[RunConfig, list[Optional[int]]]:
    """The --window-days list (default: the configured window). A single
    window also becomes the config's, so the manifest records it."""
    if args.window_days is None:
        return cfg, [cfg.reply_window_days]
    windows = _distinct([_parse_window_token(tok) for tok in args.window_days.split(",")], "--window-days")
    if len(windows) == 1:
        cfg = dataclasses.replace(cfg, reply_window_days=windows[0])
    return cfg, windows


def _parse_window_token(token: str) -> Optional[int]:
    token = token.strip().lower()
    if token in ("none", "inf", "infinite", ""):
        return None
    try:
        value = int(token)
    except ValueError:
        raise UsageError(f"bad window value {token!r} (expected a day count or 'none')")
    if value <= 0:
        raise UsageError(f"window days must be positive, got {value}")
    return value


def _parse_modes(raw: Optional[str], default: str) -> list[str]:
    if raw is None:
        return [default]
    if raw.strip().lower() == "all":
        return list(MODES)
    modes = [tok.strip() for tok in raw.split(",") if tok.strip()]
    for mode in modes:
        if mode not in MODES:
            raise UsageError(f"unknown mode {mode!r} (choose from {', '.join(MODES)})")
    if not modes:
        raise UsageError("empty --modes")
    return _distinct(modes, "--modes")


def _distinct(values: list, flag: str) -> list:
    """Reject a repeated value: it would write the same grid row twice."""
    if len(set(values)) != len(values):
        shown = ", ".join("none" if v is None else str(v) for v in values)
        raise UsageError(f"{flag} repeats a value ({shown})")
    return values


def _require_path(cfg: RunConfig, key: str) -> Path:
    value = getattr(cfg, key)
    if value is None:
        raise ConfigError(f"{key} is not configured (set it in the config file or --{key.replace('_', '-')})")
    return value


def _require_file(cfg: RunConfig, key: str) -> Path:
    path = _require_path(cfg, key)
    if not path.is_file():
        raise DataError(f"{key} file not found: {path}")
    return path


def _load_conversations(
    source: Path, key: Optional[Path], lenient: bool = False, digests: Optional[dict] = None
) -> list[Conversation]:
    if not source.exists():
        raise DataError(f"corpus path not found: {source}")
    labels = load_key_file(key) if key else None
    if source.is_dir():
        convs = load_split(source, labels=labels, lenient=lenient, digests=digests)
    else:
        convs = load_conversations_jsonl(source)
        if labels:
            convs = [
                Conversation(
                    thread=c.thread,
                    replies=c.replies,
                    gold_label=labels.get(c.thread.id, c.gold_label),
                )
                for c in convs
            ]
    if not convs:
        raise DataError(f"no conversations found in {source}")
    return convs


def _load_checksummed(source: Path, key: Optional[Path]) -> tuple[list[Conversation], str]:
    """The corpus and its manifest checksum. A directory's files are hashed
    from the bytes the loader parsed, and the per-file map dies here."""
    digests: dict[str, str] = {}
    convs = _load_conversations(source, key, digests=digests)
    return convs, checksum(source, digests)


def _make_backend(cfg: RunConfig, classes: tuple[str, ...], input_kind: str, seed: int):
    if cfg.backend == BACKEND_TRANSFORMER:
        from .transformer import TransformerBackend

        return TransformerBackend(classes, input_kind=input_kind, seed=seed)
    return ReferenceBackend(classes, input_kind=input_kind, seed=seed)


# -- commands ----------------------------------------------------------------


def cmd_ingest(args) -> int:
    convs = _load_conversations(args.input_dir, args.key, lenient=args.lenient)
    args.output.parent.mkdir(parents=True, exist_ok=True)
    save_conversations_jsonl(convs, args.output)
    n_replies = sum(len(c.replies) for c in convs)
    n_pairs = sum(len(primary_pairs(c)) for c in convs)
    print(f"{len(convs)} threads, {n_replies} replies, {n_pairs} primary pairs -> {args.output}")
    return 0


def cmd_train(args) -> int:
    cfg = _resolve_config(args)
    train_convs, train_checksum = _load_checksummed(_require_path(cfg, "train_dir"), cfg.train_key)
    if args.phase == "all":
        names = backend_names([cfg.mode])
    else:
        names = [backend_name(cfg.mode, _PHASE_SLOTS[args.phase])]
    routing = None  # the train split as phase1 routes it: trained just now, or from disk
    for name in names:
        corpus_key = BACKEND_SPECS[name].pretrain_corpus
        corpus = _CORPUS_READERS[corpus_key](_require_file(cfg, corpus_key))
        inputs = {corpus_key: getattr(cfg, corpus_key)}
        if name == "lie":
            inputs["phase1_model"] = cfg.model_path("phase1")
            if routing is None:
                routing = assign_all(_load_backend(cfg, "phase1"), train_convs)
        backend = train_backend(
            name,
            train_convs,
            corpus,
            functools.partial(_make_backend, cfg),
            cfg.training_plan(),
            cfg.seed,
            routing,
        )
        out = cfg.model_path(name)
        out.parent.mkdir(parents=True, exist_ok=True)
        save_model(backend, out)
        note = ""
        if name == "phase1":
            routing = assign_all(backend, train_convs)
            note = f" (train split routed {summarize_assignments(routing)})"
        print(f"{name} -> {out}{note}")
        manifest = build_manifest(
            command=f"train:{name}",
            argv=tuple(sys.argv),
            config=cfg.to_dict(),
            inputs=inputs,
            outputs={"model": out},
            input_checksums={"train_dir": train_checksum},
        )
        write_manifest(manifest, out.with_suffix(".manifest.json"))
    return 0


def _load_backend(cfg: RunConfig, name: str):
    """The named backend's model file, which must have the classes and
    input kind BACKEND_SPECS gives that name."""
    path = cfg.model_path(name)
    backend = load_model(path)
    spec = BACKEND_SPECS[name]
    if (tuple(backend.classes), backend.input_kind) != (spec.classes, spec.input_kind):
        raise ModelFormatError(
            f"{path}: a {name} model has classes {list(spec.classes)} and {spec.input_kind} input, "
            f"this one has {list(backend.classes)} and {backend.input_kind} input"
        )
    return backend


def _load_backends(cfg: RunConfig, modes: list[str]) -> dict:
    return {name: _load_backend(cfg, name) for name in backend_names(modes)}


def _model_paths(cfg: RunConfig, mode: str) -> dict[str, Path]:
    return {slot: cfg.model_path(name) for slot, name in MODE_BACKENDS[mode].items()}


def cmd_classify(args) -> int:
    cfg, windows = _resolve_windows(args, _resolve_config(args))
    if len(windows) > 1:
        raise UsageError(f"classify takes one --window-days value, got {args.window_days!r}")
    convs, corpus_checksum = _load_checksummed(args.input, args.key)
    backends = _load_backends(cfg, [cfg.mode])
    [row] = score_grid(convs, [(cfg.mode, windows[0])], backends, cfg.entropy_epsilon)
    preds = row.predictions
    args.out.parent.mkdir(parents=True, exist_ok=True)
    save_predictions_jsonl(preds, args.out)
    counts = dict(Counter(p.label for p in preds))
    dropped = len(convs) - len(preds)
    note = f" ({dropped} threads outside the window)" if dropped else ""
    print(f"{len(preds)} predictions -> {args.out} {counts}{note}")
    manifest = build_manifest(
        command="classify",
        argv=tuple(sys.argv),
        config=cfg.to_dict(),
        models=_model_paths(cfg, cfg.mode),
        outputs={"predictions": args.out},
        input_checksums={"corpus": corpus_checksum},
    )
    write_manifest(manifest, args.out.with_suffix(".manifest.json"))
    return 0


def _slug(mode: str, window: Optional[int]) -> str:
    return mode if window is None else f"{mode}-{window}d"


def _evaluate(args, modes: list[str]) -> int:
    cfg, windows = _resolve_windows(args, _resolve_config(args))
    convs, corpus_checksum = _load_checksummed(args.input, args.key)
    golds_all = gold_labels(convs)
    out_dir: Path = args.out
    out_dir.mkdir(parents=True, exist_ok=True)
    average = "micro" if args.micro else "macro"

    scored = [c for c in convs if c.gold_label is not None]
    rows = [(mode, window) for mode in modes for window in windows]
    grid = score_grid(scored or convs, rows, _load_backends(cfg, modes), cfg.entropy_epsilon)
    reports: list[EvaluationReport] = []
    prediction_files: dict[str, Path] = {}
    for row in grid:
        slug = _slug(row.mode, row.window_days)
        pred_path = out_dir / f"predictions-{slug}.jsonl"
        save_predictions_jsonl(row.predictions, pred_path)
        prediction_files[slug] = pred_path
        if not scored:
            print(f"{slug}: no gold labels; wrote predictions only")
            continue
        config = dataclasses.replace(cfg, mode=row.mode, reply_window_days=row.window_days)
        golds = {p.thread_id: golds_all[p.thread_id] for p in row.predictions}
        report = build_report(
            config.pipeline_config(), row.predictions, golds, average=average, reply_counts=row.reply_counts
        )
        reports.append(report)

    outputs: dict[str, Path] = dict(prediction_files)
    if reports:
        table = render_reports(reports)
        print(table, end="")
        (out_dir / "report.txt").write_text(table, encoding="utf-8")
        (out_dir / "report.json").write_text(reports_to_json(reports), encoding="utf-8")
        outputs["report_txt"] = out_dir / "report.txt"
        outputs["report_json"] = out_dir / "report.json"
    manifest = build_manifest(
        command="evaluate",
        argv=tuple(sys.argv),
        config=cfg.to_dict(),
        inputs={"key": args.key},
        models={
            f"{mode}:{slot}": path for mode in modes for slot, path in _model_paths(cfg, mode).items()
        },
        outputs=outputs,
        input_checksums={"corpus": corpus_checksum},
    )
    write_manifest(manifest, out_dir / "manifest.json")
    return 0


def cmd_evaluate(args) -> int:
    return _evaluate(args, _parse_modes(args.modes, _resolve_config(args).mode))


def cmd_ablate(args) -> int:
    return _evaluate(args, list(MODES))


_DISPATCH = {
    "ingest": cmd_ingest,
    "train": cmd_train,
    "classify": cmd_classify,
    "evaluate": cmd_evaluate,
    "ablate": cmd_ablate,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return _DISPATCH[args.command](args)
    except UsageError as exc:
        print(f"{PROG}: error: {exc}", file=sys.stderr)
        return 1
    except DataError as exc:
        print(f"{PROG}: data error: {exc}", file=sys.stderr)
        return 2
    except ModelError as exc:
        print(f"{PROG}: model error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
