"""Command-line entry point: ingest, train, classify, evaluate, ablate.

Wiring only; every behavior lives in the library modules. Exit codes:
0 success, 1 usage/config error, 2 data error, 3 model error.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Optional, Sequence

from .agreement import STANCE_CLASSES, build_phase22_training, load_agreement_corpus
from .backends import (
    INPUT_PAIR,
    INPUT_TEXT,
    ReferenceBackend,
    labeled_examples,
    load_model,
    save_model,
)
from .certainty import (
    CERTAINTY_CLASSES,
    assign_all,
    load_hedge_corpus,
    summarize_assignments,
    train_phase1,
)
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
from .errors import ConfigError, DataError, ModelError, UsageError
from .evaluation import (
    EvaluationReport,
    build_report,
    render_reports,
    reports_to_json,
    restrict_to_windowed,
)
from .lie import LIE_CLASSES, build_phase21_training, load_deception_corpus
from .manifest import build_manifest, write_manifest
from .pipeline import (
    MODE_SINGLE_LIE,
    MODES,
    PipelineBackends,
    PipelineConfig,
    required_backends,
    run_batch,
)
from .predictions import save_predictions_jsonl

PROG = "rumorvet"

_PHASES = ("1", "2-1", "2-2", "all")


class _Parser(argparse.ArgumentParser):
    """argparse flags usage problems with exit code 2; our contract says 1."""

    def error(self, message):
        raise UsageError(message)


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", type=Path, default=None, help="flat key=value config file")
    p.add_argument("--mode", choices=MODES, default=None, help="routing mode")
    p.add_argument("--backend", choices=BACKENDS, default=None, help="classifier backend")
    p.add_argument("--seed", type=int, default=None, help="training seed")
    p.add_argument(
        "--epsilon", type=float, default=None, help="unverified entropy threshold offset"
    )
    p.add_argument("--model-dir", type=Path, default=None, help="trained model directory")
    p.add_argument("--train-dir", type=Path, default=None, help="train split directory")
    p.add_argument("--train-key", type=Path, default=None, help="train gold-label key file")
    p.add_argument("--hedge-corpus", type=Path, default=None, help="certainty pretrain corpus")
    p.add_argument("--deception-corpus", type=Path, default=None, help="lie pretrain corpus")
    p.add_argument(
        "--agreement-corpus", type=Path, default=None, help="agreement pretrain corpus"
    )


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
    p.add_argument("--phase", choices=_PHASES, default="all", help="which backend to train")

    p = sub.add_parser("classify", help="predict veracity for a corpus")
    _add_common(p)
    p.add_argument("input", type=Path, help="conversation directory or ingested JSONL")
    p.add_argument("--out", type=Path, default=Path("predictions.jsonl"))
    p.add_argument("--window-days", default=None, help="reply window in days")
    p.add_argument("--key", type=Path, default=None, help="gold-label key file")

    p = sub.add_parser("evaluate", help="score predictions against gold labels")
    _add_common(p)
    p.add_argument("input", type=Path, help="conversation directory or ingested JSONL")
    p.add_argument("--key", type=Path, default=None, help="gold-label key file")
    p.add_argument(
        "--modes",
        default=None,
        help="comma-separated modes, or 'all' for the full grid (default: config mode)",
    )
    p.add_argument(
        "--window-days",
        default=None,
        help="comma-separated day windows; 'none' is the unwindowed run",
    )
    p.add_argument("--micro", action="store_true", help="micro-average precision/recall")
    p.add_argument("--out", type=Path, default=Path("reports"))

    p = sub.add_parser("ablate", help="the full mode grid (shorthand for evaluate --modes all)")
    _add_common(p)
    p.add_argument("input", type=Path, help="conversation directory or ingested JSONL")
    p.add_argument("--key", type=Path, default=None, help="gold-label key file")
    p.add_argument(
        "--window-days",
        default=None,
        help="comma-separated day windows; 'none' is the unwindowed run",
    )
    p.add_argument("--micro", action="store_true", help="micro-average precision/recall")
    p.add_argument("--out", type=Path, default=Path("reports"))

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
    window = getattr(args, "window_days", None)
    if window is not None and "," not in str(window):
        overrides["reply_window_days"] = _parse_window_token(str(window))
    return load_config(getattr(args, "config", None), overrides)


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


def _parse_windows(raw: Optional[str], default: Optional[int]) -> list[Optional[int]]:
    if raw is None:
        return [default]
    return _distinct([_parse_window_token(tok) for tok in str(raw).split(",")], "--window-days")


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


def _load_conversations(source: Path, key: Optional[Path], lenient: bool = False) -> list[Conversation]:
    if not source.exists():
        raise DataError(f"corpus path not found: {source}")
    labels = load_key_file(key) if key else None
    if source.is_dir():
        convs = load_split(source, labels=labels, lenient=lenient)
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


def _load_train_split(cfg: RunConfig) -> list[Conversation]:
    source = _require_path(cfg, "train_dir")
    return _load_conversations(source, cfg.train_key)


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


def _train_phase1(cfg: RunConfig, train_convs: list[Conversation]) -> Path:
    hedge = load_hedge_corpus(_require_file(cfg, "hedge_corpus"))
    plan = cfg.training_plan()
    backend = _make_backend(cfg, CERTAINTY_CLASSES, INPUT_TEXT, cfg.seed)
    train_phase1(
        backend,
        hedge,
        train_convs,
        plan.phase1_pretrain,
        plan.phase1_finetune,
        plan.phase1_per_class,
        cfg.seed,
    )
    out = cfg.model_path("phase1")
    out.parent.mkdir(parents=True, exist_ok=True)
    save_model(backend, out)
    assignments = summarize_assignments(assign_all(backend, train_convs))
    print(f"phase 1 -> {out} (train split routed {assignments})")
    _write_train_manifest(cfg, "phase1", {"hedge_corpus": cfg.hedge_corpus}, out)
    return out


def _train_lie(cfg: RunConfig, train_convs: list[Conversation]) -> Path:
    deception = load_deception_corpus(_require_file(cfg, "deception_corpus"))
    plan = cfg.training_plan()
    assignments = None
    inputs = {"deception_corpus": cfg.deception_corpus}
    if cfg.mode != MODE_SINGLE_LIE:
        phase1_path = cfg.model_path("phase1")
        assignments = assign_all(load_model(phase1_path), train_convs)
        inputs["phase1_model"] = phase1_path
    pretrain, finetune = build_phase21_training(deception, train_convs, assignments)
    backend = _make_backend(cfg, LIE_CLASSES, INPUT_TEXT, cfg.seed + 1)
    backend.fit(labeled_examples(pretrain, LIE_CLASSES), plan.lie_pretrain)
    if finetune:
        backend.fit(labeled_examples(finetune, LIE_CLASSES), plan.lie_finetune)
    out = cfg.model_path("lie")
    out.parent.mkdir(parents=True, exist_ok=True)
    save_model(backend, out)
    print(f"phase 2-1 -> {out} ({len(pretrain)} pretrain, {len(finetune)} fine-tune examples)")
    _write_train_manifest(cfg, "lie", inputs, out)
    return out


def _train_agreement(cfg: RunConfig, train_convs: list[Conversation]) -> Path:
    corpus = load_agreement_corpus(_require_file(cfg, "agreement_corpus"))
    plan = cfg.training_plan()
    pretrain, finetune = build_phase22_training(corpus, train_convs)
    backend = _make_backend(cfg, STANCE_CLASSES, INPUT_PAIR, cfg.seed + 2)
    backend.fit(labeled_examples(pretrain, STANCE_CLASSES), plan.agreement_pretrain)
    if finetune:
        backend.fit(labeled_examples(finetune, STANCE_CLASSES), plan.agreement_finetune)
    out = cfg.model_path("agreement")
    out.parent.mkdir(parents=True, exist_ok=True)
    save_model(backend, out)
    print(f"phase 2-2 -> {out} ({len(pretrain)} pretrain, {len(finetune)} fine-tune pairs)")
    _write_train_manifest(cfg, "agreement", {"agreement_corpus": cfg.agreement_corpus}, out)
    return out


def _write_train_manifest(cfg: RunConfig, slot: str, inputs: dict, model_path: Path) -> None:
    inputs = dict(inputs)
    inputs["train_dir"] = cfg.train_dir
    manifest = build_manifest(
        command=f"train:{slot}",
        argv=tuple(sys.argv),
        config=cfg.to_dict(),
        inputs=inputs,
        outputs={"model": model_path},
    )
    write_manifest(manifest, model_path.with_suffix(".manifest.json"))


def cmd_train(args) -> int:
    cfg = _resolve_config(args)
    train_convs = _load_train_split(cfg)
    phases = []
    if args.phase in ("1", "all"):
        phases.append("phase1")
    if args.phase in ("2-1", "all"):
        phases.append("lie")
    if args.phase in ("2-2", "all"):
        phases.append("agreement")
    if args.phase == "all":
        needed = required_backends(cfg.mode)
        phases = [p for p in phases if p in needed]
    for phase in phases:
        if phase == "phase1":
            _train_phase1(cfg, train_convs)
        elif phase == "lie":
            _train_lie(cfg, train_convs)
        else:
            _train_agreement(cfg, train_convs)
    return 0


def _load_backends(cfg: RunConfig, mode: str, cache: dict) -> PipelineBackends:
    slots = {}
    for slot in required_backends(mode):
        path = cfg.model_path(slot, mode)
        if path not in cache:
            cache[path] = load_model(path)
        slots[slot] = cache[path]
    return PipelineBackends(**slots)


def cmd_classify(args) -> int:
    cfg = _resolve_config(args)
    convs = _load_conversations(args.input, args.key)
    backends = _load_backends(cfg, cfg.mode, {})
    kept = restrict_to_windowed(convs, cfg.reply_window_days)
    pconfig = cfg.pipeline_config()
    preds = run_batch(kept, pconfig, backends)
    args.out.parent.mkdir(parents=True, exist_ok=True)
    save_predictions_jsonl(preds, args.out)
    counts: dict[str, int] = {}
    for p in preds:
        counts[p.label] = counts.get(p.label, 0) + 1
    dropped = len(convs) - len(kept)
    note = f" ({dropped} threads outside the window)" if dropped else ""
    print(f"{len(preds)} predictions -> {args.out} {counts}{note}")
    manifest = build_manifest(
        command="classify",
        argv=tuple(sys.argv),
        config=cfg.to_dict(),
        inputs={"corpus": args.input},
        models={s: cfg.model_path(s, cfg.mode) for s in required_backends(cfg.mode)},
        outputs={"predictions": args.out},
    )
    write_manifest(manifest, args.out.with_suffix(".manifest.json"))
    return 0


def _slug(mode: str, window: Optional[int]) -> str:
    return mode if window is None else f"{mode}-{window}d"


def _evaluate(args, modes: list[str]) -> int:
    cfg = _resolve_config(args)
    convs = _load_conversations(args.input, args.key)
    golds_all = gold_labels(convs)
    windows = _parse_windows(getattr(args, "window_days", None), cfg.reply_window_days)
    out_dir: Path = args.out
    out_dir.mkdir(parents=True, exist_ok=True)
    average = "micro" if getattr(args, "micro", False) else "macro"

    cache: dict = {}
    reports: list[EvaluationReport] = []
    model_paths: dict[str, Path] = {}
    prediction_files: dict[str, Path] = {}
    for mode in modes:
        backends = _load_backends(cfg, mode, cache)
        for slot in required_backends(mode):
            model_paths[f"{mode}:{slot}"] = cfg.model_path(slot, mode)
        for window in windows:
            scored = [c for c in convs if c.gold_label is not None]
            target = scored if scored else convs
            kept = restrict_to_windowed(target, window)
            pconfig = PipelineConfig(
                mode=mode,
                entropy_epsilon=cfg.entropy_epsilon,
                reply_window_days=window,
                seed=cfg.seed,
                phase1_model=cfg.model_path("phase1", mode),
                lie_model=cfg.model_path("lie", mode),
                agreement_model=cfg.model_path("agreement", mode),
            )
            preds = run_batch(kept, pconfig, backends)
            pred_path = out_dir / f"predictions-{_slug(mode, window)}.jsonl"
            save_predictions_jsonl(preds, pred_path)
            prediction_files[_slug(mode, window)] = pred_path
            if not scored:
                print(f"{_slug(mode, window)}: no gold labels; wrote predictions only")
                continue
            golds = {c.thread.id: golds_all[c.thread.id] for c in kept}
            reports.append(build_report(pconfig, preds, golds, conversations=kept, average=average))

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
        inputs={"corpus": args.input, "key": args.key},
        models=model_paths,
        outputs=outputs,
    )
    write_manifest(manifest, out_dir / "manifest.json")
    return 0


def cmd_evaluate(args) -> int:
    cfg_mode = _resolve_config(args).mode
    return _evaluate(args, _parse_modes(getattr(args, "modes", None), cfg_mode))


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
