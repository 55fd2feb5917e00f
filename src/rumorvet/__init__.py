"""rumorvet: ex-ante rumor veracity from a double-channel pipeline.

A certainty classifier splits threads by linguistic tone; confident
threads are scored by a lie detector over the thread text, hedged ones
by aggregating the stances of their primary replies. The package ships
a deterministic reference backend, an optional transformer backend, an
evaluation harness for the mode/window experiment grids, and a synthetic
planted-signal benchmark that makes the whole pipeline testable at desk
scale.
"""

from .agreement import (
    GOLD_TO_STANCE,
    STANCE_CLASSES,
    aggregate,
    classify_agreement,
    score_pairs,
)
from .backends import (
    INPUT_PAIR,
    INPUT_TEXT,
    ClassifierBackend,
    ReferenceBackend,
    TrainingRecipe,
    load_model,
    predict_all,
    predict_rows,
    save_model,
)
from .certainty import (
    CERTAIN,
    CERTAINTY_CLASSES,
    UNCERTAIN,
    ChannelAssignment,
    classify_certainty,
    train_phase1,
)
from .config import RunConfig, load_config
from .corpus import (
    Conversation,
    Post,
    Reply,
    clean_text,
    filter_window,
    load_conversation,
    load_key_file,
    load_split,
    parse_timestamp,
    primary_pairs,
)
from .errors import (
    ConfigError,
    DataError,
    DegenerateEvidence,
    EmptyEvidence,
    EmptyMatrix,
    IdMismatch,
    MalformedStructure,
    ModelError,
    RumorVetError,
    UntrainedBackend,
    UsageError,
)
from .evaluation import (
    ConfusionMatrix,
    EvaluationReport,
    MetricSummary,
    build_report,
    confusion,
    metrics,
)
from .lie import classify_lie
from .manifest import RunManifest, build_manifest, write_manifest
from .pipeline import (
    MODE_DOUBLE,
    MODE_INVERSE,
    MODE_SINGLE_AGREEMENT,
    MODE_SINGLE_LIE,
    MODES,
    PipelineConfig,
    classify,
    run_batch,
)
from .predictions import (
    CHANNEL_AGREEMENT,
    CHANNEL_LIE,
    VeracityPrediction,
    load_predictions_jsonl,
    save_predictions_jsonl,
)
from .probs import (
    FALSE,
    TRUE,
    UNVERIFIED,
    VERACITY_CLASSES,
    ProbVector,
    decide,
    self_entropy,
)
from .synthetic import SyntheticCorpus, SyntheticSpec, make_corpus, materialize

__version__ = "0.1.0"
