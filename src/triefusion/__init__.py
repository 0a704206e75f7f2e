"""Online trie-prior fusion decoding with a drift simulation harness.

The decoding engine mixes any base model's next-token distribution with a
sparse prior built online from a frequency/length/recency prefix trie. No
parameter updates: adaptation happens purely at inference time, one
observed sequence at a time.
"""

from .errors import TrieFusionError
from .fusion import (
    Decoder,
    DecoderConfig,
    StepDiagnostics,
    adjust_confidences,
    calibrate_temperature,
    continuity,
    disagreement,
    entropy_confidence,
    fuse_step,
    softmax_with_temperature,
)
from .harness import decode_sequence, run_online, warm_start
from .lm import ExternalLogitProvider, NGramModel, train_ngram
from .metrics import MetricBundle, aggregate, aggregate_with_ci, evaluate_pair
from .prior import (
    ScoringWeights,
    SparseDistribution,
    collect_candidates,
    score_candidates,
    top_preserving_distribution,
    trie_prior,
)
from .stream import (
    ConceptSpec,
    DriftSchedule,
    StreamItem,
    generate_stream,
    lexical_drift_telemetry,
)
from .trie import PrefixTrie, TrieConfig
from .vocab import VocabRegistry, detokenize, tokenize

__version__ = "0.1.0"

__all__ = [
    "ConceptSpec",
    "Decoder",
    "DecoderConfig",
    "DriftSchedule",
    "ExternalLogitProvider",
    "MetricBundle",
    "NGramModel",
    "PrefixTrie",
    "ScoringWeights",
    "SparseDistribution",
    "StepDiagnostics",
    "StreamItem",
    "TrieConfig",
    "TrieFusionError",
    "VocabRegistry",
    "adjust_confidences",
    "aggregate",
    "aggregate_with_ci",
    "calibrate_temperature",
    "collect_candidates",
    "continuity",
    "decode_sequence",
    "detokenize",
    "disagreement",
    "entropy_confidence",
    "evaluate_pair",
    "fuse_step",
    "generate_stream",
    "lexical_drift_telemetry",
    "run_online",
    "score_candidates",
    "softmax_with_temperature",
    "tokenize",
    "top_preserving_distribution",
    "train_ngram",
    "trie_prior",
    "warm_start",
]
