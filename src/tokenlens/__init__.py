"""Tokenizer engineering toolkit.

Four instruments around subword tokenizers: training (byte-pair,
likelihood-scored merging, unigram-LM pruning), vocabulary comparison,
per-language token-premium measurement over parallel corpora, and input-
embedding derivation for characters the tokenizer splits into pieces.
"""

from .analysis import (
    DEFAULT_RULES,
    ComparisonMatrix,
    NormalizationRules,
    NormalizeResult,
    VocabBreakdownRow,
    comparison_matrix,
    containment,
    jaccard,
    normalize_vocab,
    vocab_breakdown,
)
from .errors import OovCharacterError, ToolkitError
from .premium import (
    PremiumMatrix,
    PremiumReport,
    TokenizerHandle,
    bpe_tokenizer,
    premium,
    premium_matrix,
    ulm_tokenizer,
    write_premium_csv,
    write_premium_json,
)
from .text import (
    UNICODE_VERSION,
    ParallelCorpus,
    char_byte_len,
    load_corpus,
    load_parallel_corpus,
    recover_utf8_chars,
    unicode_block,
)
from .training import (
    UnigramVocab,
    bpe_encode,
    bpe_train,
    count_adjacent_pairs,
    load_probs,
    save_probs,
    ulm_prune,
    ulm_seed,
    ulm_viterbi_segment,
    unigram_log_likelihood,
    wordpiece_merge_score,
    wordpiece_train,
)
from .vocab import (
    MergeRule,
    MergeRuleList,
    Vocabulary,
    load_merges,
    load_vocab,
    save_merges,
    save_vocab,
)

__version__ = "0.1.0"

# embedding imports numpy, which takes longer than most commands that never
# touch an embedding; its names load it on first use (PEP 562).
_EMBEDDING_NAMES = (
    "AugmentationPlan",
    "DerivationStrategy",
    "LayerEncoder",
    "LookupEncoder",
    "ToyEncoder",
    "all_finite",
    "augment",
    "build_reference",
    "check_strategies",
    "constituent_ids",
    "corpus_similarity",
    "derive_knn",
    "derive_linreg",
    "derive_local_linreg",
    "derive_plans",
    "encode_augmented",
    "eval_similarity",
    "fraction_new_tokens",
    "load_plan",
    "pooled_hidden",
    "read_matrix",
    "save_plan",
    "select_oov_chars",
    "toy_encoder",
    "write_matrix",
)

__all__ = [name for name in globals() if not name.startswith("_")]
__all__ += ["embedding", *_EMBEDDING_NAMES]


def __getattr__(name: str):
    if name == "embedding" or name in _EMBEDDING_NAMES:
        import importlib  # "from . import embedding" would call back here

        embedding = importlib.import_module(".embedding", __name__)
        return embedding if name == "embedding" else getattr(embedding, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

