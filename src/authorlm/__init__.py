"""Per-author language models for closed-set authorship attribution.

The package trains one model per author (a feed-forward neural LM and an
interpolated Kneser-Ney n-gram baseline) on stemmed, pruned, id-encoded
text, then compares models by held-out perplexity and by attributing
pooled test sentences to the minimum-perplexity author.
"""

from . import config, evaluation, kn, nnlm, porter, prng, synthetic, textproc
from .evaluation import (
    AuthorModel,
    ClassificationResult,
    ExperimentReport,
    PerplexityReport,
    accuracy_sweep,
    classify,
    perplexity,
)
from .kn import KnModel
from .nnlm import NnlmConfig, NnlmModel, TrainingDiverged
from .synthetic import MarkovAuthor, generate_synthetic_corpus
from .textproc import (
    ProcessedCorpus,
    RawCorpus,
    Samples,
    SplitAssignment,
    Vocabulary,
    build_vocabulary,
    encode,
    extract_samples,
    split,
    tokenize,
)

__version__ = "0.1.0"
