"""Per-author language models for closed-set authorship attribution.

The package trains one model per author (a feed-forward neural LM and an
interpolated Kneser-Ney n-gram baseline) on stemmed, pruned, id-encoded
text, then compares models by held-out perplexity and by attributing
pooled test sentences to the minimum-perplexity author.
"""

import os
import sys
import warnings

# One BLAS thread per process.  Training runs one worker process per usable
# CPU, and a multi-threaded BLAS can round a product differently from one
# thread, which would make the model bytes depend on the core count.  This
# takes effect only if numpy has not been imported before this package, so
# that case warns unless the environment already pinned OpenBLAS.
if "numpy" in sys.modules and os.environ.get("OPENBLAS_NUM_THREADS") != "1":
    warnings.warn(
        "numpy was imported before authorlm, so its BLAS may run several threads and "
        "round model products differently; import authorlm before numpy, or set "
        "OPENBLAS_NUM_THREADS=1 before starting Python",
        RuntimeWarning,
        stacklevel=2,
    )
os.environ.update(dict.fromkeys(("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"), "1"))

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
