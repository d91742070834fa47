"""Fixed reference task: the yardstick for host speed.

``run.py`` runs this script as its own process before and after every
stage.  It mixes what the stages do (interpreter start-up and numpy
import, tuple-keyed counting as in KN training, string clean-up as in
tokenizing, and matrix products at the NNLM batch shapes for V = 60 and
V = 2000) and imports nothing from authorlm, so no change to the program
can move it.  Do not change it: every reported time is scaled by its
measured duration.
"""

from collections import Counter

import numpy as np

rng = np.random.default_rng(0)

ids = rng.integers(0, 60, size=20_000).tolist()
counts = Counter()
for k in range(1, 5):
    for i in range(len(ids) - k + 1):
        counts[tuple(ids[i : i + k])] += 1

words = [f"w{i % 500:03d}," for i in range(20_000)]
vocab = Counter(w.strip(",").lower() for w in words)

x = rng.random((100, 48))
for v, repeats in ((60, 200), (2000, 40)):
    w = rng.random((48, v)) * 0.1
    for _ in range(repeats):
        y = np.exp(x @ w)
        g = y.T @ x

if len(counts) == 0 or len(vocab) != 500 or not np.isfinite(g).all():
    raise SystemExit("reference task computed a wrong result")
