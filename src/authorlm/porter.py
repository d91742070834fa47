"""Porter suffix-stripping stemmer (M. Porter, 1980).

Pure-function implementation of the five-step algorithm, following the
author's reference implementation: that means the two deviations from the
published rule table (``bli -> ble`` instead of ``abli -> able`` in step 2,
plus the extra ``logi -> log`` rule) and the convention that words of one
or two letters are returned untouched.  Stems produced here agree with the
reference implementation's published vocabulary/output mapping.

Input is expected to be a lowercase ASCII word; anything containing a
character outside ``a-z`` is returned unchanged.

Each distinct word is stemmed once per process, so stemming cost grows
with the vocabulary, not with the token count: ``stem`` is a pure function
of its string, and ``functools.cache`` keeps one entry per distinct word
it has seen (``stem.__wrapped__`` is the uncached algorithm).
"""

from __future__ import annotations

from functools import cache

__all__ = ["stem"]

_VOWELS = "aeiou"


def _is_cons(word: str, i: int) -> bool:
    """True if word[i] is a consonant; 'y' counts as one only after a vowel
    or at the start."""
    ch = word[i]
    if ch in _VOWELS:
        return False
    if ch == "y":
        return i == 0 or not _is_cons(word, i - 1)
    return True


def _measure(s: str) -> int:
    """Number of vowel->consonant transitions in s (the 'm' of the rules)."""
    m = 0
    prev_cons = None
    for i in range(len(s)):
        cons = _is_cons(s, i)
        if prev_cons is False and cons:
            m += 1
        prev_cons = cons
    return m


def _has_vowel(s: str) -> bool:
    return any(not _is_cons(s, i) for i in range(len(s)))


def _ends_double_cons(s: str) -> bool:
    return len(s) >= 2 and s[-1] == s[-2] and _is_cons(s, len(s) - 1)


def _ends_cvc(s: str) -> bool:
    """consonant-vowel-consonant ending where the final consonant is not
    w, x or y; used to decide whether to restore a trailing 'e'."""
    if len(s) < 3:
        return False
    n = len(s)
    if not (_is_cons(s, n - 1) and not _is_cons(s, n - 2) and _is_cons(s, n - 3)):
        return False
    return s[-1] not in "wxy"


def _step1a(w: str) -> str:
    if w.endswith("sses"):
        return w[:-2]
    if w.endswith("ies"):
        return w[:-2]
    if w.endswith("s") and w[-2] != "s":
        return w[:-1]
    return w


def _step1b(w: str) -> str:
    if w.endswith("eed"):
        # "eed" claims the match even when m == 0, so no ed/ing handling.
        return w[:-1] if _measure(w[:-3]) > 0 else w
    if w.endswith("ed") and _has_vowel(w[:-2]):
        w = w[:-2]
    elif w.endswith("ing") and _has_vowel(w[:-3]):
        w = w[:-3]
    else:
        return w
    # cleanup after a removed ed/ing
    if w.endswith(("at", "bl", "iz")):
        return w + "e"
    if _ends_double_cons(w) and w[-1] not in "lsz":
        return w[:-1]
    if _measure(w) == 1 and _ends_cvc(w):
        return w + "e"
    return w


def _step1c(w: str) -> str:
    if w.endswith("y") and _has_vowel(w[:-1]):
        return w[:-1] + "i"
    return w


# (suffix, replacement) in match order; first suffix match wins and the
# replacement only fires when the remaining stem has m > 0.
_STEP2_RULES = (
    ("ational", "ate"), ("tional", "tion"),
    ("enci", "ence"), ("anci", "ance"),
    ("izer", "ize"),
    ("bli", "ble"),  # reference implementation; rule table has abli -> able
    ("alli", "al"), ("entli", "ent"), ("eli", "e"), ("ousli", "ous"),
    ("ization", "ize"), ("ation", "ate"), ("ator", "ate"),
    ("alism", "al"), ("iveness", "ive"), ("fulness", "ful"), ("ousness", "ous"),
    ("aliti", "al"), ("iviti", "ive"), ("biliti", "ble"),
    ("logi", "log"),  # reference implementation; absent from the rule table
)

_STEP3_RULES = (
    ("icate", "ic"), ("ative", ""), ("alize", "al"),
    ("iciti", "ic"), ("ical", "ic"), ("ful", ""), ("ness", ""),
)

_STEP4_SUFFIXES = (
    "al", "ance", "ence", "er", "ic", "able", "ible",
    "ant", "ement", "ment", "ent", "ion", "ou", "ous",
    "ism", "ate", "iti", "ive", "ize",
)


def _apply_rules(w: str, rules) -> str:
    for suffix, repl in rules:
        if w.endswith(suffix):
            stem = w[: len(w) - len(suffix)]
            if _measure(stem) > 0:
                return stem + repl
            return w
    return w


def _step4(w: str) -> str:
    for suffix in _STEP4_SUFFIXES:
        if w.endswith(suffix):
            stem = w[: len(w) - len(suffix)]
            if suffix == "ion" and not stem.endswith(("s", "t")):
                continue
            if _measure(stem) > 1:
                return stem
            return w
    return w


def _step5(w: str) -> str:
    if w.endswith("e"):
        m = _measure(w)
        if m > 1 or (m == 1 and not _ends_cvc(w[:-1])):
            w = w[:-1]
    if w.endswith("ll") and _measure(w) > 1:
        w = w[:-1]
    return w


@cache
def stem(word: str) -> str:
    """Return the Porter stem of a lowercase word.

    Words shorter than three letters and tokens containing anything other
    than a-z come back unchanged.
    """
    if len(word) <= 2 or not all("a" <= c <= "z" for c in word):
        return word
    w = _step1a(word)
    w = _step1b(w)
    w = _step1c(w)
    w = _apply_rules(w, _STEP2_RULES)
    w = _apply_rules(w, _STEP3_RULES)
    w = _step4(w)
    w = _step5(w)
    return w
