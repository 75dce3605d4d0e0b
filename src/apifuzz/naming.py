"""Identifier normalization and name matching.

Resource inference, dependency-edge derivation, and id extraction all hinge
on deciding whether two identifiers refer to the same thing ("authorId" vs
"Author", "bookIds" vs "book_id").  The pipeline is deliberately a
deterministic token heuristic: split camel/snake/kebab case, lowercase,
strip trailing id/ref marker tokens, singularize, then score token overlap.
"""

from __future__ import annotations

import functools
import re

# Tokens that mark "this is a reference to X" rather than being part of X's
# name.  Only stripped from the tail of a token list.
ID_SUFFIX_TOKENS = frozenset({"id", "ids", "ref", "refs"})

# Minimum match_names score treated as "same thing" unless overridden.
DEFAULT_MATCH_THRESHOLD = 0.8

_CAMEL_BOUNDARY = re.compile(r"(?<=[a-z0-9])(?=[A-Z])|(?<=[A-Z])(?=[A-Z][a-z])")
_NON_ALNUM = re.compile(r"[^0-9a-zA-Z]+")


def tokenize(name: str) -> list[str]:
    """Split an identifier into lowercase tokens on case and separator boundaries."""
    spaced = _CAMEL_BOUNDARY.sub(" ", name)
    parts = _NON_ALNUM.split(spaced)
    return [p.lower() for p in parts if p]


def singularize(token: str) -> str:
    """Heuristic English singularization, good enough for resource nouns."""
    if len(token) > 3 and token.endswith("ies"):
        return token[:-3] + "y"
    if len(token) > 3 and token.endswith(("ses", "xes", "zes", "ches", "shes")):
        return token[:-2]
    if len(token) > 2 and token.endswith("s") \
            and not token.endswith(("ss", "us", "is")):
        return token[:-1]
    return token


@functools.lru_cache(maxsize=4096)
def normalize_tokens(name: str) -> tuple[str, ...]:
    """Canonical token form of a name: tokenized, id/ref suffixes stripped, singular.

    Stripping never produces an empty result; a name that is nothing but
    marker tokens (e.g. "id") keeps its tokens so it still compares equal
    to itself.  Memoized with a bound, because names also come from the
    responses of the API under test.
    """
    tokens = tokenize(name)
    trimmed = list(tokens)
    while len(trimmed) > 1 and trimmed[-1] in ID_SUFFIX_TOKENS:
        trimmed.pop()
    if not trimmed:
        trimmed = tokens or [""]
    return tuple(singularize(t) for t in trimmed)


def normalize_name(name: str) -> str:
    """Canonical display form: normalized tokens joined with underscores."""
    return "_".join(normalize_tokens(name))


def match_names(a: str, b: str) -> float:
    """Similarity of two identifiers in [0, 1].

    1.0 when the normalized token sequences are equal; otherwise the Jaccard
    overlap of the normalized token sets.  Symmetric and deterministic.
    """
    ta = normalize_tokens(a)
    tb = normalize_tokens(b)
    if ta == tb:
        return 1.0
    sa, sb = set(ta), set(tb)
    union = sa | sb
    if not union:
        return 0.0
    return len(sa & sb) / len(union)
