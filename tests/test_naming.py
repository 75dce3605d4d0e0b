import string

import pytest
from hypothesis import given, strategies as st

from apifuzz.naming import (
    match_names,
    normalize_name,
    normalize_tokens,
    singularize,
    tokenize,
)


@pytest.mark.parametrize(("name", "tokens"), [
    ("bookId", ["book", "id"]),
    ("book_id", ["book", "id"]),
    ("book-id", ["book", "id"]),
    ("BookID", ["book", "id"]),
    ("HTTPServerError", ["http", "server", "error"]),
    ("orders", ["orders"]),
    ("customer ref", ["customer", "ref"]),
])
def test_tokenize(name, tokens):
    assert tokenize(name) == tokens


@pytest.mark.parametrize(("plural", "singular"), [
    ("books", "book"),
    ("categories", "category"),
    ("addresses", "address"),
    ("boxes", "box"),
    ("status", "status"),  # not a plural; 'us' must survive
    ("class", "class"),
    ("id", "id"),
])
def test_singularize(plural, singular):
    assert singularize(plural) == singular


def test_normalize_strips_only_trailing_marker_tokens():
    assert normalize_tokens("authorId") == ("author",)
    assert normalize_tokens("author_ref") == ("author",)
    assert normalize_tokens("bookIds") == ("book",)
    # marker in the middle stays
    assert normalize_tokens("idCard") == ("id", "card")
    # a bare marker keeps itself
    assert normalize_tokens("id") == ("id",)
    assert normalize_name("BookIds") == "book"


@pytest.mark.parametrize(("a", "b", "score"), [
    ("bookId", "book_id", 1.0),
    ("authorId", "Author", 1.0),
    ("bookIds", "bookId", 1.0),
    ("customer", "customers", 1.0),
])
def test_exact_matches_after_normalization(a, b, score):
    assert match_names(a, b) == score


def test_unrelated_ids_fall_below_threshold():
    assert match_names("customerId", "orderId") < 0.8
    assert match_names("name", "authorId") < 0.8


def test_partial_overlap_scores_proportionally():
    score = match_names("bookTitle", "bookId")
    assert 0.0 < score < 1.0


_IDENTIFIER = st.text(alphabet=string.ascii_letters + string.digits + "_-",
                      min_size=1, max_size=24)


@given(a=_IDENTIFIER, b=_IDENTIFIER)
def test_match_names_symmetric_and_bounded(a, b):
    ab = match_names(a, b)
    assert ab == match_names(b, a)
    assert 0.0 <= ab <= 1.0


@given(a=_IDENTIFIER)
def test_match_names_reflexive(a):
    assert match_names(a, a) == 1.0


def test_normalize_tokens_cache_is_bounded():
    info = normalize_tokens.cache_info()
    assert info.maxsize is not None
    for i in range(info.maxsize + 10):
        normalize_tokens(f"field{i}Id")
    assert normalize_tokens.cache_info().currsize <= info.maxsize
    assert normalize_tokens("bookIds") == ("book",)
