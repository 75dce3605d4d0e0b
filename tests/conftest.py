import json
import re

import pytest
import yaml

from apifuzz.bookshop import BookshopApp, bookshop_spec, bookshop_spec_document
from apifuzz.http_driver import InProcessTarget
from apifuzz.sampling import build_sampling_spec
from apifuzz.semantic_model import infer_model


@pytest.fixture(scope="session")
def bookshop_ir():
    return bookshop_spec()


@pytest.fixture(scope="session")
def bookshop_model(bookshop_ir):
    return infer_model(bookshop_ir)


@pytest.fixture(scope="session")
def bookshop_sampling(bookshop_ir, bookshop_model):
    return build_sampling_spec(bookshop_ir, bookshop_model)


@pytest.fixture
def app():
    return BookshopApp()


@pytest.fixture
def target(app):
    t = InProcessTarget(app)
    yield t
    t.close()


def make_target(toggles=(), **kwargs):
    return InProcessTarget(BookshopApp(toggles=toggles, **kwargs))


def minimal_spec_doc(paths: dict, schemas: dict | None = None) -> bytes:
    doc = {
        "openapi": "3.0.3",
        "info": {"title": "mini", "version": "1.0.0"},
        "paths": paths,
    }
    if schemas:
        doc["components"] = {"schemas": schemas}
    return json.dumps(doc).encode("utf-8")


def bookshop_yaml_document() -> bytes:
    """The bookshop document as YAML whose plain scalars JSON would not
    read alike: a ``Book.edition`` the service never sends, whose ``enum``
    and ``example`` are unquoted dates, and unquoted integer status keys."""
    doc = json.loads(bookshop_spec_document())
    doc["components"]["schemas"]["Book"]["properties"]["edition"] = {
        "type": "string", "enum": ["2020-01-01", "2021-06-30"],
        "example": "2020-01-01"}
    text = yaml.safe_dump(doc, sort_keys=False)
    return re.sub(r"'(\d{3}|\d{4}-\d\d-\d\d)'", r"\1", text).encode()


def edge_set(model) -> set[tuple[str, str]]:
    return {(e.dependent, e.prerequisite) for e in model.edges}


def json_response(schema: dict, description: str = "ok") -> dict:
    return {"description": description,
            "content": {"application/json": {"schema": schema}}}


class FlushFailsAfterHeader:
    """A file whose every flush after the first (the trace header's) fails,
    as on a full volume.  Writes go to ``inner`` when there is one."""

    def __init__(self, inner=None):
        self.inner = inner
        self.name = getattr(inner, "name", "x")
        self.flushes = 0
        self.closed = False

    def write(self, data):
        return self.inner.write(data) if self.inner else len(data)

    def flush(self):
        self.flushes += 1
        if self.flushes > 1:
            raise OSError(28, "No space left on device")
        if self.inner:
            self.inner.flush()

    def close(self):
        self.closed = True
        if self.inner:
            self.inner.close()
