"""Deterministic bookshop service used as the ground-truth test target.

Four resources: authors, books (each referencing an author), customers, and
orders (each referencing a customer and one or more books).  With every bug
toggle off the service conforms exactly to the OpenAPI document shipped next
to this module: ids follow ``^[a-z][0-9]{1,12}$``, timestamps come from a
logical clock, and sequential responses are a pure function of the request
history.

Each toggle injects exactly one misbehavior:

* ``schema-null-timestamp``   — representations carry ``creationTimestamp: null``
  although the schema forbids null;
* ``get-missing-customer-500``— GET of an absent customer returns 500, not 404;
* ``delete-customer-500``     — DELETE of an existing customer returns 500;
* ``invalid-param-2xx``       — DELETE /customers/{id} accepts a malformed id
  with 204 instead of rejecting it with 400;
* ``inventory-lost-update``   — order placement decrements book inventory via
  an unlocked read-sleep-write, so overlapping orders lose updates; the
  service's own stock accounting then trips and surfaces 500s.

Request validation reuses the package's schema validator against the shipped
document, so fixture checks and declared constraints cannot drift apart.
"""

from __future__ import annotations

import importlib.resources
import json
import re
import threading
import time
from dataclasses import dataclass
from itertools import islice
from random import Random

from ..checker import validate_value
from ..spec_ingest import ApiSpecIR, load_spec

BUG_NULL_TIMESTAMP = "schema-null-timestamp"
BUG_GET_MISSING_500 = "get-missing-customer-500"
BUG_DELETE_500 = "delete-customer-500"
BUG_INVALID_PARAM_2XX = "invalid-param-2xx"
BUG_LOST_UPDATE = "inventory-lost-update"

ALL_BUGS = (BUG_NULL_TIMESTAMP, BUG_GET_MISSING_500, BUG_DELETE_500,
            BUG_INVALID_PARAM_2XX, BUG_LOST_UPDATE)

_ID_RE = re.compile(r"^[a-z][0-9]{1,12}$")

DEFAULT_LIST_CAP = 20


@dataclass(frozen=True)
class BugToggle:
    bug_id: str
    enabled: bool = False


def bookshop_spec_document() -> bytes:
    """The OpenAPI document this service implements, as shipped in-repo."""
    return importlib.resources.files(__package__).joinpath(
        "openapi.json").read_bytes()


_SPEC_CACHE: ApiSpecIR | None = None


def bookshop_spec() -> ApiSpecIR:
    global _SPEC_CACHE
    if _SPEC_CACHE is None:
        _SPEC_CACHE = load_spec(bookshop_spec_document(), "json")
    return _SPEC_CACHE


def _normalize_toggles(toggles) -> set[str]:
    enabled: set[str] = set()
    for toggle in toggles or ():
        if isinstance(toggle, BugToggle):
            bug_id, on = toggle.bug_id, toggle.enabled
        else:
            bug_id, on = toggle, True
        if bug_id not in ALL_BUGS:
            raise ValueError(f"unknown bug toggle {bug_id!r}; "
                             f"known: {list(ALL_BUGS)}")
        if on:
            enabled.add(bug_id)
    return enabled


def _json_response(status: int, payload) -> tuple[int, dict, bytes]:
    return status, {"Content-Type": "application/json"}, \
        json.dumps(payload, sort_keys=True).encode("utf-8")


def _error(status: int, message: str) -> tuple[int, dict, bytes]:
    return _json_response(status, {"error": message})


_NO_CONTENT = (204, {}, b"")


class BookshopApp:
    """In-process request handler; also served over HTTP by :func:`serve`."""

    def __init__(self, toggles=(), randomize_ids: bool = False,
                 id_seed: int = 20240101, list_cap: int = DEFAULT_LIST_CAP,
                 race_window: float = 0.002):
        if list_cap < 0:
            raise ValueError(f"list_cap must be >= 0, got {list_cap}")
        self._toggles = _normalize_toggles(toggles)
        self._randomize_ids = randomize_ids
        self._id_seed = id_seed
        self._list_cap = list_cap
        self._race_window = race_window
        self._lock = threading.RLock()
        self._reset_state()

    def _reset_state(self) -> None:
        self.authors: dict[str, dict] = {}
        self.books: dict[str, dict] = {}
        self.customers: dict[str, dict] = {}
        self.orders: dict[str, dict] = {}
        self._counters = {"a": 0, "b": 0, "c": 0, "o": 0}
        self._clock = 0
        self._id_rng = Random(self._id_seed)

    # -- toggles ---------------------------------------------------------

    def bug_enabled(self, bug_id: str) -> bool:
        return bug_id in self._toggles

    def set_toggle(self, bug_id: str, enabled: bool) -> None:
        if bug_id not in ALL_BUGS:
            raise ValueError(f"unknown bug toggle {bug_id!r}")
        with self._lock:
            if enabled:
                self._toggles.add(bug_id)
            else:
                self._toggles.discard(bug_id)

    def toggles(self) -> dict[str, bool]:
        return {bug: bug in self._toggles for bug in ALL_BUGS}

    # -- primitives --------------------------------------------------------

    def _next_id(self, prefix: str, table: dict) -> str:
        with self._lock:
            if self._randomize_ids:
                while True:
                    candidate = prefix + str(self._id_rng.randint(10_000_000,
                                                                  99_999_999))
                    if candidate not in table:
                        return candidate
            self._counters[prefix] += 1
            return f"{prefix}{self._counters[prefix]}"

    def _timestamp(self) -> str:
        with self._lock:
            self._clock += 1
            clock = self._clock
        minutes, seconds = divmod(clock, 60)
        hours, minutes = divmod(minutes, 60)
        return f"2024-01-01T{hours % 24:02d}:{minutes:02d}:{seconds:02d}Z"

    def _render(self, record: dict) -> dict:
        rep = {k: v for k, v in record.items() if not k.startswith("_")}
        if self.bug_enabled(BUG_NULL_TIMESTAMP) and "creationTimestamp" in rep:
            rep["creationTimestamp"] = None
        return rep

    def _render_list(self, table: dict) -> list[dict]:
        """The last ``list_cap`` records in insertion order, read from the
        end of the table so that a list costs O(cap), not O(table).  The
        read holds the lock that creates insert under."""
        with self._lock:
            records = list(islice(reversed(table.values()), self._list_cap))
        return [self._render(r) for r in reversed(records)]

    def _parse_body(self, body: bytes):
        try:
            return json.loads(body.decode("utf-8")), None
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            return None, _error(400, f"request body is not valid JSON: {exc}")

    def _validate_body(self, value, schema_name: str):
        schema = bookshop_spec().schemas[schema_name]
        violations = validate_value(value, schema)
        if violations:
            v = violations[0]
            return _error(400, f"invalid request body at {v.json_path}: "
                               f"{v.message}")
        return None

    # -- request entry point --------------------------------------------------

    def handle(self, method: str, path: str, query: str = "",
               headers: dict | None = None, body: bytes = b""):
        """Dispatch one request; returns ``(status, headers, body_bytes)``."""
        method = method.upper()
        segments = [s for s in path.split("/") if s]

        if segments and segments[0] == "_admin":
            return self._handle_admin(method, segments, query, body)

        table_for = {"authors": self.authors, "books": self.books,
                     "customers": self.customers, "orders": self.orders}
        if not segments or segments[0] not in table_for or len(segments) > 2:
            return _error(404, f"no such path: /{'/'.join(segments)}")
        collection = segments[0]

        if len(segments) == 1:
            if method == "GET":
                return _json_response(200, self._render_list(table_for[collection]))
            if method == "POST":
                return self._create(collection, body)
            return _error(404, f"method {method} not supported on /{collection}")

        item_id = segments[1]
        if method == "GET":
            return self._get_item(collection, item_id)
        if method == "PUT" and collection == "books":
            return self._update_book(item_id, body)
        if method == "DELETE":
            return self._delete_item(collection, item_id)
        return _error(404, f"method {method} not supported on /{collection}/{{id}}")

    # -- admin surface (not part of the published spec) -------------------------

    def _handle_admin(self, method: str, segments: list[str], query: str,
                      body: bytes):
        if segments[1:] == ["toggles"]:
            if method == "GET":
                return _json_response(200, {"toggles": self.toggles()})
            if method == "PUT":
                parsed, err = self._parse_body(body)
                if err:
                    return err
                if not isinstance(parsed, dict):
                    return _error(400, "expected an object of bug_id -> bool")
                try:
                    for bug_id, enabled in parsed.items():
                        self.set_toggle(bug_id, bool(enabled))
                except ValueError as exc:
                    return _error(400, str(exc))
                return _json_response(200, {"toggles": self.toggles()})
        if segments[1:] == ["reset"] and method == "POST":
            with self._lock:
                self._reset_state()
            return _NO_CONTENT
        if segments[1:] == ["stall"]:
            params = dict(
                part.split("=", 1) for part in query.split("&") if "=" in part)
            try:
                seconds = min(float(params.get("seconds", "1")), 5.0)
            except ValueError:
                return _error(400, "seconds must be a number")
            time.sleep(seconds)
            return _json_response(200, {"stalled": seconds})
        return _error(404, "no such admin path")

    # -- creation ----------------------------------------------------------------

    def _create(self, collection: str, body: bytes):
        parsed, err = self._parse_body(body)
        if err:
            return err
        if collection == "authors":
            err = self._validate_body(parsed, "NewAuthor")
            if err:
                return err
            author_id = self._next_id("a", self.authors)
            record = {"authorId": author_id, "name": parsed["name"],
                      "creationTimestamp": self._timestamp()}
            with self._lock:
                self.authors[author_id] = record
            return _json_response(201, self._render(record))

        if collection == "books":
            err = self._validate_body(parsed, "NewBook")
            if err:
                return err
            if parsed["authorId"] not in self.authors:
                return _error(404, f"no such author: {parsed['authorId']}")
            inventory = parsed.get("inventory", 0)
            book_id = self._next_id("b", self.books)
            record = {
                "bookId": book_id,
                "title": parsed["title"],
                "authorId": parsed["authorId"],
                "inventory": inventory,
                "format": parsed.get("format", "paperback"),
                "creationTimestamp": self._timestamp(),
                "_stocked": inventory,
                "_sold": 0,
            }
            with self._lock:
                self.books[book_id] = record
            return _json_response(201, self._render(record))

        if collection == "customers":
            err = self._validate_body(parsed, "NewCustomer")
            if err:
                return err
            customer_id = self._next_id("c", self.customers)
            record = {"customerId": customer_id, "name": parsed["name"],
                      "email": parsed.get("email", ""),
                      "creationTimestamp": self._timestamp()}
            with self._lock:
                self.customers[customer_id] = record
            return _json_response(201, self._render(record))

        return self._create_order(parsed)

    def _create_order(self, parsed):
        err = self._validate_body(parsed, "NewOrder")
        if err:
            return err
        if parsed["customerId"] not in self.customers:
            return _error(404, f"no such customer: {parsed['customerId']}")
        # The records found here are the ones the order uses: a concurrent
        # DELETE may drop a book from ``self.books`` at any later point.
        books = {}
        for book_id in parsed["bookIds"]:
            book = self.books.get(book_id)
            if book is None:
                return _error(404, f"no such book: {book_id}")
            books[book_id] = book

        if self.bug_enabled(BUG_LOST_UPDATE):
            # Deliberately unlocked read-sleep-write: concurrent orders for
            # the same book read the same inventory and overwrite each other.
            for book_id in parsed["bookIds"]:
                book = books[book_id]
                stale = book["inventory"]
                if stale > 0:
                    time.sleep(self._race_window)
                    book["inventory"] = stale - 1
                    with self._lock:
                        book["_sold"] += 1
        else:
            with self._lock:
                for book_id in parsed["bookIds"]:
                    book = books[book_id]
                    if book["inventory"] > 0:
                        book["inventory"] -= 1
                        book["_sold"] += 1

        for book_id, book in books.items():
            if book["inventory"] + book["_sold"] != book["_stocked"]:
                return _error(500, f"inventory accounting corrupted for book "
                                   f"{book_id}: {book['inventory']} on hand + "
                                   f"{book['_sold']} sold != "
                                   f"{book['_stocked']} stocked")

        order_id = self._next_id("o", self.orders)
        record = {"orderId": order_id, "customerId": parsed["customerId"],
                  "bookIds": list(parsed["bookIds"]),
                  "creationTimestamp": self._timestamp()}
        with self._lock:
            self.orders[order_id] = record
        return _json_response(201, self._render(record))

    # -- item operations ------------------------------------------------------------

    def _get_item(self, collection: str, item_id: str):
        if not _ID_RE.match(item_id):
            return _error(400, f"malformed id: {item_id!r}")
        table = {"authors": self.authors, "books": self.books,
                 "customers": self.customers, "orders": self.orders}[collection]
        record = table.get(item_id)
        if record is None:
            if collection == "customers" and self.bug_enabled(BUG_GET_MISSING_500):
                return _error(500, "unhandled exception looking up customer")
            return _error(404, f"no such {collection[:-1]}: {item_id}")
        return _json_response(200, self._render(record))

    def _update_book(self, book_id: str, body: bytes):
        if not _ID_RE.match(book_id):
            return _error(400, f"malformed id: {book_id!r}")
        if book_id not in self.books:
            return _error(404, f"no such book: {book_id}")
        parsed, err = self._parse_body(body)
        if err:
            return err
        err = self._validate_body(parsed, "BookUpdate")
        if err:
            return err
        with self._lock:
            book = self.books[book_id]
            if "title" in parsed:
                book["title"] = parsed["title"]
            if "format" in parsed:
                book["format"] = parsed["format"]
            if "inventory" in parsed:
                book["_stocked"] += parsed["inventory"] - book["inventory"]
                book["inventory"] = parsed["inventory"]
        return _json_response(200, self._render(book))

    def _delete_item(self, collection: str, item_id: str):
        valid_id = bool(_ID_RE.match(item_id))
        if not valid_id:
            if collection == "customers" and self.bug_enabled(BUG_INVALID_PARAM_2XX):
                return _NO_CONTENT  # pretends the delete worked
            return _error(400, f"malformed id: {item_id!r}")
        table = {"authors": self.authors, "books": self.books,
                 "customers": self.customers, "orders": self.orders}[collection]
        with self._lock:
            if item_id not in table:
                return _error(404, f"no such {collection[:-1]}: {item_id}")
            if collection == "customers" and self.bug_enabled(BUG_DELETE_500):
                return _error(500, "unhandled exception deleting customer")
            del table[item_id]
        return _NO_CONTENT
