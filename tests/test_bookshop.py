import json
import threading
import time

import pytest

from apifuzz.bookshop import (
    ALL_BUGS,
    BookshopApp,
    BugToggle,
    bookshop_spec,
    bookshop_spec_document,
)
from apifuzz.bookshop.server import PortInUse, serve
from apifuzz.checker import validate_value


def call(app, method, path, body=None, query=""):
    raw = json.dumps(body).encode() if body is not None else b""
    status, headers, payload = app.handle(method, path, query, {}, raw)
    parsed = json.loads(payload) if payload else None
    return status, parsed


def seed_book(app, inventory=3):
    call(app, "POST", "/authors", {"name": "Ada"})
    status, book = call(app, "POST", "/books",
                        {"title": "T", "authorId": "a1",
                         "inventory": inventory})
    assert status == 201
    return book["bookId"]


# --- conformant baseline ---------------------------------------------------------

def test_create_then_get_round_trip(app):
    status, created = call(app, "POST", "/customers", {"name": "Ada"})
    assert status == 201
    status, fetched = call(app, "GET", f"/customers/{created['customerId']}")
    assert status == 200
    assert fetched == created


def test_all_clean_responses_validate_against_shipped_spec(app):
    ir = bookshop_spec()
    seed_book(app)
    call(app, "POST", "/customers", {"name": "Bo", "email": "bo@x"})
    call(app, "POST", "/orders", {"customerId": "c1", "bookIds": ["b1"]})
    checks = [
        ("GET", "/authors", "GET /authors", 200),
        ("GET", "/authors/a1", "GET /authors/{authorId}", 200),
        ("GET", "/books", "GET /books", 200),
        ("GET", "/books/b1", "GET /books/{bookId}", 200),
        ("GET", "/customers/c1", "GET /customers/{customerId}", 200),
        ("GET", "/orders/o1", "GET /orders/{orderId}", 200),
        ("GET", "/orders", "GET /orders", 200),
    ]
    for method, path, op_id, expected in checks:
        status, body = call(app, method, path)
        assert status == expected
        schema = ir.operation(op_id).response_map()[str(expected)].body_schema
        assert validate_value(body, schema) == [], (path, body)


def test_validation_and_error_paths(app):
    assert call(app, "POST", "/authors", {"name": ""})[0] == 400  # min_length
    assert call(app, "POST", "/authors", {})[0] == 400  # required
    status, _ = app.handle("POST", "/authors", "", {}, b"{nope")[0], None
    assert status == 400  # malformed JSON
    assert call(app, "GET", "/authors/NOPE")[0] == 400  # malformed id
    assert call(app, "GET", "/authors/a999")[0] == 404
    assert call(app, "POST", "/books",
                {"title": "T", "authorId": "z1"})[0] == 404  # missing author
    assert call(app, "POST", "/books",
                {"title": "T", "authorId": "a1", "format": "vinyl"})[0] == 400
    assert call(app, "GET", "/nope")[0] == 404
    assert call(app, "PATCH", "/authors/a1")[0] == 404


def test_put_updates_book(app):
    book_id = seed_book(app, inventory=3)
    status, updated = call(app, "PUT", f"/books/{book_id}",
                           {"inventory": 7, "title": "U"})
    assert status == 200
    assert updated["inventory"] == 7 and updated["title"] == "U"
    assert call(app, "PUT", f"/books/{book_id}", {"inventory": -2})[0] == 400
    assert call(app, "PUT", "/books/b999", {"inventory": 1})[0] == 404


def test_delete_lifecycle(app):
    call(app, "POST", "/customers", {"name": "x"})
    assert call(app, "DELETE", "/customers/c1")[0] == 204
    assert call(app, "GET", "/customers/c1")[0] == 404
    assert call(app, "DELETE", "/customers/c1")[0] == 404


def test_orders_decrement_inventory_with_floor(app):
    book_id = seed_book(app, inventory=1)
    call(app, "POST", "/customers", {"name": "B"})
    assert call(app, "POST", "/orders",
                {"customerId": "c1", "bookIds": [book_id]})[0] == 201
    assert call(app, "GET", f"/books/{book_id}")[1]["inventory"] == 0
    # out of stock still sells (backorder); inventory never goes negative
    assert call(app, "POST", "/orders",
                {"customerId": "c1", "bookIds": [book_id]})[0] == 201
    assert call(app, "GET", f"/books/{book_id}")[1]["inventory"] == 0


def test_order_validation(app):
    seed_book(app)
    call(app, "POST", "/customers", {"name": "B"})
    assert call(app, "POST", "/orders",
                {"customerId": "z9", "bookIds": ["b1"]})[0] == 404
    assert call(app, "POST", "/orders",
                {"customerId": "c1", "bookIds": ["z9"]})[0] == 404
    assert call(app, "POST", "/orders",
                {"customerId": "c1", "bookIds": []})[0] == 400  # minItems


def test_responses_are_pure_function_of_history():
    def run():
        app = BookshopApp()
        transcript = []
        transcript.append(call(app, "POST", "/authors", {"name": "A"}))
        transcript.append(call(app, "POST", "/books",
                               {"title": "T", "authorId": "a1"}))
        transcript.append(call(app, "GET", "/books"))
        transcript.append(call(app, "DELETE", "/books/b1"))
        transcript.append(call(app, "GET", "/books/b1"))
        return transcript

    assert run() == run()


def test_list_cap_limits_collection_responses():
    app = BookshopApp(list_cap=5)
    for i in range(9):
        call(app, "POST", "/authors", {"name": f"A{i}"})
    status, body = call(app, "GET", "/authors")
    assert status == 200 and len(body) == 5
    assert body[-1]["authorId"] == "a9"  # most recent kept


def test_randomized_ids_still_match_pattern():
    import re
    app = BookshopApp(randomize_ids=True)
    status, created = call(app, "POST", "/customers", {"name": "x"})
    assert status == 201
    assert re.fullmatch(r"[a-z][0-9]{1,12}", created["customerId"])
    assert created["customerId"] != "c1"


# --- seeded bugs -------------------------------------------------------------------

def test_all_toggles_default_disabled(app):
    assert app.toggles() == {bug: False for bug in ALL_BUGS}


def test_unknown_toggle_rejected():
    with pytest.raises(ValueError):
        BookshopApp(toggles=["no-such-bug"])
    with pytest.raises(ValueError):
        BookshopApp().set_toggle("no-such-bug", True)


def test_bug_toggle_dataclass_accepted():
    app = BookshopApp(toggles=[BugToggle("get-missing-customer-500", True),
                               BugToggle("delete-customer-500", False)])
    assert app.bug_enabled("get-missing-customer-500")
    assert not app.bug_enabled("delete-customer-500")


def test_null_timestamp_bug():
    app = BookshopApp(toggles=["schema-null-timestamp"])
    status, created = call(app, "POST", "/customers", {"name": "x"})
    assert status == 201
    assert created["creationTimestamp"] is None


def test_get_missing_customer_500_bug():
    app = BookshopApp(toggles=["get-missing-customer-500"])
    assert call(app, "GET", "/customers/c9")[0] == 500
    # present customers still work; other resources unaffected
    call(app, "POST", "/customers", {"name": "x"})
    assert call(app, "GET", "/customers/c1")[0] == 200
    assert call(app, "GET", "/books/b9")[0] == 404


def test_delete_customer_500_bug():
    app = BookshopApp(toggles=["delete-customer-500"])
    call(app, "POST", "/customers", {"name": "x"})
    assert call(app, "DELETE", "/customers/c1")[0] == 500
    assert call(app, "GET", "/customers/c1")[0] == 200  # not deleted
    assert call(app, "DELETE", "/customers/c9")[0] == 404  # missing still 404


def test_invalid_param_2xx_bug():
    app = BookshopApp(toggles=["invalid-param-2xx"])
    assert call(app, "DELETE", "/customers/!!!bad")[0] == 204  # the bug
    assert call(app, "GET", "/customers/!!!bad")[0] == 400  # GET unaffected
    clean = BookshopApp()
    assert call(clean, "DELETE", "/customers/!!!bad")[0] == 400


def _concurrent_orders(app, book_id, n=2):
    barrier = threading.Barrier(n)
    statuses = []

    def worker():
        barrier.wait()
        status, _ = call(app, "POST", "/orders",
                         {"customerId": "c1", "bookIds": [book_id]})
        statuses.append(status)

    threads = [threading.Thread(target=worker) for _ in range(n)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    return statuses


def test_lost_update_bug_loses_decrements():
    """Two concurrent decrements of inventory 2 leave 1 (a lost update)."""
    occurrences = 0
    for _ in range(200):
        app = BookshopApp(toggles=["inventory-lost-update"], race_window=0.002)
        book_id = seed_book(app, inventory=2)
        call(app, "POST", "/customers", {"name": "B"})
        _concurrent_orders(app, book_id, n=2)
        final = call(app, "GET", f"/books/{book_id}")[1]["inventory"]
        if final == 1:
            occurrences += 1
            break
    assert occurrences > 0


def test_delete_of_the_book_during_an_order_gets_an_answer():
    """A DELETE landing in the order's race window must not crash ``handle``."""
    app = BookshopApp(toggles=["inventory-lost-update"], race_window=0.3)
    book_id = seed_book(app)
    call(app, "POST", "/customers", {"name": "B"})
    outcome = {}

    def order():
        try:
            outcome["status"] = call(app, "POST", "/orders",
                                     {"customerId": "c1",
                                      "bookIds": [book_id]})[0]
        except Exception as exc:  # noqa: BLE001 - the failure under test
            outcome["error"] = exc

    thread = threading.Thread(target=order)
    thread.start()
    time.sleep(0.1)  # the order now sleeps in its race window
    assert call(app, "DELETE", f"/books/{book_id}")[0] == 204
    thread.join(timeout=5)
    assert not thread.is_alive()
    assert "error" not in outcome, repr(outcome.get("error"))
    assert outcome["status"] in {201, 404}


def test_lost_update_surfaces_as_500_consistency_error():
    saw_500 = False
    for _ in range(200):
        app = BookshopApp(toggles=["inventory-lost-update"], race_window=0.002)
        book_id = seed_book(app, inventory=2)
        call(app, "POST", "/customers", {"name": "B"})
        statuses = _concurrent_orders(app, book_id, n=2)
        if 500 in statuses:
            saw_500 = True
            break
        # corruption is sticky: a later order on the same book reports it
        status, _ = call(app, "POST", "/orders",
                         {"customerId": "c1", "bookIds": [book_id]})
        if status == 500:
            saw_500 = True
            break
    assert saw_500


def test_lost_update_disabled_is_atomic():
    app = BookshopApp()
    book_id = seed_book(app, inventory=2)
    call(app, "POST", "/customers", {"name": "B"})
    for _ in range(20):
        statuses = _concurrent_orders(app, book_id, n=2)
        assert all(s == 201 for s in statuses)
    assert call(app, "GET", f"/books/{book_id}")[1]["inventory"] == 0


# --- admin surface ------------------------------------------------------------------

def test_admin_toggles_round_trip(app):
    status, body = call(app, "GET", "/_admin/toggles")
    assert status == 200 and not any(body["toggles"].values())
    status, body = call(app, "PUT", "/_admin/toggles",
                        {"get-missing-customer-500": True})
    assert status == 200 and body["toggles"]["get-missing-customer-500"]
    assert call(app, "GET", "/customers/c9")[0] == 500
    assert call(app, "PUT", "/_admin/toggles", {"bogus": True})[0] == 400


def test_admin_reset_restores_fresh_state(app):
    call(app, "POST", "/customers", {"name": "x"})
    assert call(app, "POST", "/_admin/reset")[0] == 204
    assert call(app, "GET", "/customers/c1")[0] == 404
    # counters reset too: the next customer is c1 again
    call(app, "POST", "/customers", {"name": "y"})
    assert call(app, "GET", "/customers/c1")[0] == 200


def test_admin_paths_not_in_shipped_spec():
    assert b"_admin" not in bookshop_spec_document()


# --- network server -----------------------------------------------------------------

def test_serve_and_port_in_use():
    server = serve(port=0)
    try:
        with pytest.raises(PortInUse):
            serve(port=server.port)
    finally:
        server.stop()
