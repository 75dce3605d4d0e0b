"""Run the bookshop fixture as a standalone HTTP service.

    python -m apifuzz.bookshop --port 8080 --bug get-missing-customer-500

SIGINT and SIGTERM each stop the server and exit 0, also when the process
was started with SIGINT ignored (a background job of a non-interactive
shell is).
"""

from __future__ import annotations

import argparse
import signal
import time

from . import ALL_BUGS
from .server import serve


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="apifuzz.bookshop",
        description="Deterministic bookshop test service with seeded bugs.")
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=8080)
    parser.add_argument("--bug", action="append", default=[], choices=ALL_BUGS,
                        help="enable a seeded bug (repeatable)")
    parser.add_argument("--randomize-ids", action="store_true",
                        help="assign randomized instead of sequential ids")
    parser.add_argument("--id-seed", type=int, default=20240101)
    parser.add_argument("--list-cap", type=int, default=20,
                        help="max items returned by collection GETs")
    args = parser.parse_args(argv)
    for signum in (signal.SIGINT, signal.SIGTERM):
        signal.signal(signum, signal.default_int_handler)

    server = serve(port=args.port, host=args.host, toggles=args.bug,
                   randomize_ids=args.randomize_ids, id_seed=args.id_seed,
                   list_cap=args.list_cap)
    try:
        print(f"bookshop listening on {server.base_url} "
              f"(bugs: {', '.join(args.bug) or 'none'})")
        while True:
            time.sleep(3600)
    except KeyboardInterrupt:
        server.stop()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
