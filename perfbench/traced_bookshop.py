"""Run the shipped bookshop server, timing every ``BookshopApp.handle`` call.

    python perfbench/traced_bookshop.py LOG_PATH [bookshop options...]

The server code is unchanged: this wraps the handler method, calls the same
``main`` as ``python -m apifuzz.bookshop``, and after the server stops (on
SIGINT) writes one ``start<TAB>end`` line per handled request to LOG_PATH.
"""

import sys
import time

from apifuzz.bookshop import BookshopApp
from apifuzz.bookshop.__main__ import main


def run(argv: list[str]) -> int:
    log_path, server_args = argv[0], argv[1:]
    spans: list[tuple[float, float]] = []
    handle = BookshopApp.handle

    def timed_handle(self, *args, **kwargs):
        start = time.perf_counter()
        try:
            return handle(self, *args, **kwargs)
        finally:
            spans.append((start, time.perf_counter()))

    BookshopApp.handle = timed_handle
    code = main(server_args)
    with open(log_path, "w", encoding="utf-8") as fh:
        fh.writelines(f"{a:.9f}\t{b:.9f}\n" for a, b in spans)
    return code


if __name__ == "__main__":
    raise SystemExit(run(sys.argv[1:]))
