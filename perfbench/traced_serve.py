"""Start ``repro serve`` with the layer wrappers installed.

Usage: ``python3 perfbench/traced_serve.py SPAN_DIR serve [options]``.
The daemon writes its spans to ``SPAN_DIR`` when it exits, and its
forked pool worker writes its own when the pool shuts down.
"""

from __future__ import annotations

import sys

import tracing


def main() -> int:
    tracing.install(sys.argv[1])
    from repro import cli

    return cli.main(sys.argv[2:])


if __name__ == "__main__":
    raise SystemExit(main())
