"""Command-line entry point: ``python -m repro.serve``.

Boots the asyncio HTTP server with a process worker pool, optional
persistent schedule cache (``--cache-dir``) and optional run registry
(``--registry-dir``), then serves until interrupted (Ctrl-C or
``SIGTERM``: both stop the server and join the worker pool).
"""

from __future__ import annotations

import argparse
import asyncio
import os
import signal
import sys
from typing import List, Optional

from .http import HttpServer
from .service import ScheduleService

_EPILOG = """\
examples:
  python -m repro.serve --port 8080 --workers 4 --cache-dir .serve-cache
  curl -s localhost:8080/healthz
  curl -s -XPOST localhost:8080/v1/schedule \\
      -d '{"workload":{"solver":"irk","n":128},"topology":{"platform":"chic","cores":64}}'
"""


def build_parser() -> argparse.ArgumentParser:
    """The ``python -m repro.serve`` argument parser."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.serve",
        description="Serve schedule/simulate/run over HTTP/JSON.",
        epilog=_EPILOG,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--host", default="127.0.0.1", help="bind address")
    parser.add_argument(
        "--port", type=int, default=8080, help="bind port (0 = ephemeral)"
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=2,
        help="solver worker processes (0 = in-process threads)",
    )
    parser.add_argument(
        "--max-queue",
        type=int,
        default=16,
        help="max in-flight solver jobs before 429 backpressure",
    )
    parser.add_argument(
        "--cache-dir",
        default=None,
        help="persistent schedule cache directory (default: in-memory only)",
    )
    parser.add_argument(
        "--registry-dir",
        default=None,
        help="append solved runs to a RunRegistry at this directory",
    )
    return parser


async def _serve(args: argparse.Namespace) -> None:
    service = ScheduleService(
        cache_dir=args.cache_dir,
        workers=args.workers,
        max_queue=args.max_queue,
        registry_dir=args.registry_dir,
    )
    server = HttpServer(service, host=args.host, port=args.port)
    await server.start()
    print(f"repro.serve listening on {server.url}", flush=True)
    try:
        await server.serve_forever()
    finally:
        await server.stop()
        service.close()


def main(argv: Optional[List[str]] = None) -> int:
    """Run the server until Ctrl-C or SIGTERM; returns the process exit code."""
    args = build_parser().parse_args(argv)
    # SIGTERM takes the Ctrl-C path, so that the server stops and the
    # pool workers are joined instead of left running; a forked worker
    # gets the default back, so that ``terminate`` of a broken pool kills it
    signal.signal(signal.SIGTERM, signal.default_int_handler)
    os.register_at_fork(
        after_in_child=lambda: signal.signal(signal.SIGTERM, signal.SIG_DFL)
    )
    try:
        asyncio.run(_serve(args))
    except KeyboardInterrupt:
        print("repro.serve: shutting down", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
