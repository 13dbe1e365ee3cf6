"""Deterministic fan-out of independent grid rows to a worker pool.

Workers are OS processes (the per-row math is pure CPU); results come back
in submission order, so the output bytes do not depend on the worker count.
"""

from __future__ import annotations

import os


def resolve_threads(cli_value: int | None) -> int:
    """--threads wins; the LEVROT_THREADS environment variable is the fallback."""
    if cli_value is not None:
        return max(1, cli_value)
    env = os.environ.get("LEVROT_THREADS")
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            raise ValueError(f"LEVROT_THREADS={env!r} is not an integer") from None
    return 1


def map_ordered(worker, items, threads: int = 1, chunksize: int | None = None):
    """worker(item) over items, preserving order; serial when threads <= 1."""
    items = list(items)
    if threads <= 1 or len(items) <= 1:
        return [worker(item) for item in items]
    from concurrent.futures import ProcessPoolExecutor

    if chunksize is None:
        chunksize = max(1, len(items) // (threads * 4))
    with ProcessPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(worker, items, chunksize=chunksize))
