"""Deterministic fan-out of independent grid rows to a worker pool.

Workers are OS processes (the per-row math is pure CPU); results come back
in submission order, so the output bytes do not depend on the worker count.
"""

from __future__ import annotations


def map_ordered(worker, items, threads: int = 1):
    """worker(item) over items, preserving order; serial when threads <= 1."""
    items = list(items)
    if threads <= 1 or len(items) <= 1:
        return [worker(item) for item in items]
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(worker, items,
                             chunksize=max(1, len(items) // (threads * 4))))
