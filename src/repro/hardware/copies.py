"""Rank transfers on every usable host core.

One rank operation moves the bytes of many DPUs, and the paper's host
feeds ranks in parallel ("parallel operation handling", §4).  A
multi-DPU rank operation that moves at least :data:`FLOOR` bytes hands
its copies out in contiguous runs of DPUs: the calling thread copies the
first run, worker threads the others, and the operation returns once
every run is done.

Workers run plain numpy slice copies and nothing else.  The calling
thread resolves every copy before handing any out (checks, extents,
presence masks) and does all accounting after the join, so metrics,
spans and the regions' state are only ever touched by it.  It also holds
every array a worker copies until the join, and a worker drops its own
references before it signals: no finalizer or weakref callback runs on a
worker thread.
"""

from __future__ import annotations

import os
import queue
import threading
from typing import List, Optional, Sequence, Tuple

import numpy as np

#: ``(destination, source)``: one slice copy; a ``None`` source zeroes
#: the destination.
Piece = Tuple[np.ndarray, Optional[np.ndarray]]

#: Cores this process may run on (its affinity mask, not the machine's
#: core count).  With one, no thread is ever started.
CORES = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
         else 1)

#: Operations moving fewer bytes stay on the calling thread: below about
#: this, waking a worker costs what the second core saves (measured in
#: ``docs/performance.md``, "Rank transfers use the host's cores").
FLOOR = 4 << 20

_tasks: "queue.SimpleQueue" = queue.SimpleQueue()
_workers: List[threading.Thread] = []


def copy(pieces: Sequence[Piece]) -> None:
    """Run ``pieces`` in order."""
    for dst, src in pieces:
        dst[...] = 0 if src is None else src


def _serve(tasks: "queue.SimpleQueue") -> None:
    while True:
        pieces, errors, done = tasks.get()
        try:
            copy(pieces)
        except BaseException as exc:  # re-raised by the calling thread
            errors.append(exc)
        del pieces, errors
        done.put(None)


def _split(groups: Sequence[List[Piece]], parts: int) -> List[List[Piece]]:
    """``groups`` cut into at most ``parts`` contiguous runs of about
    equal bytes; a group is never split."""
    sizes = [sum(dst.size for dst, _ in group) for group in groups]
    total = sum(sizes)
    runs: List[List[Piece]] = [[]]
    moved = 0
    for group, size in zip(groups, sizes):
        if len(runs) < parts and runs[-1] and moved * parts >= total * len(runs):
            runs.append([])
        runs[-1].extend(group)
        moved += size
    return runs


def fan_out(groups: Sequence[List[Piece]]) -> None:
    """Run every group's pieces, each group in order, on up to
    :data:`CORES` threads (the calling thread takes the first run).

    Returns once every run is done; the first failure is raised after
    that, never while a worker still copies.
    """
    runs = _split(groups, CORES)
    while len(_workers) < len(runs) - 1:
        worker = threading.Thread(target=_serve, args=(_tasks,), daemon=True,
                                  name=f"repro-copies-{len(_workers)}")
        worker.start()
        _workers.append(worker)
    errors: List[BaseException] = []
    done: "queue.SimpleQueue" = queue.SimpleQueue()
    for run in runs[1:]:
        _tasks.put((run, errors, done))
    try:
        copy(runs[0])
    finally:
        for _ in runs[1:]:
            done.get()
    if errors:
        raise errors[0]


def _forget_workers() -> None:
    """A forked child has none of its parent's threads."""
    global _tasks
    _tasks = queue.SimpleQueue()
    _workers.clear()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_workers)
