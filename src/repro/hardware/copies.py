"""Rank transfers and launch steps on every usable host core.

One rank operation moves the bytes of many DPUs, and the paper's host
feeds ranks in parallel ("parallel operation handling", §4).  A
multi-DPU rank operation that moves at least :data:`FLOOR` bytes, and a
launch that has charged as many DMA bytes (``RankContext.map``), hand
their work out in contiguous runs of DPUs (:func:`hand_out`): the
calling thread takes the first run, worker threads the others, and the
call returns once every run is done.

Workers run numpy slice copies and the programs' per-DPU steps, which
compute on arrays handed to them, and nothing else.  The calling thread
resolves every copy and step before handing any out (checks, extents,
presence masks) and does all accounting after the join, so metrics,
spans and the regions' state are only ever touched by it.  It also holds
every array a worker is handed until the join, and a worker drops its
references before it signals, so what a worker frees is only the plain
arrays it made itself.  Cyclic garbage collection is off from the first
hand-out to the join: a collection a worker's allocation triggered would
run the finalizers and weakref callbacks of whatever it frees (a
region's extent release, a result block's return) on that worker.  So
none runs there.
"""

from __future__ import annotations

import gc
import os
import queue
import threading
from typing import Callable, List, Optional, Sequence, Tuple

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
        work, run, index, errors, done = tasks.get()
        try:
            work(run)
        except BaseException as exc:  # re-raised by the calling thread
            errors[index] = exc
        del work, run, errors
        done.put(None)


def _split(groups: Sequence[list], sizes: Sequence[int], parts: int,
           ) -> List[list]:
    """``groups`` joined into at most ``parts`` contiguous runs of about
    equal ``sizes``; a group is never split."""
    total = sum(sizes)
    runs: List[list] = [[]]
    moved = 0
    for group, size in zip(groups, sizes):
        if len(runs) < parts and runs[-1] and moved * parts >= total * len(runs):
            runs.append([])
        runs[-1].extend(group)
        moved += size
    return runs


def hand_out(work: Callable[[list], None], groups: Sequence[list],
             sizes: Sequence[int]) -> None:
    """``work(run)`` for every run of ``groups`` cut by :func:`_split`
    into at most :data:`CORES` runs, on as many threads (the calling
    thread takes the first run).

    Returns once every run is done; then the failure of the lowest-index
    failing run is raised, whichever thread ran it.
    """
    runs = _split(groups, sizes, CORES)
    errors: List[Optional[BaseException]] = [None] * len(runs)
    done: "queue.SimpleQueue" = queue.SimpleQueue()
    collecting = gc.isenabled()
    gc.disable()
    try:
        while len(_workers) < len(runs) - 1:
            worker = threading.Thread(
                target=_serve, args=(_tasks,), daemon=True,
                name=f"repro-copies-{len(_workers)}")
            worker.start()
            _workers.append(worker)
        for index in range(1, len(runs)):
            _tasks.put((work, runs[index], index, errors, done))
        try:
            work(runs[0])
        except BaseException as exc:
            errors[0] = exc
        for _ in runs[1:]:
            done.get()
    finally:
        if collecting:
            gc.enable()
    for error in errors:
        if error is not None:
            raise error


def fan_out(groups: Sequence[List[Piece]]) -> None:
    """Run every group's pieces, each group in order, through
    :func:`hand_out`."""
    hand_out(copy, groups, [sum(dst.size for dst, _ in group)
                            for group in groups])


def _forget_workers() -> None:
    """A forked child has none of its parent's threads."""
    global _tasks
    _tasks = queue.SimpleQueue()
    _workers.clear()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_workers)
