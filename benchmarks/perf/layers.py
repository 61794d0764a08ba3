"""Layer tracing from outside the program.

The audit run of each workload wraps the public entry points of every
layer of ``repro`` — class attributes and the module globals through
which callers see a function — with a timing wrapper, and removes the
wrappers afterwards.  Nothing under ``src/`` is edited.  Every call
records one span ``(layer, name, start_ns, end_ns, parent, iteration)``
into a list kept in memory; a layer's *self time* is its spans'
duration minus the part their child spans cover, so the layers of one
iteration partition its wall time exactly.
"""

from __future__ import annotations

import importlib
import sys
import time
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

#: The layers reported, in stack order.  ``harness`` is the benchmark's
#: own code (loops, payload compares) around the calls into the program.
LAYERS: Tuple[str, ...] = (
    "harness", "apps", "workloads", "core", "sdk.dpu_set", "sdk.kernel",
    "virt.frontend", "virt.plans", "virt.serialization", "virt.backend",
    "virt.guest_memory", "driver", "hardware.rank", "hardware.memory",
    "hardware.interleave",
)

#: ``(layer, module, class, methods)``: wrapped as class attributes.
METHODS: Tuple[Tuple[str, str, str, Tuple[str, ...]], ...] = (
    ("apps", "repro.apps.base", "HostApplication", ("verify",)),
    ("core", "repro.core.api", "VPim", ("vm_session", "native_session")),
    ("sdk.dpu_set", "repro.sdk.dpu_set", "DpuSet",
     ("__init__", "load", "push", "push_to", "push_from", "broadcast_to",
      "copy_to", "copy_from", "launch", "ci_ops", "free")),
    ("virt.frontend", "repro.virt.frontend", "VUpmemFrontend",
     ("write", "read", "load", "launch", "ci_ops", "release")),
    ("virt.plans", "repro.virt.plans", "TransferPlan", ("replay",)),
    ("virt.backend", "repro.virt.backend", "VUpmemBackend", ("process",)),
    ("virt.guest_memory", "repro.virt.guest_memory", "GuestMemory",
     ("reserve_pages", "pin_span", "gather_pages", "scatter_pages")),
    ("driver", "repro.driver.driver", "PerfModeMapping",
     ("write", "write_pinned", "read", "load", "launch", "ci_ops")),
    ("hardware.rank", "repro.hardware.rank", "Rank",
     ("write_mram", "write_mram_pinned", "pin_mram_write", "read_mram",
      "launch", "reset")),
    ("hardware.memory", "repro.hardware.memory", "MemoryRegion",
     ("read", "read_into", "write", "fill", "pin_span", "pin_chunks")),
)

#: ``(layer, defining module, functions)``: wrapped in every loaded
#: ``repro`` module whose globals hold the function, because callers
#: that did ``from m import f`` look it up in their own module.
FUNCTIONS: Tuple[Tuple[str, str, Tuple[str, ...]], ...] = (
    ("sdk.kernel", "repro.sdk.runtime", ("run_program",)),
    ("virt.plans", "repro.virt.plans", ("compile_plan",)),
    ("virt.serialization", "repro.virt.serialization",
     ("serialize_matrix", "deserialize_request", "gather_entry_data",
      "scatter_entry_data")),
    ("hardware.interleave", "repro.hardware.interleave",
     ("interleave_into", "deinterleave_into")),
    ("workloads", "repro.workloads.generators",
     ("random_array", "sorted_array", "random_matrix", "random_csr",
      "random_graph_csr", "random_image")),
)

Span = Tuple[str, str, int, int, int, int]
SPAN_COLUMNS = ("layer", "name", "start_ns", "end_ns", "parent", "iteration")


class Recorder:
    """In-memory span list plus the open-span stack of the one thread."""

    def __init__(self) -> None:
        self.spans: List[Optional[Span]] = []
        self.stack: List[int] = []
        #: Stamped on every span; the harness sets it per iteration.
        self.iteration = -1
        #: Summed from the ``DpuRunStats`` each ``run_program`` returns.
        self.kernel_instructions = 0
        self.kernel_dma_ops = 0
        self.kernel_dma_bytes = 0

    def wrap(self, fn: Callable, layer: str, name: str,
             tap: Optional[Callable[[object], None]] = None) -> Callable:
        """``fn`` timed as one span of ``layer``; ``tap`` sees its result."""
        spans, stack, clock = self.spans, self.stack, time.perf_counter_ns

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (layer, name, start, end, parent,
                                self.iteration)
            if tap is not None:
                tap(result)
            return result

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def root(self, iteration: int) -> Iterator[None]:
        """The ``harness`` span that encloses one iteration."""
        self.iteration = iteration
        index = len(self.spans)
        self.spans.append(None)
        self.stack.append(index)
        start = time.perf_counter_ns()
        try:
            yield
        finally:
            end = time.perf_counter_ns()
            self.stack.pop()
            self.spans[index] = ("harness", "iteration", start, end, -1,
                                 iteration)

    def _tap_run_stats(self, stats) -> None:
        self.kernel_instructions += sum(stats.tasklet_instructions)
        self.kernel_dma_ops += stats.dma_ops
        self.kernel_dma_bytes += stats.dma_bytes


Undo = List[Tuple[object, str, object]]


def _repro_modules() -> List[object]:
    return [mod for name, mod in list(sys.modules.items())
            if mod is not None
            and (name == "repro" or name.startswith("repro."))]


def install(recorder: Recorder) -> Undo:
    """Wrap every entry point; returns what :func:`uninstall` restores.

    A name missing from its class or module raises: the tables above
    have drifted from ``src/`` and the per-layer numbers would silently
    lose a layer.
    """
    from repro.apps.registry import PRIM_APPS

    undo: Undo = []

    def patch(owner: object, attr: str, layer: str, name: str,
              tap=None) -> None:
        original = vars(owner)[attr]
        undo.append((owner, attr, original))
        setattr(owner, attr, recorder.wrap(original, layer, name, tap))

    try:
        for layer, modname, clsname, methods in METHODS:
            cls = getattr(importlib.import_module(modname), clsname)
            for method in methods:
                patch(cls, method, layer, f"{clsname}.{method}")
        for info in PRIM_APPS:
            for method in ("run", "verify"):
                if method in vars(info.cls):
                    patch(info.cls, method, "apps",
                          f"{info.short_name}.{method}")
        for layer, modname, names in FUNCTIONS:
            defining = importlib.import_module(modname)
            for name in names:
                original = vars(defining)[name]
                tap = (recorder._tap_run_stats if name == "run_program"
                       else None)
                traced = recorder.wrap(original, layer, name, tap)
                for mod in _repro_modules():
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            undo.append((mod, attr, original))
                            setattr(mod, attr, traced)
    except BaseException:
        uninstall(undo)
        raise
    return undo


def uninstall(undo: Undo) -> None:
    """Put every original back (attribute identity is restored)."""
    while undo:
        owner, attr, original = undo.pop()
        setattr(owner, attr, original)


@contextmanager
def tracing(recorder: Recorder) -> Iterator[Recorder]:
    undo = install(recorder)
    try:
        yield recorder
    finally:
        uninstall(undo)


def self_times_ns(spans: Sequence[Span]) -> List[int]:
    """Per span: its duration minus the duration of its direct children.

    One thread, properly nested calls: children lie inside their parent
    and do not overlap each other, so the self times of a tree sum to
    its root's duration exactly.
    """
    own = [span[3] - span[2] for span in spans]
    for span in spans:
        if span[4] >= 0:
            own[span[4]] -= span[3] - span[2]
    return own


def layer_totals(spans: Sequence[Span]) -> Dict[str, Tuple[float, int]]:
    """``{layer: (self seconds, calls)}`` summed over ``spans``."""
    totals: Dict[str, List[float]] = {}
    for span, own in zip(spans, self_times_ns(spans)):
        row = totals.setdefault(span[0], [0.0, 0])
        row[0] += own
        row[1] += 1
    return {layer: (row[0] / 1e9, int(row[1]))
            for layer, row in totals.items()}


def root_seconds(spans: Sequence[Span]) -> float:
    """Summed duration of the root (parentless) spans."""
    return sum(s[3] - s[2] for s in spans if s[4] < 0) / 1e9
