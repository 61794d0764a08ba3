"""Execution sessions: run an application on one transport and report."""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional, Tuple

from repro.core.results import ExecutionReport, MessageStats
from repro.observability.catalog import SESSION, bind
from repro.sdk.transport import Transport

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.apps.base import HostApplication
    from repro.virt.vm import Vm


class ExecutionSession:
    """Binds a transport (native or virtualized) to a run/report loop."""

    def __init__(self, transport: Transport, mode: str,
                 vm: Optional["Vm"] = None) -> None:
        self.transport = transport
        self.mode = mode
        self.vm = vm
        self.obs = bind(transport.metrics, SESSION)

    def run(self, app: "HostApplication",
            verify: bool = True) -> ExecutionReport:
        """Execute ``app`` once; returns its report.

        The profiler is reset so back-to-back runs on the same session do
        not bleed into each other; the VM (if any) persists, so rank
        reuse through the manager behaves as in a long-lived guest.
        """
        profiler = self.transport.profiler
        profiler.reset()
        vmexits_before = self.vm.kvm.stats.vmexits if self.vm else 0
        messages_before = self._messages()
        start = self.transport.clock.now

        spans = self.transport.spans
        root = (spans.begin("session.run", "session", start=start,
                            app=app.short_name, mode=self.mode)
                if spans is not None else None)
        try:
            output = app.run(self.transport)
        finally:
            # The root span always closes at the clock, even when the app
            # dies mid-run — faulted traces must still finish (and be
            # retained) for post-mortem attribution.
            if spans is not None:
                spans.end(root, end=max(self.transport.clock.now,
                                        root.cursor))

        total = self.transport.clock.now - start
        verified = app.verify(output) if verify else True
        vmexits = (self.vm.kvm.stats.vmexits - vmexits_before) if self.vm else 0
        messages = MessageStats(*(now - then for now, then
                                  in zip(self._messages(), messages_before)))
        self.obs.runs[app.short_name, self.mode,
                      str(bool(verified)).lower()].inc()
        self.obs.run_seconds[app.short_name, self.mode].observe(total)
        return ExecutionReport(
            app_name=app.short_name,
            mode=self.mode,
            nr_dpus=app.nr_dpus,
            total_time=total,
            profile=profiler.snapshot(),
            verified=verified,
            vmexits=vmexits,
            messages=messages,
        )

    def _messages(self) -> Tuple[int, ...]:
        """The VM's frontend counts so far, in :class:`MessageStats`
        field order (zeros on the native path)."""
        frontends = [d.frontend for d in self.vm.devices] if self.vm else []
        return (sum(sum(f.requests.values()) for f in frontends),
                *(sum(f.counts.get(key, 0) for f in frontends)
                  for key in ("batched_writes", "prefetch_hits",
                              "prefetch_refills")))
