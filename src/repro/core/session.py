"""Execution sessions: run an application on one transport and report."""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.core.results import ExecutionReport
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
            params=dict(app.params),
        )
