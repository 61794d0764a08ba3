"""Trace-correlated structured logging.

Replaces ad-hoc prints with JSONL records that carry the simulated
timestamp plus the trace_id/span_id of whatever span was open when the
record was emitted — so a log line from deep inside the backend can be
joined against the exact request timeline that produced it (the same
correlation OpenTelemetry mandates between logs and traces).
"""

from __future__ import annotations

import json
from typing import Dict, List, Optional


class TraceLogger:
    """Bounded in-memory structured log bound to a span recorder.

    Records are plain dicts; :meth:`to_jsonl` renders one JSON object
    per line.  Memory is bounded by ``max_records`` — overflow drops the
    *newest* record and counts it, as the span recorder's caps do.
    """

    def __init__(self, recorder, max_records: int = 10_000) -> None:
        self._recorder = recorder
        self.max_records = max_records
        self.records: List[Dict[str, object]] = []
        self.dropped = 0

    def emit(self, event: str, layer: str,
             **fields: object) -> Optional[Dict[str, object]]:
        """Emit one structured record, stamped with the simulated time
        and the identity of the innermost open span (if any)."""
        if len(self.records) >= self.max_records:
            self.dropped += 1
            return None
        record: Dict[str, object] = {
            "ts": self._recorder.clock.now,
            "event": event,
            "layer": layer,
        }
        current = self._recorder.current
        if current is not None:
            record["trace_id"] = current.trace_id
            record["span_id"] = current.span_id
        record.update(fields)
        self.records.append(record)
        return record

    def to_jsonl(self) -> str:
        return "\n".join(json.dumps(r, sort_keys=True) for r in self.records)

    def save(self, path: str) -> None:
        with open(path, "w") as handle:
            handle.write(self.to_jsonl() + "\n")

    def clear(self) -> None:
        self.records.clear()
        self.dropped = 0
