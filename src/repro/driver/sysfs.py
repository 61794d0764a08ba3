"""A tiny simulated sysfs tree.

Only what the stack needs: the per-rank status files the driver maintains
and the manager's observer thread polls to detect rank releases without
any cooperation from applications (Section 3.5).
"""

from __future__ import annotations

import weakref
from typing import Callable, Dict, List, Optional

RANK_STATUS_FMT = "/sys/class/upmem/rank{index}/status"

STATUS_FREE = "free"
STATUS_BUSY = "busy"


class SysFs:
    """Path -> string content store with write listeners."""

    def __init__(self) -> None:
        self._files: Dict[str, str] = {}
        self._listeners: List[weakref.WeakMethod] = []

    def write(self, path: str, content: str) -> None:
        self._files[path] = content
        for ref in list(self._listeners):
            listener = ref()
            if listener is not None:
                listener(path, content)

    def read(self, path: str) -> Optional[str]:
        return self._files.get(path)

    def exists(self, path: str) -> bool:
        return path in self._files

    def subscribe(self, listener: Callable[[str, str], None]) -> None:
        """Register a bound method fired on every write (observer
        threads).  It is held weakly: the observer sits above the driver
        and lives as long as its owner does, not as long as the files."""
        self._listeners.append(weakref.WeakMethod(listener))

    # -- rank-status conveniences -------------------------------------------

    def rank_status_path(self, rank_index: int) -> str:
        return RANK_STATUS_FMT.format(index=rank_index)

    def set_rank_status(self, rank_index: int, busy: bool,
                        owner: str = "") -> None:
        value = f"{STATUS_BUSY}:{owner}" if busy else STATUS_FREE
        self.write(self.rank_status_path(rank_index), value)

    def rank_owner(self, rank_index: int) -> str:
        value = self.read(self.rank_status_path(rank_index)) or ""
        if ":" in value:
            return value.split(":", 1)[1]
        return ""
