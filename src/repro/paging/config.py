"""Configuration of the rank demand-paging subsystem (``docs/paging.md``)."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class PagingConfig:
    """Tunables of the :class:`~repro.paging.pager.RankPager`.

    Passing one to :class:`~repro.virt.manager.Manager` (or
    :class:`~repro.core.api.VPim`) turns demand paging on; the default
    everywhere is ``None``, which models no paging at all — the
    committed wall-clock digest stays bit-identical.
    """

    #: Virtual ranks handed out per physical rank.  2.0 means a 4-rank
    #: host advertises 8 allocatable ranks; the pager time-multiplexes
    #: the physical frames underneath.
    overcommit_ratio: float = 2.0

    def __post_init__(self) -> None:
        if self.overcommit_ratio < 1.0:
            raise ValueError(
                f"overcommit_ratio must be >= 1, got {self.overcommit_ratio}")
