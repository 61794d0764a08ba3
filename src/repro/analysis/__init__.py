"""Analysis: experiment runners and table/figure builders.

Each ``figN_*`` function in :mod:`repro.analysis.figures` regenerates the
data series behind one figure of the paper's evaluation; the benchmark
harness in ``benchmarks/`` prints them next to the paper's reported
values.
"""

from repro.analysis.figures import (
    fig8_prim_applications,
    fig9_checksum_sensitivity,
    fig10_index_search,
    fig11_c_enhancement,
    fig12_driver_breakdown,
    fig13_wrank_steps,
    fig14_nw_ablation,
    fig15_parallel_ranks,
    fig16_request_times,
)
from repro.analysis.report import format_table, PAPER_CLAIMS

__all__ = [
    "fig8_prim_applications",
    "fig9_checksum_sensitivity",
    "fig10_index_search",
    "fig11_c_enhancement",
    "fig12_driver_breakdown",
    "fig13_wrank_steps",
    "fig14_nw_ablation",
    "fig15_parallel_ranks",
    "fig16_request_times",
    "format_table",
    "PAPER_CLAIMS",
]
