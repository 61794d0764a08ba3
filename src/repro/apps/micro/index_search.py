"""Index Search — scanning a Wikipedia-style inverted index (§5.3.2).

Mirrors the UPMEM UPIS demo's structure: the inverted index is
*replicated* to every DPU (written with serial per-DPU transfers, so
distribution time grows with the DPU count — Fig. 10's rising curves),
while each batch's queries are *partitioned* across DPUs.  445 search
requests are served in 4 batches of 128.  The demo launches DPUs
asynchronously and polls their status from userspace; under vPIM every
poll is a guest->VMM round trip, which is why the compute-dominated
1-DPU configuration shows ~2.1x overhead while the transfer-dominated
128-DPU one drops to ~1.3x.
"""

from __future__ import annotations

import numpy as np

from repro.apps.base import HostApplication
from repro.sdk.dpu_set import DpuSet
from repro.sdk.kernel import DpuProgram, RankContext
from repro.sdk.transport import Transport
from repro.workloads.wikipedia import SyntheticCorpus

#: Instructions per scanned posting (load, compare, conditional count).
INSTR_PER_POSTING = 4

BATCH_SIZE = 128


class IndexSearchProgram(DpuProgram):
    """DPU side: answer this DPU's query share over the full index."""

    name = "index_search_dpu"
    symbols = {"n_words": 4, "post_offset": 4, "n_queries": 4,
               "q_offset": 4, "r_offset": 4}
    nr_tasklets = 16
    binary_size = 8 * 1024

    def run_rank(self, rank: RankContext) -> None:
        n_words = rank.host_u32("n_words")
        post_off = rank.host_u32("post_offset")
        nq = rank.host_u32("n_queries")
        q_off = rank.host_u32("q_offset")
        r_off = rank.host_u32("r_offset")
        _starts, lens = rank.split(nq)
        working = lens > 0              # tasklets that have queries
        rank.mem_alloc(3 * 1024, tasklets=working.sum(axis=1))
        # Each of them streams the whole offset table and its queries,
        # and writes as many results.
        rank.dma(((n_words + 1) * 4)[:, None], where=working)
        rank.dma(np.tile(lens * 4, 2), where=np.tile(working, 2))
        words = n_words.tolist()

        def lookup(d, offsets, queries):
            """Each query's first (doc_id, position) pair and count."""
            offsets, queries = offsets.view(np.int32), queries.view(np.int32)
            known = np.flatnonzero((0 <= queries) & (queries < words[d]))
            starts = np.zeros(queries.size, dtype=np.int64)
            spans = np.zeros(queries.size, dtype=np.int64)
            starts[known] = offsets[queries[known]]
            spans[known] = offsets[queries[known] + 1] - starts[known]
            return starts, spans

        found = rank.map(lookup, (0, np.where(nq > 0, (n_words + 1) * 4, 0)),
                         (q_off, nq * 4))
        # Offsets index (doc_id, position) pairs; a query scans all of its
        # pairs, one plain transfer.  Padded: one row per DPU.
        starts = np.zeros((rank.nr_dpus, int(nq.max(initial=0))), np.int64)
        spans = np.zeros_like(starts)
        for i, (first, count) in enumerate(found):
            starts[i, :first.size], spans[i, :count.size] = first, count
        read = spans > 0
        rank.dma(spans * 8, where=read, block_bytes=None)
        chunk = np.maximum(1, -(-nq // rank.nr_tasklets))[:, None]
        scanned = np.zeros_like(lens)   # postings each tasklet scans
        np.add.at(scanned, (np.arange(rank.nr_dpus)[:, None], np.minimum(
            np.arange(spans.shape[1]) // chunk, rank.nr_tasklets - 1)),
            spans * 2)
        # A DPU reads its postings from its first pair to its last.
        postings = np.zeros((rank.nr_dpus, 2), dtype=np.int64)
        for i in np.flatnonzero(read.any(axis=1)).tolist():
            first = starts[i, read[i]].min()
            postings[i] = first, (starts + spans)[i, read[i]].max() - first
        results = np.maximum(spans, 0).astype(np.int32)
        rank.map(lambda d, _postings: results[d, :len(found[d][1])],
                 (post_off + postings[:, 0] * 8, postings[:, 1] * 8),
                 into=(r_off, nq * 4))
        rank.charge(np.where(working, np.maximum(1, scanned), 0)
                    * INSTR_PER_POSTING)


class IndexSearch(HostApplication):
    """Host side of the index-search benchmark."""

    name = "Wikipedia Index Search"
    short_name = "UPIS"
    domain = "Microbenchmark"

    def __init__(self, nr_dpus: int, corpus: SyntheticCorpus = None,
                 nr_queries: int = 445, seed: int = 0) -> None:
        super().__init__(nr_dpus)
        self.corpus = corpus or SyntheticCorpus(seed=seed + 7)
        self.query_words = self.corpus.queries(nr_queries, seed=seed + 11)

    def expected(self) -> np.ndarray:
        return np.array([len(self.corpus.search(w))
                         for w in self.query_words], dtype=np.int64)

    def run(self, transport: Transport) -> np.ndarray:
        profiler = transport.profiler
        vocab = self.corpus.vocabulary_size
        offsets, postings = self.corpus.postings_array()
        post_off = (vocab + 1) * 4
        q_off = post_off + postings.size * 4
        r_off = q_off + BATCH_SIZE * 4

        answers = np.zeros(self.query_words.size, dtype=np.int64)
        with DpuSet(transport, self.nr_dpus) as dpus:
            dpus.load(IndexSearchProgram())
            with profiler.segment("CPU-DPU"):
                dpus.broadcast_to("n_words", 0, np.array([vocab], np.uint32))
                dpus.broadcast_to("post_offset", 0,
                                  np.array([post_off], np.uint32))
                dpus.broadcast_to("q_offset", 0, np.array([q_off], np.uint32))
                dpus.broadcast_to("r_offset", 0, np.array([r_off], np.uint32))
                # Replicate the index to every DPU: the transferred volume
                # grows linearly with the DPU count, which is why Fig. 10's
                # execution time rises for native and vPIM alike.
                dpus.push_to_mram(0, [offsets.astype(np.int32)] * self.nr_dpus)
                dpus.push_to_mram(post_off, [postings] * self.nr_dpus)

            # 445 requests in 4 batches of 128; each batch's queries are
            # partitioned across the DPUs.
            for start in range(0, self.query_words.size, BATCH_SIZE):
                batch = self.query_words[start:start + BATCH_SIZE]
                counts = self.split_even(batch.size, self.nr_dpus)
                bounds = np.concatenate([[0], np.cumsum(counts)])
                with profiler.segment("CPU-DPU"):
                    dpus.push_to("n_queries", 0,
                                 [np.array([c], np.uint32) for c in counts])
                    dpus.push_to_mram(q_off, [
                        np.ascontiguousarray(batch[bounds[i]:bounds[i + 1]])
                        if counts[i] else np.zeros(1, np.int32)
                        for i in range(self.nr_dpus)
                    ])
                with profiler.segment("DPU"):
                    dpus.launch(poll_status=True)
                with profiler.segment("DPU-CPU"):
                    bufs = dpus.push_from_mram(r_off, BATCH_SIZE * 4)
                    for i in range(self.nr_dpus):
                        if counts[i]:
                            answers[start + bounds[i]:start + bounds[i + 1]] = (
                                bufs[i].view(np.int32)[:counts[i]]
                                .astype(np.int64))
        return answers
