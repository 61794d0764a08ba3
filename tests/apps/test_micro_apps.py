"""Per-app edge cases: Checksum and Index Search microbenchmarks."""

import numpy as np
import pytest

from repro.apps.micro.checksum import Checksum, ChecksumProgram, ci_ops_for_size
from repro.apps.micro.index_search import IndexSearch
from repro.config import small_machine
from repro.core import VPim
from repro.workloads.wikipedia import SyntheticCorpus


def native(app, dpus_per_rank=8):
    vpim = VPim(small_machine(nr_ranks=1, dpus_per_rank=dpus_per_rank))
    return vpim.native_session().run(app)


# -- Checksum -------------------------------------------------------------------

def test_checksum_all_dpus_agree():
    rep = native(Checksum(nr_dpus=8, file_mb=0.25))
    assert rep.verified


def test_checksum_scale_shrinks_data_and_ci():
    full = Checksum(nr_dpus=2, file_mb=8, scale=1)
    scaled = Checksum(nr_dpus=2, file_mb=8, scale=8)
    assert scaled.file.size == pytest.approx(full.file.size / 8, rel=0.01)


def test_checksum_scale_validation():
    with pytest.raises(ValueError):
        Checksum(nr_dpus=2, file_mb=8, scale=0)


def test_checksum_wraps_32_bits():
    app = Checksum(nr_dpus=2, file_mb=0.25)
    app.file = np.full(app.file.size, 255, dtype=np.uint8)
    vpim = VPim(small_machine(nr_ranks=1, dpus_per_rank=2))
    rep = vpim.native_session().run(app)
    assert rep.verified
    assert app.expected() == (app.file.size * 255) & 0xFFFFFFFF


def test_checksum_ci_formula_monotone():
    values = [ci_ops_for_size(mb) for mb in (8, 20, 40, 60)]
    assert values == sorted(values)


def test_checksum_disagreement_detected():
    """A corrupted DPU result must raise, not silently pass."""
    app = Checksum(nr_dpus=4, file_mb=0.25)
    original_run_rank = ChecksumProgram.run_rank

    def corrupted(self, rank):
        original_run_rank(self, rank)
        for i in range(rank.nr_dpus):
            if rank.dpu(i).dpu_index == 2:
                rank.dpu(i).set_host_u32("checksum", 12345)

    ChecksumProgram.run_rank = corrupted
    try:
        vpim = VPim(small_machine(nr_ranks=1, dpus_per_rank=4))
        with pytest.raises(AssertionError):
            vpim.native_session().run(app)
    finally:
        ChecksumProgram.run_rank = original_run_rank


# -- Index Search ----------------------------------------------------------------

@pytest.fixture(scope="module")
def corpus():
    return SyntheticCorpus(nr_documents=200, vocabulary_size=500, seed=3)


def test_upis_445_queries_4_batches(corpus):
    app = IndexSearch(nr_dpus=8, corpus=corpus)
    assert app.query_words.size == 445
    rep = native(app)
    assert rep.verified


def test_upis_single_dpu(corpus):
    rep = native(IndexSearch(nr_dpus=1, corpus=corpus), dpus_per_rank=1)
    assert rep.verified


def test_upis_more_dpus_than_batch(corpus):
    # 8 queries over 8 DPUs: one query each; padding must not corrupt.
    rep = native(IndexSearch(nr_dpus=8, corpus=corpus, nr_queries=8))
    assert rep.verified


def test_upis_rare_word_zero_hits(corpus):
    app = IndexSearch(nr_dpus=4, corpus=corpus, nr_queries=4)
    missing = corpus.vocabulary_size - 1
    while corpus.search(missing):
        missing -= 1
    app.query_words = np.full(4, missing, dtype=np.int32)
    rep = native(app, dpus_per_rank=4)
    assert rep.verified
    assert (app.expected() == 0).all()


def test_corpus_index_consistency(corpus):
    offsets, postings = corpus.postings_array()
    total_pairs = int(offsets[-1])
    assert postings.size == total_pairs * 2
    # Every document's words appear in the index.
    total_words = sum(doc.size for doc in corpus.documents)
    assert total_pairs == total_words


def test_corpus_zipf_shape(corpus):
    """Common words must have far longer posting lists than rare ones."""
    offsets, _ = corpus.postings_array()
    lengths = np.diff(offsets)
    head = lengths[:10].mean()
    tail = lengths[-100:].mean() if lengths[-100:].size else 0
    assert head > 10 * max(tail, 0.1)
