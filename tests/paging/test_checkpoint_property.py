"""Property: ``restore_rank(checkpoint_rank(r))`` is bit-identical.

Hypothesis drives random sparse rank states — scattered MRAM writes
(including segment-straddling ones), loaded programs, host-visible WRAM
symbol values — checkpoints them, and asserts the restored rank matches
bit for bit on everything the host can observe: MRAM contents (both the
materialized segments and zero reads in the untouched holes), the
loaded program, and every symbol's bytes.  The same property is checked
through the :class:`~repro.paging.store.SwapStore` round trip (what a
real swap-out/swap-in does), and across a *mid-fault abort*: a restore
that lands on a rank holding arbitrary partial garbage — as after an
interrupted earlier attempt — must still converge to the identical
state, because ``Dpu.reset`` + zero-fill-before-load make restore
idempotent.
"""

from typing import Dict, List, Tuple

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import small_machine
from repro.hardware.machine import Machine
from repro.hardware.memory import SEGMENT_SIZE
from repro.paging.store import SwapStore
from repro.sdk.kernel import DpuProgram
from repro.virt.migration import checkpoint_rank, restore_rank

NR_DPUS = 2
#: Writes land inside the first 4 segments; probes cover 6, so the
#: holes past the last write are checked to read back as zeros.
WRITE_SPAN = 4 * SEGMENT_SIZE
PROBE_SPAN = 6 * SEGMENT_SIZE


class _Prog(DpuProgram):
    name = "prop_checkpoint"
    symbols = {"alpha": 4, "beta": 8}
    binary_size = 1 << 10


mram_writes = st.lists(
    st.tuples(
        st.integers(0, NR_DPUS - 1),                  # dpu
        st.integers(0, WRITE_SPAN - 1),               # offset
        st.binary(min_size=1, max_size=300),          # data
    ),
    max_size=8,
)

symbol_writes = st.lists(
    st.tuples(
        st.integers(0, NR_DPUS - 1),
        st.sampled_from(sorted(_Prog.symbols)),
        st.binary(min_size=1, max_size=4),
    ),
    max_size=4,
)

#: Garbage a mid-fault abort could leave on the target before the
#: (re)restore: partial MRAM writes and clobbered symbols.
abort_garbage = st.lists(
    st.tuples(
        st.integers(0, NR_DPUS - 1),
        st.integers(0, WRITE_SPAN - 1),
        st.binary(min_size=1, max_size=64),
    ),
    max_size=4,
)


def _build() -> Machine:
    return Machine(small_machine(nr_ranks=2, dpus_per_rank=NR_DPUS))


def _populate(rank, writes: List[Tuple[int, int, bytes]],
              with_program: bool,
              sym_writes: List[Tuple[int, str, bytes]]) -> None:
    if with_program:
        prog = _Prog()
        for dpu in rank.dpus:
            dpu.load_program(prog, prog.binary_size, prog.symbols)
        for dpu_idx, name, data in sym_writes:
            dpu = rank.dpu(dpu_idx)
            dpu.write_symbol(name, 0, data[:len(dpu.symbols[name])])
    for dpu_idx, offset, data in writes:
        rank.dpu(dpu_idx).mram.write(offset, data)


def _observable(rank) -> Dict:
    """Everything the host can see of a rank's state."""
    state = {}
    for dpu in rank.dpus:
        state[dpu.dpu_index] = {
            "mram": bytes(dpu.mram.read(0, PROBE_SPAN)),
            "segments": {idx: seg.tobytes() for idx, seg
                         in dpu.mram.snapshot_segments().items()},
            "program": dpu.program,
            "symbols": {name: bytes(buf)
                        for name, buf in dpu.symbols.items()},
        }
    return state


@settings(max_examples=25, deadline=None)
@given(writes=mram_writes, with_program=st.booleans(),
       sym_writes=symbol_writes)
def test_checkpoint_restore_roundtrip_bit_identical(writes, with_program,
                                                    sym_writes):
    machine = _build()
    source, target = machine.rank(0), machine.rank(1)
    _populate(source, writes, with_program, sym_writes)
    expected = _observable(source)

    checkpoint, _ = checkpoint_rank(source)
    restore_rank(target, checkpoint)
    assert _observable(target) == expected
    # The source is untouched by checkpointing.
    assert _observable(source) == expected


@settings(max_examples=25, deadline=None)
@given(writes=mram_writes, with_program=st.booleans(),
       sym_writes=symbol_writes)
def test_swap_store_roundtrip_bit_identical(writes, with_program,
                                            sym_writes):
    machine = _build()
    source, target = machine.rank(0), machine.rank(1)
    _populate(source, writes, with_program, sym_writes)
    expected = _observable(source)

    checkpoint, _ = checkpoint_rank(source)
    store = SwapStore()
    store.put(2000, checkpoint)
    restore_rank(target, store.get(2000))
    assert _observable(target) == expected


@settings(max_examples=25, deadline=None)
@given(writes=mram_writes, with_program=st.booleans(),
       sym_writes=symbol_writes, garbage=abort_garbage,
       garbage_program=st.booleans())
def test_restore_after_mid_fault_abort_converges(writes, with_program,
                                                 sym_writes, garbage,
                                                 garbage_program):
    """Restore onto a rank dirtied by an aborted earlier attempt."""
    machine = _build()
    source, target = machine.rank(0), machine.rank(1)
    _populate(source, writes, with_program, sym_writes)
    expected = _observable(source)
    checkpoint, _ = checkpoint_rank(source)

    # The aborted attempt: partial state lands on the target, then the
    # fault path gives up partway through.
    if garbage_program:
        junk = _Prog()
        for dpu in target.dpus:
            dpu.load_program(junk, junk.binary_size, junk.symbols)
            dpu.write_symbol("alpha", 0, b"\xde\xad\xbe\xef")
    for dpu_idx, offset, data in garbage:
        target.dpu(dpu_idx).mram.write(offset, data)

    restore_rank(target, checkpoint)
    assert _observable(target) == expected
