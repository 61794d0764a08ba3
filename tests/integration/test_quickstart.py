"""``examples/quickstart.py`` runs, and is charged what its Fig. 2b
tasklet body was charged."""

import importlib.util
import sys
from pathlib import Path
from types import ModuleType

import pytest

from repro.config import small_machine
from repro.core import VPim

QUICKSTART = Path(__file__).resolve().parents[2] / "examples" / "quickstart.py"


def load_quickstart() -> ModuleType:
    """The quickstart script as a module (its ``main`` does not run)."""
    module = sys.modules.get("quickstart")
    if module is None:
        spec = importlib.util.spec_from_file_location("quickstart", QUICKSTART)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        sys.modules["quickstart"] = module
    return module


#: ``segments_total`` of the native and the VM run, as the per-tasklet
#: generator body of ``CountZerosProgram`` was charged: 1000 elements
#: leave every DPU a ragged last tasklet, 5 leave eleven DPUs without
#: work.
PINNED = {
    1000: ("0x1.557c9dd42da83p-15", "0x1.f78a65216dc80p-10"),
    5: ("0x1.294e0f0a82715p-15", "0x1.f4cfc180a4700p-10"),
}


@pytest.mark.parametrize("n_elements", sorted(PINNED))
def test_quickstart_counts_zeros_natively_and_in_a_vm(n_elements):
    quickstart = load_quickstart()
    app_args = dict(nr_dpus=16, n_elements=n_elements)
    native = VPim(small_machine(nr_ranks=2, dpus_per_rank=8)).native_session().run(
        quickstart.CountZeros(**app_args))
    virt = VPim(small_machine(nr_ranks=2, dpus_per_rank=8)).vm_session(
        nr_vupmem=2).run(quickstart.CountZeros(**app_args))
    assert native.verified and virt.verified
    assert (native.segments_total.hex(),
            virt.segments_total.hex()) == PINNED[n_elements]
