"""Every app's inputs and CPU reference, pinned byte for byte.

The generators and the ``expected()`` references are rewritten for speed
(sort instead of hash, vectorised instead of looped, float64 where it is
exact); these sha256 pins say no input or reference byte moved.  An app's
inputs are its instance attributes — arrays, a CSR matrix, a list of
weight matrices, scalars — hashed in name order with dtype and shape.
"""

import dataclasses
import hashlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from repro.analysis.figures import SIZE_PROFILES
from repro.apps.registry import PRIM_APPS, app_by_short_name
from repro.workloads.generators import sorted_unique

NR_DPUS = 16


def _feed(h, value) -> None:
    if isinstance(value, (np.ndarray, np.generic)):
        value = np.ascontiguousarray(value)
        h.update(f"{value.dtype.str}{value.shape}".encode())
        h.update(value.tobytes())
    elif dataclasses.is_dataclass(value):
        for f in dataclasses.fields(value):
            _feed(h, getattr(value, f.name))
    elif isinstance(value, (list, tuple)):
        h.update(f"{type(value).__name__}{len(value)}".encode())
        for item in value:
            _feed(h, item)
    else:
        h.update(repr(value).encode())


def digests(short_name: str, profile: str):
    """``(inputs, expected)`` sha256 hex digests of one app at seed 0."""
    params = SIZE_PROFILES[profile][short_name]
    app = app_by_short_name(short_name).cls(nr_dpus=NR_DPUS, seed=0,
                                            **params)
    inputs = hashlib.sha256()
    for name, value in sorted(vars(app).items()):
        if name != "params":
            inputs.update(name.encode())
            _feed(inputs, value)
    expected = hashlib.sha256()
    _feed(expected, app.expected())
    return inputs.hexdigest(), expected.hexdigest()


#: ``(inputs, expected)`` at the ``test`` profile, seed 0.
TEST_PINS = {
    "VA": ("3f052cad91da871f6f03f4e6a3432cf4ff644d58d0c5361ff639d81fc590728e",
           "24c116d41a45784ab34ad8840fdab4abc41c44da3c991791cefff49272ef556b"),
    "GEMV": ("387f84754858b788d6e955fe62e5e09ef52188f79b26f74c9eb7b56a73e7cf96",
             "a7fc5e122560c5269b767724daebb84406bb602af17bd2fa50c5e1c13cdcf293"),
    "SpMV": ("4e953051bfd2c480d815576e422281092647d82552f2fc6ba7f0f178b97f9efd",
             "8117c32d0e01e84c55946294fc0d5b68f1de5f6aabd83acc3636bc2801e852e7"),
    "SEL": ("4da91402536b3584847ae13c61492ebd994c19414b98c03cc3a93ac72cf29fad",
            "d2663b5b92e82a9696582c6e2c36d6409e71a351ca37169db40951885f2fc436"),
    "UNI": ("8d65d835e291f218567c1f55e305709a2f12a55dd9126100d0c0ec704f91981e",
            "d7204c9b8b97792971b7cca4ebec2045d9994111cf82643e48976317293c363d"),
    "BS": ("70999cd5d24a79b0e2ca518961caf552fca801731f89d2eae818e4748ec84ed6",
           "72ee9d842da5e6577c937ba7fb887c2777ad4a62783fe0a4eb80aa8526e28231"),
    "TS": ("4ada2e4952847a401ff23bb7bbac7d32cf36b68e2a8ca9f7bb109e581e2b7a46",
           "349c41201b62db851192665c504b350ff98c6b45fb62a8a2161f78b6534d8de9"),
    "BFS": ("491442b5ad9cb3d49a058adebc110f9964ad663eda0d79f8d142a2f1c24c2900",
            "fa4161ce325b352472e666057645f289e0cec5d2f61f00fb1ce0251e3f2131e8"),
    "MLP": ("a2091a248a1554df9661f005a382a82618fa0f16b1f2b7de626d481ec45bdb84",
            "39933ecef4fb8335ae909680d2e29db24975e30182594577d04d4dc7e6245e5d"),
    "NW": ("b4f4b7918630650fff4fccc3181b251928d56f7755c1262fe9648b939656ede3",
           "eb4762ffa4a2a933a57854b43d3c5c2b319794584a3250029a04aead9686019e"),
    "HST-S": ("55fd00694db810d769a717ca21e8f99d919847a33f501f92be5a270c02c9b6f8",
              "ddd234a59eeeeb2d22717054341644706c4316db85717a400f9e2ff8c80b9432"),
    "HST-L": ("0650b6a20d39383abb5c4f2884176610139f6e8c989fa36323891ff37bbcfde1",
              "bd1a40f5e5888bff087b5a9b342f4157638e57d575d48150cc9b41f4eeb7fb6f"),
    "RED": ("4da91402536b3584847ae13c61492ebd994c19414b98c03cc3a93ac72cf29fad",
            "5250707dfd4369badbd1febcd0a5b9b60ba1f6eeba4593b7c5f243787e795127"),
    "SCAN-SSA": ("0b35faf760c23e0305c4bbea5c18118510248e3b7ce3b8653e6df801e77bd56d",
                 "5ec4c66d7c81ed6e5075322a08013b79843d5e244f7e5cfaf8f1435dd4cd12ad"),
    "SCAN-RSS": ("0b35faf760c23e0305c4bbea5c18118510248e3b7ce3b8653e6df801e77bd56d",
                 "5ec4c66d7c81ed6e5075322a08013b79843d5e244f7e5cfaf8f1435dd4cd12ad"),
    "TRNS": ("0b27c0e8528213a3695dccb495d8f76dd6a7e390b19eeeb8491f72e5fd830828",
             "524b4421ce0e94c7e4aac7b26ab1a46b4b56cbd14658b24d29ae722e4895d23a"),
}

#: ``(inputs, expected)`` at the ``bench`` profile, seed 0, for the apps
#: whose generator or reference was rewritten for speed.
BENCH_PINS = {
    "BFS": ("28b72d4f496e79e47eee7f9482a3f0128b9bb3050ffdaac2ff1828c3e75bb023",
            "c49266571bed024a4c6bc039cd57d5f7d910ffe26f511676fd41f5f6c856b818"),
    "SpMV": ("0781dc812e7204da0ca91d2814667b513fef065f7b3409aff6726f9828e5006a",
             "970379f5a24ca471371128afe6ea361a5dd589f42d28e30c8208da19a21858be"),
    "BS": ("31b635f0b5c5bcf0c66bc18a8822199c6b918b7e6e71a366a153e62c99942756",
           "63b696ddb1bd7e5ba3145e0c67fdf3d927a1d038a1fd48a6a5ead66b8cb1f9fb"),
    "RED": ("cd9d4956f9e6ff06b3f138b012ebfc0f68ec1020a5a1b9ad2e00428216c86da9",
            "baa88e5e72b9d8c2d6d23064ef6508019467cb84e67b7a385c0a2f1679796da0"),
    "SCAN-SSA": ("9d56e2d59d6b1de79f8d267b8aa02779f28d50d241a3a2a83a1323d4bfa0ee4a",
                 "b2ca58c360a06b169855199fce221c5a8afea02fc81abf54048221214bc93f3f"),
    "TS": ("8e13f12ca8c3b9d31873581181edcbd4bdde792faec57e74dd97d65ed1994c9b",
           "3f6116a7f75e86626f22b04938c9880288e901eabed8e0e3d2a0045fb3b0085a"),
    "HST-S": ("2231570c174a513312e947c61c64dad38f7e0a6b8ea2be033e15c34fe3d52a4c",
              "e9bd10ecb8b09685571c199035d0e3598d2ca71a397b71c1c897b9bc4af5dd25"),
}


def test_every_prim_app_is_pinned():
    assert sorted(TEST_PINS) == sorted(info.short_name for info in PRIM_APPS)


@pytest.mark.parametrize("short_name", sorted(TEST_PINS))
def test_inputs_and_reference_at_test_size(short_name):
    assert digests(short_name, "test") == TEST_PINS[short_name]


@pytest.mark.parametrize("short_name", sorted(BENCH_PINS))
def test_inputs_and_reference_at_bench_size(short_name):
    assert digests(short_name, "bench") == BENCH_PINS[short_name]


_keys = st.one_of(
    hnp.arrays(np.int64, st.integers(0, 64),
               elements=st.integers(-2**63, 2**63 - 1)),
    hnp.arrays(np.int64, st.integers(0, 64), elements=st.integers(-3, 3)),
    st.builds(lambda v, n: np.full(n, v, dtype=np.int64),
              st.integers(-2**63, 2**63 - 1), st.integers(1, 16)),
    st.builds(lambda a: np.sort(a), hnp.arrays(
        np.int64, st.integers(0, 64), elements=st.integers(-100, 100))),
)


@given(keys=_keys)
@settings(max_examples=200, deadline=None)
def test_sorted_unique_is_np_unique(keys):
    before = keys.copy()
    got = sorted_unique(keys)
    want = np.unique(keys)
    assert got.dtype == want.dtype
    assert np.array_equal(got, want)
    assert np.array_equal(keys, before), "the argument is left alone"
