"""Checkpoint container properties over generated states: whatever
nested structure of arrays and scalars goes in comes back bit-identical
(native byte order on load), and no corruption of the file decodes to a
different state — it raises ``DataIOError`` or nothing changed.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.audit.checkpoint import AuditCheckpoint
from repro.errors import DataIOError

SETTINGS = settings(max_examples=60, deadline=None)

_DTYPES = st.sampled_from(
    [np.dtype(code).newbyteorder(order) for code in "efdq?" for order in "<>"]
)

_ARRAYS = _DTYPES.flatmap(
    lambda dtype: hnp.arrays(
        dtype=dtype,
        shape=hnp.array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=4),
    )
).flatmap(
    # sometimes a non-contiguous view of the generated array
    lambda arr: st.sampled_from([arr, arr.T, arr[..., ::2] if arr.ndim else arr])
)

_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**70), max_value=2**70),
    st.floats(allow_nan=True, allow_infinity=True),
    st.text(max_size=8),
)

_KEYS = st.text(min_size=1, max_size=6).filter(lambda k: k != "__ndarray__")

_STATES = st.dictionaries(
    _KEYS,
    st.recursive(
        st.one_of(_SCALARS, _ARRAYS),
        lambda inner: st.one_of(
            st.lists(inner, max_size=3), st.dictionaries(_KEYS, inner, max_size=3)
        ),
        max_leaves=8,
    ),
    max_size=4,
)


def _assert_same(back, obj):
    if isinstance(obj, np.ndarray):
        assert isinstance(back, np.ndarray)
        assert back.dtype == obj.dtype.newbyteorder("=") and back.dtype.isnative
        assert back.shape == obj.shape
        assert back.tobytes() == obj.astype(back.dtype).tobytes()  # NaN payloads too
    elif isinstance(obj, dict):
        assert back.keys() == obj.keys()
        for key in obj:
            _assert_same(back[key], obj[key])
    elif isinstance(obj, list):
        assert len(back) == len(obj)
        for b, o in zip(back, obj):
            _assert_same(b, o)
    elif isinstance(obj, float):
        assert type(back) is float
        assert (math.isnan(back) and math.isnan(obj)) or (
            back == obj and math.copysign(1.0, back) == math.copysign(1.0, obj)
        )
    else:
        assert type(back) is type(obj) and back == obj


@SETTINGS
@given(state=_STATES)
def test_round_trip_bit_identical(tmp_path_factory, state):
    ck = AuditCheckpoint(tmp_path_factory.mktemp("ck") / "ck.json")
    state.pop("format", None)  # save() owns that key
    ck.save(state)
    doc = ck.load()
    doc.pop("format")
    _assert_same(doc, state)
    # the coordinator's merge path: a loaded document re-saves to a file
    # that decodes the same
    relay = AuditCheckpoint(ck.path.with_name("relay.json"))
    relay.save(doc)
    doc = relay.load()
    doc.pop("format")
    _assert_same(doc, state)


@SETTINGS
@given(state=_STATES, data=st.data())
def test_corruption_never_changes_the_state(tmp_path_factory, state, data):
    ck = AuditCheckpoint(tmp_path_factory.mktemp("ck") / "ck.json")
    state.pop("format", None)
    ck.save(state)
    blob = ck.path.read_bytes()
    if data.draw(st.booleans(), label="truncate"):
        bad = blob[: data.draw(st.integers(0, len(blob) - 1), label="keep")]
    else:
        at = data.draw(st.integers(0, len(blob) - 1), label="at")
        mask = data.draw(st.integers(1, 255), label="mask")
        bad = blob[:at] + bytes([blob[at] ^ mask]) + blob[at + 1 :]
    ck.path.write_bytes(bad)
    try:
        ck.load()
    except DataIOError:
        return
    raise AssertionError("a corrupted checkpoint loaded without DataIOError")
