import json

from hypothesis import given, settings
from hypothesis import strategies as st

from taxpath.util import canonical_json

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=8), inner, max_size=4),
    max_leaves=20,
)


@settings(max_examples=300)
@given(value=json_values)
def test_canonical_json_equals_json_dumps(value):
    expected = json.dumps(value, sort_keys=True, ensure_ascii=False, separators=(",", ":"))
    assert canonical_json(value) == expected
    assert canonical_json(value) == expected  # the shared encoder keeps no state between calls
