import json
import sys
import unicodedata

from hypothesis import given, settings
from hypothesis import strategies as st

from taxpath.util import _ALNUM_RUNS, canonical_json, normalize_title

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


def per_character_normalize_title(title):
    """The per-character rule, kept as the oracle for `normalize_title`."""
    text = unicodedata.normalize("NFKC", title).lower()
    return " ".join("".join(ch if ch.isalnum() else " " for ch in text).split())


def test_alnum_runs_match_exactly_the_isalnum_code_points():
    mismatched = [cp for cp in range(sys.maxunicode + 1)
                  if bool(_ALNUM_RUNS.fullmatch(chr(cp))) != chr(cp).isalnum()]
    assert mismatched == []


@settings(max_examples=500)
@given(title=st.text() | st.text(alphabet="aZ9_-. \t\u00a0\u00c4\u00df\u2460\uff21\u6f22"))
def test_normalize_title_equals_the_per_character_rule(title):
    assert normalize_title(title) == per_character_normalize_title(title)
