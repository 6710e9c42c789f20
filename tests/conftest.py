import pytest
from hypothesis import settings

from taxpath.taxonomy import build_taxonomy

# Property tests replay the same examples on every run unless a test says otherwise.
settings.register_profile("taxpath", derandomize=True, deadline=None)
settings.load_profile("taxpath")


@pytest.fixture
def chain_taxonomy():
    """A -> A.1 -> A.1.1 plus a sibling branch B -> B.1."""
    return build_taxonomy(
        [
            {"code": "A", "name": "alpha", "definition": "alpha things", "level": 1},
            {"code": "A.1", "name": "alpha one", "definition": "alpha one things", "parent": "A", "level": 2},
            {"code": "A.1.1", "name": "alpha one one", "definition": "alpha one one things", "parent": "A.1", "level": 3},
            {"code": "B", "name": "beta", "definition": "beta things", "level": 1},
            {"code": "B.1", "name": "beta one", "definition": "beta one things", "parent": "B", "level": 2},
        ]
    )
