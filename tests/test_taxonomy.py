import hashlib
import json

import numpy as np
import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

from taxpath.synth import SynthConfig, SynthConfigError, synth_corpus
from taxpath.taxonomy import (
    TaxonomyError,
    ancestors,
    build_taxonomy,
    is_valid_path,
    load_taxonomy,
)
from taxpath.util import canonical_json, normalize_title


def nodes_json(nodes):
    return json.dumps({"version": 1, "nodes": nodes}).encode("utf-8")


def test_three_node_chain():
    tax = load_taxonomy(
        nodes_json(
            [
                {"code": "A", "name": "a", "definition": "d", "level": 1},
                {"code": "A.1", "name": "a1", "definition": "d", "parent": "A", "level": 2},
                {"code": "A.1.1", "name": "a11", "definition": "d", "parent": "A.1", "level": 3},
            ]
        )
    )
    assert tax.max_depth == 3
    leaves = {c for c, n in tax.nodes.items() if n.is_leaf}
    assert leaves == {"A.1.1"}


def test_level_mismatch_names_offender():
    with pytest.raises(TaxonomyError, match="A.1.1"):
        load_taxonomy(
            nodes_json(
                [
                    {"code": "A", "name": "a", "definition": "d", "level": 1},
                    {"code": "A.1.1", "name": "bad", "definition": "d", "parent": "A", "level": 3},
                ]
            )
        )


def test_duplicate_dangling_and_parse_errors():
    with pytest.raises(TaxonomyError, match="duplicate"):
        build_taxonomy(
            [
                {"code": "A", "name": "a", "definition": "d", "level": 1},
                {"code": "A", "name": "a2", "definition": "d", "level": 1},
            ]
        )
    with pytest.raises(TaxonomyError, match="dangling"):
        build_taxonomy([{"code": "X", "name": "x", "definition": "d", "parent": "nope", "level": 2}])
    with pytest.raises(TaxonomyError, match="bad JSON"):
        load_taxonomy(b"{not json")
    with pytest.raises(TaxonomyError, match="own parent"):
        build_taxonomy([{"code": "A", "name": "a", "definition": "d", "parent": "A", "level": 1}])
    with pytest.raises(TaxonomyError, match="level 1"):
        build_taxonomy([{"code": "A", "name": "a", "definition": "d", "level": 2}])


def test_generated_4482_node_taxonomy_recounts():
    corpus = synth_corpus(
        SynthConfig(
            leaves=3600,
            samples=0,
            leaf_depth_min=2,
            leaf_depth_max=6,
            depth_weights=(0.01, 0.04, 0.15, 0.5, 0.3),
            max_roots=10,
            branching_max=12,
            total_nodes=4482,
        ),
        seed=13,
    )
    tax = corpus.taxonomy
    assert len(tax.nodes) == 4482
    # independent recount through the per-level label spaces (NULL excluded)
    assert sum(len(labels) - 1 for labels in tax.per_level_labels.values()) == 4482
    reloaded = load_taxonomy(tax.to_json_bytes())
    assert reloaded.nodes == tax.nodes
    assert reloaded.per_level_labels == tax.per_level_labels


def test_ancestors_chain(chain_taxonomy):
    assert ancestors(chain_taxonomy, "A.1.1") == ["A", "A.1", "A.1.1"]
    assert ancestors(chain_taxonomy, "A") == ["A"]
    with pytest.raises(TaxonomyError, match="unknown"):
        ancestors(chain_taxonomy, "zzz")


def brute_force_chain(tax, code):
    chain = []
    while code is not None:
        chain.append(code)
        code = tax.nodes[code].parent
    return chain[::-1]


def test_ancestors_matches_parent_walker():
    tax = synth_corpus(SynthConfig(leaves=60, samples=0, leaf_depth_max=5), seed=5).taxonomy
    rng = np.random.default_rng(5)
    codes = sorted(tax.nodes)
    for _ in range(100):
        code = codes[rng.integers(len(codes))]
        assert ancestors(tax, code) == brute_force_chain(tax, code)


def test_is_valid_path_basics(chain_taxonomy):
    assert is_valid_path(chain_taxonomy, ["A", "A.1"])
    assert not is_valid_path(chain_taxonomy, ["A", "B.1"])
    assert not is_valid_path(chain_taxonomy, [])
    assert not is_valid_path(chain_taxonomy, ["A.1"])  # not a root
    assert not is_valid_path(chain_taxonomy, ["A", "nope"])


def brute_force_valid(tax, codes):
    if not codes or codes[0] not in tax.nodes or tax.nodes[codes[0]].level != 1:
        return False
    for a, b in zip(codes, codes[1:]):
        if b not in tax.nodes or tax.nodes[b].parent != a:
            return False
    return True


def test_is_valid_path_random_sequences():
    tax = synth_corpus(SynthConfig(leaves=40, samples=0, leaf_depth_max=4), seed=9).taxonomy
    codes = sorted(tax.nodes) + ["bogus"]
    rng = np.random.default_rng(11)
    for _ in range(1000):
        length = int(rng.integers(0, 5))
        seq = [codes[rng.integers(len(codes))] for _ in range(length)]
        if rng.random() < 0.3 and seq:
            # bias some sequences toward real chains
            seq = ancestors(tax, codes[rng.integers(len(codes) - 1)])
        assert is_valid_path(tax, seq) == brute_force_valid(tax, seq)


def test_every_ancestor_chain_is_valid():
    tax = synth_corpus(SynthConfig(leaves=50, samples=0), seed=2).taxonomy
    for code in tax.nodes:
        assert is_valid_path(tax, ancestors(tax, code))


def test_ancestor_chain_unique_by_enumeration():
    tax = synth_corpus(SynthConfig(leaves=30, samples=0, leaf_depth_max=3), seed=4).taxonomy
    assert len(tax.nodes) <= 200
    codes = sorted(tax.nodes)

    def all_paths_ending_at(target):
        found = []
        level = tax.nodes[target].level

        def extend(path):
            if len(path) == level:
                if path[-1] == target and is_valid_path(tax, path):
                    found.append(list(path))
                return
            for c in codes:
                if tax.nodes[c].level == len(path) + 1:
                    extend(path + [c])

        for root in codes:
            if tax.nodes[root].level == 1:
                extend([root])
        return found

    rng = np.random.default_rng(8)
    for code in [codes[rng.integers(len(codes))] for _ in range(5)]:
        paths = all_paths_ending_at(code)
        assert paths == [ancestors(tax, code)]


def test_round_trip_identity(chain_taxonomy):
    reloaded = load_taxonomy(chain_taxonomy.to_json_bytes())
    assert reloaded == chain_taxonomy
    assert reloaded.fingerprint() == chain_taxonomy.fingerprint()


def test_depth_cap_enforced():
    nodes = [{"code": "n1", "name": "n", "definition": "d", "level": 1}]
    for i in range(2, 12):
        nodes.append(
            {"code": f"n{i}", "name": "n", "definition": "d", "parent": f"n{i-1}", "level": i}
        )
    with pytest.raises(TaxonomyError, match="cap"):
        build_taxonomy(nodes)


def test_fingerprint_is_the_canonical_json_digest(chain_taxonomy):
    fresh = hashlib.sha256(
        canonical_json(
            [
                {"code": n.code, "name": n.name, "definition": n.definition,
                 "parent": n.parent, "level": n.level}
                for n in sorted(chain_taxonomy.nodes.values(), key=lambda n: n.code)
            ]
        ).encode("utf-8")
    ).hexdigest()
    assert chain_taxonomy.fingerprint() == fresh
    renamed = json.loads(chain_taxonomy.to_json_bytes())
    renamed["nodes"][0]["name"] = "renamed"
    assert load_taxonomy(json.dumps(renamed).encode("utf-8")).fingerprint() != fresh


def test_a_str_source_is_a_path(tmp_path, chain_taxonomy):
    """As every other loader reads it: a `str` names a file, it is not the document's text."""
    path = tmp_path / "taxonomy.json"
    path.write_bytes(chain_taxonomy.to_json_bytes())
    assert load_taxonomy(str(path)).fingerprint() == chain_taxonomy.fingerprint()
    with pytest.raises(FileNotFoundError):
        load_taxonomy(str(tmp_path / "missing.json"))


def per_call_definition_tokens(tax, code):
    node = tax.nodes[code]
    return set(normalize_title(node.definition).split()) | set(normalize_title(node.name).split())


@settings(max_examples=25, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), leaves=st.integers(6, 60), depth=st.integers(2, 6))
def test_precomputed_chains_and_tokens_match_per_call_computation(seed, leaves, depth):
    try:
        tax = synth_corpus(SynthConfig(leaves=leaves, samples=0, leaf_depth_max=depth), seed=seed).taxonomy
    except SynthConfigError:
        reject()  # a shape the generator cannot build
    for code in tax.nodes:
        assert tax.chain(code) == tuple(brute_force_chain(tax, code))
        assert ancestors(tax, code) == brute_force_chain(tax, code)
        tokens = tax.definition_tokens(code)
        assert isinstance(tokens, frozenset)
        assert tokens == per_call_definition_tokens(tax, code)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(texts=st.lists(st.tuples(st.text(max_size=40), st.text(max_size=40)), min_size=1, max_size=4))
def test_precomputed_tokens_on_arbitrary_unicode(texts):
    nodes, parent = [], None
    for level, (name, definition) in enumerate(texts, start=1):
        code = f"C{level}"
        nodes.append({"code": code, "name": name, "definition": definition, "level": level,
                      **({"parent": parent} if parent else {})})
        parent = code
    tax = build_taxonomy(nodes)
    for code in tax.nodes:
        assert tax.definition_tokens(code) == per_call_definition_tokens(tax, code)
        assert tax.chain(code) == tuple(brute_force_chain(tax, code))


def test_precomputed_lookups_reject_unknown_codes(chain_taxonomy):
    for lookup in (chain_taxonomy.chain, chain_taxonomy.definition_tokens):
        with pytest.raises(TaxonomyError, match="unknown code"):
            lookup("zzz")
