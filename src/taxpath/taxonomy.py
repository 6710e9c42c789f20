"""Multi-level tax-code taxonomy: loading, validation, and path queries.

The taxonomy is a forest of coded nodes under an implicit virtual root.
Level-1 nodes are the forest roots; every other node points at a parent one
level up. Each level owns an ordered label space (its codes, sorted, plus a
reserved NULL label) used by the per-level classifier heads.
"""
from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path

from .util import canonical_json, read_json, tokenize

NULL_CODE = "∅"  # reserved per-level label: "path ends above this level"
MAX_LEVELS = 10
FORMAT_VERSION = 1


class TaxonomyError(ValueError):
    """Raised for malformed taxonomy input; message names the offending code."""


@dataclass(frozen=True)
class TaxNode:
    code: str
    name: str
    definition: str
    parent: str | None
    level: int
    is_leaf: bool


@dataclass(frozen=True)
class Taxonomy:
    """Immutable after load; safe to share across threads.

    Construction precomputes, once per taxonomy, what the per-record paths
    would otherwise recompute for every record: the fingerprint, and per
    code its root-first ancestor chain (`chain`) and the set of normalised
    name + definition tokens (`definition_tokens`).
    """

    nodes: dict[str, TaxNode]
    max_depth: int
    per_level_labels: dict[int, tuple[str, ...]]  # sorted codes + NULL, per level
    _fingerprint: str = field(init=False, repr=False, compare=False)
    _chains: dict[str, tuple[str, ...]] = field(init=False, repr=False, compare=False)
    _tokens: dict[str, frozenset[str]] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        # Hashed once here: model/taxonomy pairing checks compare it on every call.
        object.__setattr__(self, "_fingerprint", _fingerprint(self.nodes))
        chains: dict[str, tuple[str, ...]] = {}
        for node in sorted(self.nodes.values(), key=lambda n: n.level):  # parents first
            chains[node.code] = (chains[node.parent] if node.parent is not None else ()) + (node.code,)
        object.__setattr__(self, "_chains", chains)
        tokens = {code: frozenset(tokenize(n.definition) + tokenize(n.name)) for code, n in self.nodes.items()}
        object.__setattr__(self, "_tokens", tokens)

    def chain(self, code: str) -> tuple[str, ...]:
        """Root-first chain of codes ending at `code`; length equals its level."""
        try:
            return self._chains[code]
        except KeyError:
            raise TaxonomyError(f"unknown code: {code!r}") from None

    def definition_tokens(self, code: str) -> frozenset[str]:
        """Normalised tokens of the code's name and definition."""
        try:
            return self._tokens[code]
        except KeyError:
            raise TaxonomyError(f"unknown code: {code!r}") from None

    def fingerprint(self) -> str:
        """sha256 of the canonical JSON of every node (code order)."""
        return self._fingerprint

    def to_json_bytes(self) -> bytes:
        doc = {
            "version": FORMAT_VERSION,
            "nodes": [
                {
                    "code": n.code,
                    "name": n.name,
                    "definition": n.definition,
                    **({"parent": n.parent} if n.parent is not None else {}),
                    "level": n.level,
                }
                for n in sorted(self.nodes.values(), key=lambda n: n.code)
            ],
        }
        return (json.dumps(doc, ensure_ascii=False, sort_keys=True, indent=1) + "\n").encode("utf-8")


def _fingerprint(nodes: dict[str, TaxNode]) -> str:
    payload = canonical_json(
        [
            {
                "code": n.code,
                "name": n.name,
                "definition": n.definition,
                "parent": n.parent,
                "level": n.level,
            }
            for n in sorted(nodes.values(), key=lambda n: n.code)
        ]
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def build_taxonomy(raw_nodes: list[dict]) -> Taxonomy:
    """Validate raw node dicts and assemble a Taxonomy. See load_taxonomy."""
    if not raw_nodes:
        raise TaxonomyError("taxonomy has no nodes")

    # Checked by hand, not by `config_value`: a per-value walk of 4,482 nodes took 115 ms beside this 83 ms build
    staged: dict[str, dict] = {}
    for index, raw in enumerate(raw_nodes):
        if not isinstance(raw, dict):
            raise TaxonomyError(f"node {index} is not a JSON object: {raw!r}")
        for key in ("code", "name", "definition", "level"):
            if key not in raw:
                raise TaxonomyError(f"node {index} missing field {key!r}: {raw.get('code', '?')!r}")
        code = raw["code"]
        if not isinstance(code, str) or not code:
            raise TaxonomyError(f"node {index} has a bad code: {code!r}")
        if code == NULL_CODE:
            raise TaxonomyError(f"code collides with the reserved NULL label: {code!r}")
        if code in staged:
            raise TaxonomyError(f"duplicate code: {code!r}")
        for key in ("name", "definition", "parent"):
            value = raw.get(key)
            if not (isinstance(value, str) or key == "parent" and value is None):
                raise TaxonomyError(f"bad {key} for code {code!r}: {value!r}")
        level = raw["level"]
        if type(level) is not int or level < 1:  # `true` is an int to Python
            raise TaxonomyError(f"bad level for code {code!r}: {level!r}")
        if level > MAX_LEVELS:
            raise TaxonomyError(f"level {level} exceeds the {MAX_LEVELS}-level cap: {code!r}")
        staged[code] = raw

    children: dict[str, list[str]] = {code: [] for code in staged}
    for code, raw in staged.items():
        parent = raw.get("parent")
        level = raw["level"]
        if parent is None:
            if level != 1:
                raise TaxonomyError(f"node without parent must be level 1: {code!r}")
        else:
            if parent not in staged:
                raise TaxonomyError(f"dangling parent {parent!r} for code {code!r}")
            if parent == code:
                raise TaxonomyError(f"cycle detected: {code!r} is its own parent")
            if level != staged[parent]["level"] + 1:
                raise TaxonomyError(
                    f"level mismatch for code {code!r}: level {level} "
                    f"but parent {parent!r} has level {staged[parent]['level']}"
                )
            children[parent].append(code)
    # Parent levels are strictly one less than child levels, so parent chains
    # terminate at level 1 and longer cycles cannot occur.

    nodes = {
        code: TaxNode(
            code=code,
            name=raw["name"],
            definition=raw["definition"],
            parent=raw.get("parent"),
            level=raw["level"],
            is_leaf=not children[code],
        )
        for code, raw in staged.items()
    }
    max_depth = max(n.level for n in nodes.values())
    per_level = {
        level: tuple(sorted(c for c, n in nodes.items() if n.level == level)) + (NULL_CODE,)
        for level in range(1, max_depth + 1)
    }
    return Taxonomy(nodes=nodes, max_depth=max_depth, per_level_labels=per_level)


def load_taxonomy(source, where: str = "taxonomy") -> Taxonomy:
    """Load and validate the taxonomy JSON format.

    `source` is a path (a `str` or a `Path`) or the document's bytes, as `util.read_json` reads it.
    Every fault raises TaxonomyError naming `where`.
    """
    doc = read_json(source, where, TaxonomyError)
    try:
        if not isinstance(doc, dict) or "nodes" not in doc:
            raise TaxonomyError("taxonomy document must be an object with a 'nodes' list")
        if type(doc.get("version")) is not int or doc["version"] != FORMAT_VERSION:  # `true` == 1
            raise TaxonomyError(f"unsupported taxonomy version: {doc.get('version')!r}")
        if not isinstance(doc["nodes"], list):
            raise TaxonomyError("'nodes' must be a list")
        return build_taxonomy(doc["nodes"])
    except TaxonomyError as exc:
        raise TaxonomyError(f"{where}: {exc}") from None


def load_taxonomy_file(path) -> Taxonomy:
    return load_taxonomy(Path(path), str(path))


def ancestors(taxonomy: Taxonomy, code: str) -> list[str]:
    """Root-first chain of codes ending at `code`; length equals its level."""
    return list(taxonomy.chain(code))


def is_valid_path(taxonomy: Taxonomy, codes: list[str]) -> bool:
    """True iff `codes` is a nonempty root-to-node chain of parent/child links."""
    return bool(codes) and codes[-1] in taxonomy.nodes and taxonomy.chain(codes[-1]) == tuple(codes)


def leaf_chain(taxonomy: Taxonomy, leaf: str) -> tuple[str, ...] | None:
    """Ancestor chain RePath puts in place for `leaf`; None unless `leaf` is
    a taxonomy leaf node (inner nodes and unknown codes are left alone)."""
    node = taxonomy.nodes.get(leaf)
    if node is None or not node.is_leaf:
        return None
    return taxonomy.chain(leaf)
