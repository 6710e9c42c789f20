"""Synthetic taxonomy + corpus generator.

Stands in for the proprietary business corpora: it reproduces their
structural statistics (leaf depths, long-tail leaf popularity, metadata
correlated with level-1 subtrees, label noise) without any real data.
Everything is deterministic given (config, seed).
"""
from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .dataset import ProductRecord, largest_remainder
from .taxonomy import MAX_LEVELS, NULL_CODE, Taxonomy, build_taxonomy
from .util import stream_rng

_CONSONANTS = "bcdfgklmnprstvz"
_VOWELS = "aeiou"
_SYLLABLES = [c + v for c in _CONSONANTS for v in _VOWELS]
_CPV_KEYS = ("material", "type", "size")
_SOURCE_TAGS = ("goods_registry", "knowledge_base", "validation_record", "invoice_archive")
_SOURCE_WEIGHTS = (0.4, 0.15, 0.15, 0.3)
BLOCK = 1024  # raw PCG64 words the record sampler draws at a time


class SynthConfigError(ValueError):
    pass


@dataclass(frozen=True)
class SynthConfig:
    leaves: int = 50
    samples: int = 1000
    leaf_depth_min: int = 2
    leaf_depth_max: int = 6
    depth_weights: tuple[float, ...] | None = None  # over [leaf_depth_min, leaf_depth_max]
    max_roots: int = 8
    branching_max: int = 6
    zipf_exponent: float = 1.1
    leaf_vocab_size: int = 8
    title_len_min: int = 3
    title_len_max: int = 8
    noise_token_rate: float = 0.2
    shared_noise_tokens: int = 30
    label_noise_rate: float = 0.0
    metadata_correlation: float = 0.9
    intermediate_noise_rate: float = 0.0
    shared_vocab_across_roots: bool = False
    cpv_rate: float = 0.3
    total_nodes: int | None = None

    def __post_init__(self):
        if self.leaves < 1:
            raise SynthConfigError("need at least one leaf")
        if self.samples < 0:
            raise SynthConfigError("samples must be >= 0")
        if not 1 <= self.leaf_depth_min <= self.leaf_depth_max <= MAX_LEVELS:
            raise SynthConfigError(f"bad depth range: {self.leaf_depth_min}..{self.leaf_depth_max} within 1..{MAX_LEVELS}")
        if self.depth_weights is not None:
            span = self.leaf_depth_max - self.leaf_depth_min + 1
            if len(self.depth_weights) != span or not all(0 <= w < math.inf for w in self.depth_weights):
                raise SynthConfigError(f"depth_weights must hold {span} finite non-negative entries: {self.depth_weights}")
            if not 0 < sum(self.depth_weights) < math.inf:
                raise SynthConfigError(f"depth_weights must not be all zero nor sum past a float: {self.depth_weights}")
        if self.branching_max < 2:
            raise SynthConfigError("branching_max must be >= 2")
        # the Zipf weights (r+1)**-zipf_exponent over up to `most` leaves, and their sum, must be floats
        most = max(self.leaves, self.total_nodes or 0)
        if not (abs(self.zipf_exponent) + 1) * math.log2(most) < 1000:
            raise SynthConfigError(f"zipf_exponent must be finite and its weights over {most} leaves floats: "
                                   f"{self.zipf_exponent}")
        for name in ("max_roots", "leaf_vocab_size"):
            if getattr(self, name) < 1:
                raise SynthConfigError(f"{name} must be >= 1: {getattr(self, name)}")
        if not 1 <= self.title_len_min <= self.title_len_max:
            raise SynthConfigError("bad title length range")
        for name in ("label_noise_rate", "metadata_correlation", "intermediate_noise_rate",
                     "noise_token_rate", "cpv_rate"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise SynthConfigError(f"{name} must be in [0,1]: {value}")
        need = 1 if self.noise_token_rate > 0 else 0  # a noisy title token draws one of them
        if self.shared_noise_tokens < need:
            raise SynthConfigError(f"shared_noise_tokens must be >= {need} with noise_token_rate "
                                   f"{self.noise_token_rate}: {self.shared_noise_tokens}")


class SynthCorpus(NamedTuple):
    taxonomy: Taxonomy
    records: list[ProductRecord]
    # Hidden truth channel: record id -> uncorrupted label path. Equals the
    # record's label_path wherever no label noise was applied.
    truth: dict[str, tuple[str, ...]]
    # Per-record supervision override (one code or NULL per level), present
    # only when intermediate_noise_rate > 0.
    target_overrides: dict[str, tuple[str, ...]] | None


def _word(index: int) -> str:
    parts = []
    for _ in range(3):
        index, rem = divmod(index, len(_SYLLABLES))
        parts.append(_SYLLABLES[rem])
    return "".join(parts)


class _WordPool:
    def __init__(self, rng: np.random.Generator, size: int):
        self._order = rng.permutation(size)
        self._next = 0

    def take(self, n: int) -> list[str]:
        if self._next + n > len(self._order):
            raise SynthConfigError("word pool exhausted; raise pool size")
        words = [_word(int(i)) for i in self._order[self._next : self._next + n]]
        self._next += n
        return words


class _Skeleton:
    """A planned forest: stubs in topological order plus capacity tracking."""

    def __init__(self, branching_max: int):
        self.branching_max = branching_max
        self.nodes: list[dict] = []
        self.child_count: dict[str, int] = {}
        self.level_of: dict[str, int] = {}
        self.leaves: list[str] = []
        self.internal_by_level: dict[int, list[str]] = {}
        self._serial = 0

    def add(self, parent: str | None, level: int, internal: bool) -> str:
        self._serial += 1
        code = f"{parent}.{self._serial:04d}" if parent else f"n{self._serial:04d}"
        self.nodes.append({"code": code, "parent": parent, "level": level})
        self.child_count[code] = 0
        self.level_of[code] = level
        if parent is not None:
            self.child_count[parent] += 1
        if internal:
            self.internal_by_level.setdefault(level, []).append(code)
        else:
            self.leaves.append(code)
        return code

    def open_internal(self, levels) -> list[str]:
        return [
            c
            for level in levels
            for c in self.internal_by_level.get(level, ())
            if self.child_count[c] < self.branching_max
        ]


def _build_skeleton(
    leaf_counts: dict[int, int], max_roots: int, branching_max: int, rng: np.random.Generator
) -> _Skeleton:
    """Build a forest holding `leaf_counts[d]` leaves at each depth d.

    Internal-node counts per level are planned bottom-up at the minimum the
    branching bound allows, which makes construction feasible whenever the
    configuration is. Parent assignment is random but covers every internal
    node, so no planned internal degenerates into a leaf.
    """
    deepest = max(leaf_counts)

    def plan(plan_branching: int) -> tuple[dict[int, int], int]:
        internals = {level: 0 for level in range(1, deepest + 1)}
        for level in range(deepest - 1, 0, -1):
            below = leaf_counts.get(level + 1, 0) + internals[level + 1]
            internals[level] = -(-below // plan_branching) if below else 0
        return internals, internals[1] + leaf_counts.get(1, 0)

    # Plan with fill slack so trees are not packed solid; fall back to exact
    # packing when the slack plan would blow the root budget.
    internals, root_count = plan(max(2, (branching_max * 3) // 4))
    if root_count > max_roots:
        internals, root_count = plan(branching_max)
    if root_count > max_roots:
        raise SynthConfigError(
            f"leaf count exceeds branching capacity: needs {root_count} roots, "
            f"max_roots is {max_roots}"
        )

    skel = _Skeleton(branching_max)
    for _ in range(internals[1]):
        skel.add(None, 1, internal=True)
    for _ in range(leaf_counts.get(1, 0)):
        skel.add(None, 1, internal=False)
    for level in range(2, deepest + 1):
        kinds = [True] * internals[level] + [False] * leaf_counts.get(level, 0)
        kinds = [kinds[int(i)] for i in rng.permutation(len(kinds))]
        parents = list(skel.internal_by_level.get(level - 1, ()))
        cover = [parents[int(i)] for i in rng.permutation(len(parents))]
        for pos, internal in enumerate(kinds):
            if pos < len(cover):
                parent = cover[pos]  # every internal parent receives a child
            else:
                candidates = skel.open_internal([level - 1])
                parent = candidates[int(rng.integers(len(candidates)))]
            skel.add(parent, level, internal)
    return skel


def _leaf_depth_counts(config: SynthConfig, total: int) -> dict[int, int]:
    depths = list(range(config.leaf_depth_min, config.leaf_depth_max + 1))
    weights = config.depth_weights or tuple(1.0 for _ in depths)
    scale = sum(weights)
    counts = largest_remainder(total, tuple(w / scale for w in weights))
    out = {d: c for d, c in zip(depths, counts)}
    # Every depth that will receive samples needs at least one leaf.
    for d, w in zip(depths, weights):
        if w > 0 and out[d] == 0:
            donor = max(out, key=lambda k: out[k])
            if out[donor] <= 1:
                raise SynthConfigError("too few leaves to cover the requested depth range")
            out[donor] -= 1
            out[d] += 1
    return {d: c for d, c in out.items() if c > 0}


def _build_taxonomy_shape(config: SynthConfig, rng: np.random.Generator):
    """Create node stubs (no names/definitions yet) plus leaf grouping info.

    Returns (nodes, leaves, vocab_group) where vocab_group maps each leaf code
    to the vocabulary-template index it shares with its counterparts.
    """
    if config.shared_vocab_across_roots:
        n_roots = config.max_roots
        if config.leaves % n_roots != 0:
            raise SynthConfigError(
                f"shared-vocab mode needs leaves ({config.leaves}) divisible by "
                f"max_roots ({n_roots})"
            )
        per_root = config.leaves // n_roots
        if config.leaf_depth_min < 2:
            raise SynthConfigError("shared-vocab mode needs leaf_depth_min >= 2")
        depth_counts = _leaf_depth_counts(config, per_root)
        # One template subtree is planned at levels shifted down by one (the
        # real root adds a level), then replicated under every root so each
        # template leaf has an identically-worded twin in every subtree.
        template = _build_skeleton(
            {d - 1: c for d, c in depth_counts.items()}, config.branching_max, config.branching_max, rng
        )
        template_group = {code: tid for tid, code in enumerate(template.leaves)}
        nodes: list[dict] = []
        leaves: list[str] = []
        vocab_group: dict[str, int] = {}
        for r in range(n_roots):
            root = f"n{r + 1:04d}"
            nodes.append({"code": root, "parent": None, "level": 1})
            code_map: dict[str, str] = {}
            for stub in template.nodes:  # parents precede children
                parent = stub["parent"]
                mapped_parent = root if parent is None else code_map[parent]
                code = f"{mapped_parent}.{len(code_map) + 1:04d}"
                nodes.append({"code": code, "parent": mapped_parent, "level": stub["level"] + 1})
                code_map[stub["code"]] = code
            for template_code in template.leaves:
                leaf = code_map[template_code]
                leaves.append(leaf)
                vocab_group[leaf] = template_group[template_code]
        return nodes, leaves, vocab_group

    depth_counts = _leaf_depth_counts(config, config.leaves)
    skel = _build_skeleton(depth_counts, config.max_roots, config.branching_max, rng)
    if config.total_nodes is not None:
        current = len(skel.nodes)
        if current > config.total_nodes:
            raise SynthConfigError(
                f"taxonomy already has {current} nodes > total_nodes {config.total_nodes}"
            )
        pad_levels = range(max(1, config.leaf_depth_min - 1), config.leaf_depth_max)
        while current < config.total_nodes:
            parents = skel.open_internal(pad_levels)
            if not parents:
                raise SynthConfigError("cannot reach total_nodes: no spare capacity")
            parent = parents[int(rng.integers(len(parents)))]
            skel.add(parent, skel.level_of[parent] + 1, internal=False)
            current += 1
    vocab_group = {code: i for i, code in enumerate(skel.leaves)}
    return skel.nodes, skel.leaves, vocab_group


def synth_corpus(config: SynthConfig, seed: int) -> SynthCorpus:
    rng_tax = stream_rng(seed, "synth-taxonomy")
    stubs, leaves, vocab_group = _build_taxonomy_shape(config, rng_tax)
    if config.label_noise_rate > 0 and len(leaves) < 2:
        raise SynthConfigError(
            f"label_noise_rate {config.label_noise_rate} relabels a record to another leaf, "
            f"but the taxonomy has only {len(leaves)} leaf"
        )

    n_groups = len(set(vocab_group.values()))
    pool = _WordPool(rng_tax, min(len(_SYLLABLES) ** 3, 20 * (n_groups * config.leaf_vocab_size + 200)))
    shared_noise = pool.take(config.shared_noise_tokens)
    group_vocab = {g: pool.take(config.leaf_vocab_size) for g in range(n_groups)}

    children: dict[str, list[str]] = {}
    for stub in stubs:
        children.setdefault(stub["code"], [])
        if stub["parent"] is not None:
            children.setdefault(stub["parent"], []).append(stub["code"])

    # Internal nodes get a couple of own tokens (template-shared when vocab is
    # shared) plus a sample of descendant leaf tokens in their definitions.
    own_tokens: dict[str, list[str]] = {}
    internal_vocab_cache: dict[tuple, list[str]] = {}
    for stub in stubs:
        code = stub["code"]
        if not children[code]:
            own_tokens[code] = group_vocab[vocab_group[code]]
        else:
            key = _structure_key(code, children, vocab_group)
            if key not in internal_vocab_cache:
                internal_vocab_cache[key] = pool.take(2)
            own_tokens[code] = internal_vocab_cache[key]

    leaf_tokens_under: dict[str, list[str]] = {}

    def collect(code: str) -> list[str]:
        if code in leaf_tokens_under:
            return leaf_tokens_under[code]
        if not children[code]:
            toks = list(own_tokens[code])
        else:
            toks = []
            for kid in sorted(children[code]):
                toks.extend(collect(kid)[:3])
        leaf_tokens_under[code] = toks
        return toks

    raw_nodes = []
    for stub in stubs:
        code = stub["code"]
        toks = own_tokens[code]
        if children[code]:
            definition = " ".join(dict.fromkeys(toks + collect(code)[:8]))
        else:
            definition = " ".join(toks)
        raw_nodes.append(
            {
                "code": code,
                "name": " ".join(toks[:2]),
                "definition": definition,
                "parent": stub["parent"],
                "level": stub["level"],
            }
        )
    taxonomy = build_taxonomy(raw_nodes)

    # Systematic intermediate-supervision corruption, assigned per leaf so the
    # noise is consistent enough for a model to learn the wrong node.
    rng_noise = stream_rng(seed, "synth-intermediate-noise")
    corrupted: dict[str, tuple[int, str]] = {}
    if config.intermediate_noise_rate > 0:
        eligible = [c for c in leaves if taxonomy.nodes[c].level >= 2]
        n_corrupt = int(len(eligible) * config.intermediate_noise_rate + 0.5)
        picked = rng_noise.choice(len(eligible), size=n_corrupt, replace=False)
        for j in sorted(int(i) for i in picked):
            leaf = eligible[j]
            depth = taxonomy.nodes[leaf].level
            level = int(rng_noise.integers(1, depth))
            chain = taxonomy.chain(leaf)
            options = [c for c in taxonomy.per_level_labels[level][:-1] if c != chain[level - 1]]
            if options:
                corrupted[leaf] = (level, options[int(rng_noise.integers(len(options)))])

    records, truth, overrides = _sample_records(
        config, seed, taxonomy, leaves, vocab_group, group_vocab, shared_noise, corrupted
    )
    return SynthCorpus(
        taxonomy=taxonomy,
        records=records,
        truth=truth,
        target_overrides=overrides if config.intermediate_noise_rate > 0 else None,
    )


def _structure_key(code: str, children: dict[str, list[str]], vocab_group: dict[str, int]):
    kids = children[code]
    if not kids:
        return ("leaf", vocab_group[code])
    return ("node", tuple(sorted(_structure_key(k, children, vocab_group) for k in kids)))


def _pcg64_draws(rng: np.random.Generator):
    """`(random, integers)` that draw what `rng.random()` and `rng.integers(low, high)` draw.

    They decode PCG64's raw words as NumPy does (`next_double`; the bounded Lemire draw over
    `next_uint32`'s halves, low first, from the half `rng` holds). Words are drawn `BLOCK` at a
    time, ahead of their use, so nothing may draw from `rng` afterwards.
    """
    bit_generator = rng.bit_generator
    if not isinstance(bit_generator, np.random.PCG64):
        raise TypeError(f"the draw decoder reads PCG64 words, not {type(bit_generator).__name__}")
    state = bit_generator.state
    half = state["uinteger"] if state["has_uint32"] else None

    def blocks():
        while True:
            yield from memoryview(bit_generator.random_raw(BLOCK))

    word = blocks().__next__
    thresholds = {}  # span -> its rejection threshold, for each span drawn from; a refused span is never kept

    def integers(low: int, high: int | None = None) -> int:
        nonlocal half
        low, high = (0, low) if high is None else (low, high)
        span = high - low
        threshold = thresholds.get(span)
        if threshold is None:
            if span <= 1:
                if span == 1:
                    return low
                raise ValueError("high <= 0" if low == 0 else "low >= high")
            if span > 1 << 32:
                raise ValueError(f"the draw decoder takes spans up to 2**32, not {span}")
            threshold = thresholds[span] = ((1 << 32) - span) % span  # NumPy's (UINT32_MAX - rng) % rng_excl
        while True:
            if half is None:
                w = word()
                u, half = w & 0xFFFFFFFF, w >> 32
            else:
                u, half = half, None
            m = u * span
            if m & 0xFFFFFFFF >= threshold:
                return low + (m >> 32)

    return lambda: (word() >> 11) * (1.0 / 9007199254740992.0), integers


def _sample_records(
    config: SynthConfig,
    seed: int,
    taxonomy: Taxonomy,
    leaves: list[str],
    vocab_group: dict[str, int],
    group_vocab: dict[int, list[str]],
    shared_noise: list[str],
    corrupted: dict[str, tuple[int, str]],
):
    rng = stream_rng(seed, "synth-records")
    by_depth: dict[int, list[str]] = {}
    for leaf in leaves:
        by_depth.setdefault(taxonomy.nodes[leaf].level, []).append(leaf)
    depths = sorted(by_depth)
    weights = config.depth_weights or tuple(1.0 for _ in depths)
    if config.depth_weights is not None:
        all_depths = range(config.leaf_depth_min, config.leaf_depth_max + 1)
        weight_of = dict(zip(all_depths, config.depth_weights))
        weights = tuple(weight_of.get(d, 0.0) for d in depths)
    scale = sum(weights)
    per_depth = largest_remainder(config.samples, tuple(w / scale for w in weights))

    depth_seq: list[int] = []
    for d, count in zip(depths, per_depth):
        depth_seq.extend([d] * count)
    depth_seq = [int(d) for d in rng.permutation(depth_seq)]

    # Long-tail leaf popularity: Zipf over a shuffled rank order within depth.
    positions: dict[int, list[int]] = {d: [] for d in depths}
    for i, d in enumerate(depth_seq):
        positions[d].append(i)
    chosen_leaf: list[str] = [""] * len(depth_seq)
    for d in depths:
        group = list(by_depth[d])
        order = rng.permutation(len(group))
        ranked = [group[int(j)] for j in order]
        probs = np.array([1.0 / (r + 1) ** config.zipf_exponent for r in range(len(ranked))])
        probs /= probs.sum()
        draws = rng.choice(len(ranked), size=len(positions[d]), p=probs)
        for pos, j in zip(positions[d], draws):
            chosen_leaf[pos] = ranked[int(j)]

    # Everything a record needs that depends only on its leaf, looked up once:
    # the root-first chain (label path and truth), the leaf's position in
    # `leaves`, its vocabulary, its root's index and its category name.
    root_index = {r: i for i, r in enumerate(sorted({taxonomy.chain(code)[0] for code in leaves}))}
    n_roots = len(root_index)
    facts = {}
    for pos, leaf in enumerate(leaves):
        chain, node = taxonomy.chain(leaf), taxonomy.nodes[leaf]
        category = taxonomy.nodes[node.parent].name if node.parent else node.name
        facts[leaf] = (chain, pos, group_vocab[vocab_group[leaf]], root_index[chain[0]], category)
    # The table Generator.choice(p=_SOURCE_WEIGHTS) searches: one random() per draw, same index.
    cum = np.cumsum(_SOURCE_WEIGHTS)
    source_cdf = (cum / cum[-1]).tolist()
    bu_codes, ou_codes = [f"bu{i:02d}" for i in range(n_roots)], [f"ou{i:02d}" for i in range(n_roots)]
    system_codes = [f"sys{i}" for i in range(3)]  # each code one string, as `read_records` holds them
    random, integers = _pcg64_draws(rng)  # the records stream's last draws

    records: list[ProductRecord] = []
    truth: dict[str, tuple[str, ...]] = {}
    overrides: dict[str, tuple[str, ...]] = {}
    for i, true_leaf in enumerate(chosen_leaf):
        true_path, pos, vocab, r_idx, category = facts[true_leaf]
        title = " ".join([
            shared_noise[integers(len(shared_noise))] if random() < config.noise_token_rate
            else vocab[integers(len(vocab))]
            for _ in range(integers(config.title_len_min, config.title_len_max + 1))
        ])

        labeled_leaf, label_path = true_leaf, true_path
        if config.label_noise_rate > 0 and random() < config.label_noise_rate:
            j = integers(len(leaves) - 1)  # an index into `leaves` without `true_leaf`
            labeled_leaf = leaves[j + (j >= pos)]
            label_path = facts[labeled_leaf][0]

        bu = r_idx if random() < config.metadata_correlation else integers(n_roots)
        ou = r_idx if random() < config.metadata_correlation else integers(n_roots)
        sys_idx = (r_idx % 3) if random() < config.metadata_correlation else integers(3)

        cpvs = None
        if random() < config.cpv_rate:
            cpvs = ((_CPV_KEYS[integers(len(_CPV_KEYS))], vocab[integers(len(vocab))]),)

        source = _SOURCE_TAGS[bisect_right(source_cdf, random())]
        rec_id = f"s{i:06d}"
        records.append(ProductRecord(rec_id, title, category, bu_codes[bu], ou_codes[ou], system_codes[sys_idx],
                                     label_path, source, cpvs))
        truth[rec_id] = true_path

        if config.intermediate_noise_rate > 0:
            target = list(label_path) + [NULL_CODE] * (taxonomy.max_depth - len(label_path))
            hit = corrupted.get(labeled_leaf)
            if hit is not None:
                level, wrong = hit
                target[level - 1] = wrong
            overrides[rec_id] = tuple(target)
    return records, truth, overrides
