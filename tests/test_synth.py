"""The record sampler against a per-record reference, draw for draw.

`synth._sample_records` reads per-leaf facts from tables built once, decodes
its per-record draws from the generator's raw PCG64 words, and draws the
weighted source as `bisect_right(cdf, random())`. The reference below draws
the same stream the plain way: `rng.random()`, `rng.integers(...)`, one
scalar `rng.choice(..., p=...)` per source and the leaf's ancestor chain
looked up per record. Equal outputs pin the sampler's draw order, so
`taxpath gen` stays a function of (config, seed) and NumPy's `Generator`
stream. A property test holds the decoder to `Generator` call for call.
"""
import math
from bisect import bisect_right
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from taxpath import synth
from taxpath.dataset import ProductRecord, largest_remainder
from taxpath.synth import SynthConfig, synth_corpus
from taxpath.taxonomy import NULL_CODE, ancestors
from taxpath.util import stream_rng


def reference_corrupted(config, seed, taxonomy, leaves):
    """Per-leaf intermediate-supervision corruption, drawn the plain way."""
    rng_noise = stream_rng(seed, "synth-intermediate-noise")
    corrupted = {}
    if config.intermediate_noise_rate > 0:
        eligible = [c for c in leaves if taxonomy.nodes[c].level >= 2]
        n_corrupt = int(len(eligible) * config.intermediate_noise_rate + 0.5)
        picked = rng_noise.choice(len(eligible), size=n_corrupt, replace=False)
        for j in sorted(int(i) for i in picked):
            leaf = eligible[j]
            depth = taxonomy.nodes[leaf].level
            level = int(rng_noise.integers(1, depth))
            chain = ancestors(taxonomy, leaf)
            options = [c for c in taxonomy.per_level_labels[level][:-1] if c != chain[level - 1]]
            if options:
                corrupted[leaf] = (level, options[int(rng_noise.integers(len(options)))])
    return corrupted


def reference_sample_records(config, seed, taxonomy, leaves, vocab_group, group_vocab, shared_noise, corrupted):
    """The record sampler with every per-record lookup and a scalar weighted source draw."""
    rng = stream_rng(seed, "synth-records")
    by_depth = {}
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

    depth_seq = []
    for d, count in zip(depths, per_depth):
        depth_seq.extend([d] * count)
    depth_seq = [int(d) for d in rng.permutation(depth_seq)]

    positions = {d: [] for d in depths}
    for i, d in enumerate(depth_seq):
        positions[d].append(i)
    chosen_leaf = [""] * len(depth_seq)
    for d in depths:
        group = list(by_depth[d])
        order = rng.permutation(len(group))
        ranked = [group[int(j)] for j in order]
        probs = np.array([1.0 / (r + 1) ** config.zipf_exponent for r in range(len(ranked))])
        probs /= probs.sum()
        draws = rng.choice(len(ranked), size=len(positions[d]), p=probs)
        for pos, j in zip(positions[d], draws):
            chosen_leaf[pos] = ranked[int(j)]

    roots = {code: ancestors(taxonomy, code)[0] for code in leaves}
    root_list = sorted(set(roots.values()))
    root_index = {r: i for i, r in enumerate(root_list)}
    n_roots = len(root_list)

    records, truth, overrides = [], {}, {}
    for i, true_leaf in enumerate(chosen_leaf):
        vocab = group_vocab[vocab_group[true_leaf]]
        length = int(rng.integers(config.title_len_min, config.title_len_max + 1))
        tokens = []
        for _ in range(length):
            if rng.random() < config.noise_token_rate:
                tokens.append(shared_noise[int(rng.integers(len(shared_noise)))])
            else:
                tokens.append(vocab[int(rng.integers(len(vocab)))])
        title = " ".join(tokens)

        labeled_leaf = true_leaf
        if config.label_noise_rate > 0 and rng.random() < config.label_noise_rate:
            others = [c for c in leaves if c != true_leaf]
            labeled_leaf = others[int(rng.integers(len(others)))]
        true_path = tuple(ancestors(taxonomy, true_leaf))
        label_path = tuple(ancestors(taxonomy, labeled_leaf))

        r_idx = root_index[roots[true_leaf]]
        correlated = rng.random() < config.metadata_correlation
        bu = r_idx if correlated else int(rng.integers(n_roots))
        correlated = rng.random() < config.metadata_correlation
        ou = r_idx if correlated else int(rng.integers(n_roots))
        correlated = rng.random() < config.metadata_correlation
        sys_idx = (r_idx % 3) if correlated else int(rng.integers(3))

        true_node = taxonomy.nodes[true_leaf]
        category = taxonomy.nodes[true_node.parent].name if true_node.parent else true_node.name

        cpvs = None
        if rng.random() < config.cpv_rate:
            key = synth._CPV_KEYS[int(rng.integers(len(synth._CPV_KEYS)))]
            cpvs = ((key, vocab[int(rng.integers(len(vocab)))]),)

        source = synth._SOURCE_TAGS[int(rng.choice(len(synth._SOURCE_TAGS), p=synth._SOURCE_WEIGHTS))]
        rec_id = f"s{i:06d}"
        records.append(
            ProductRecord(
                id=rec_id,
                title=title,
                category_name=category,
                bu_code=f"bu{bu:02d}",
                ou_code=f"ou{ou:02d}",
                system_code=f"sys{sys_idx}",
                label_path=label_path,
                source=source,
                cpvs=cpvs,
            )
        )
        truth[rec_id] = true_path

        if config.intermediate_noise_rate > 0:
            target = list(label_path) + [NULL_CODE] * (taxonomy.max_depth - len(label_path))
            hit = corrupted.get(labeled_leaf)
            if hit is not None:
                level, wrong = hit
                target[level - 1] = wrong
            overrides[rec_id] = tuple(target)
    return records, truth, overrides


SAMPLER_CONFIGS = {
    "label-and-intermediate-noise": SynthConfig(
        leaves=30, samples=1500, label_noise_rate=0.15, intermediate_noise_rate=0.3
    ),
    "shared-vocab": SynthConfig(
        leaves=24, samples=1200, max_roots=4, shared_vocab_across_roots=True, label_noise_rate=0.05
    ),
    "zero-depth-weight": SynthConfig(
        leaves=40, samples=1500, leaf_depth_min=2, leaf_depth_max=6, depth_weights=(1.0, 0.0, 3.0, 2.0, 0.5),
        branching_max=8,
    ),
    "total-nodes": SynthConfig(leaves=20, samples=1000, total_nodes=50, intermediate_noise_rate=0.5),
    "loose-metadata-many-cpvs": SynthConfig(
        leaves=25, samples=1500, metadata_correlation=0.4, cpv_rate=0.9, noise_token_rate=0.6
    ),
    # the benchmark's acceptance corpus config (50 leaves, depths 2-4), at fewer records
    "benchmark-full": SynthConfig(
        leaves=50, samples=3000, leaf_depth_min=2, leaf_depth_max=4, label_noise_rate=0.0,
        noise_token_rate=0.2, zipf_exponent=1.05,
    ),
    # every title length is one value: integers(5, 6), a span of 1
    "fixed-title-length": SynthConfig(leaves=20, samples=1000, title_len_min=5, title_len_max=5),
    # BU and OU misses draw integers(1)
    "one-root": SynthConfig(leaves=20, samples=1000, max_roots=1, metadata_correlation=0.5),
    # noisy title tokens draw integers(1)
    "one-shared-noise-token": SynthConfig(leaves=20, samples=1000, shared_noise_tokens=1, noise_token_rate=0.5),
    # every metadata draw is taken
    "uncorrelated-metadata": SynthConfig(leaves=20, samples=1000, metadata_correlation=0.0),
}


@pytest.mark.parametrize("seed", [1, 17, 4242])
@pytest.mark.parametrize("name", sorted(SAMPLER_CONFIGS))
def test_sampler_matches_the_per_record_reference(monkeypatch, name, seed):
    config = SAMPLER_CONFIGS[name]
    calls = []
    sample = synth._sample_records

    def spy(*args):
        calls.append(args)
        return sample(*args)

    monkeypatch.setattr(synth, "_sample_records", spy)
    corpus = synth_corpus(config, seed)
    (args,) = calls
    _, _, taxonomy, leaves, *_, corrupted = args
    assert corrupted == reference_corrupted(config, seed, taxonomy, leaves)
    if config.intermediate_noise_rate > 0:
        assert corrupted  # the override branch is exercised
    records, truth, overrides = reference_sample_records(*args)

    assert len(corpus.records) == config.samples
    assert corpus.records == records
    assert corpus.truth == truth
    assert list(corpus.truth) == list(truth)
    assert corpus.target_overrides == (overrides if config.intermediate_noise_rate > 0 else None)
    for got in corpus.records:
        assert type(got.label_path) is tuple
        assert got.cpvs is None or (type(got.cpvs) is tuple and type(got.cpvs[0]) is tuple)
    assert all(type(path) is tuple for path in corpus.truth.values())
    assert all(type(target) is tuple for target in (corpus.target_overrides or {}).values())
    if config.label_noise_rate > 0:
        assert any(corpus.truth[r.id] != r.label_path for r in corpus.records)


weight_vectors = st.lists(
    st.floats(min_value=0.0, max_value=1e6, allow_nan=False, allow_subnormal=False), min_size=1, max_size=8
).filter(lambda w: sum(w) > 0)


@settings(derandomize=True, max_examples=100, deadline=None)
@given(weights=weight_vectors, seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_bisect_on_the_cdf_draws_what_choice_draws(weights, seed):
    p = np.asarray(weights) / sum(weights)
    cum = np.cumsum(p)
    cdf = (cum / cum[-1]).tolist()
    g, h = np.random.default_rng(seed), np.random.default_rng(seed)
    for _ in range(200):
        assert bisect_right(cdf, g.random()) == h.choice(len(p), p=p)
    assert g.random() == h.random()  # the streams are still aligned


def test_label_noise_over_one_leaf_is_a_config_error():
    config = SynthConfig(leaves=1, leaf_depth_min=1, leaf_depth_max=1, label_noise_rate=0.5, samples=10)
    with pytest.raises(synth.SynthConfigError, match=r"^label_noise_rate 0.5 .* the taxonomy has only 1 leaf$"):
        synth_corpus(config, 1)


def test_label_noise_over_one_leaf_padded_to_more_draws_other_leaves():
    # total_nodes padding adds leaves, and the check counts them
    config = SynthConfig(leaves=1, leaf_depth_min=2, leaf_depth_max=2, total_nodes=4, label_noise_rate=0.5, samples=10)
    corpus = synth_corpus(config, 1)
    assert sum(node.is_leaf for node in corpus.taxonomy.nodes.values()) > 1
    assert any(corpus.truth[r.id] != r.label_path for r in corpus.records)


# --- the draw decoder against Generator, call for call ---------------------------

spans = st.sampled_from([1, 2, 3, 7, 2**31, 2**32 - 1, 2**32]) | st.integers(1, 2**32)
draw_calls = st.lists(
    st.tuples(st.just("random"), st.none(), st.none())
    | st.tuples(st.just("integers(n)"), st.none(), spans)
    | st.tuples(st.just("integers(low, high)"), st.integers(-(2**40), 2**40), spans),
    max_size=200,
)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(seed=st.integers(0, 2**64 - 1), advance=st.integers(0, 5), block=st.sampled_from([1, 2, 5, 1000]),
       calls=draw_calls)
def test_the_draw_decoder_draws_what_the_generator_draws(seed, advance, block, calls):
    g, h = np.random.default_rng(seed), np.random.default_rng(seed)
    for _ in range(advance):
        assert g.integers(1000) == h.integers(1000)
    # an odd number of 32-bit draws leaves the high half of a word buffered
    assert h.bit_generator.state["has_uint32"] == advance % 2
    with mock.patch.object(synth, "BLOCK", block):
        random, integers = synth._pcg64_draws(h)
        for kind, low, span in calls:
            if kind == "random":
                assert random() == g.random()
            elif kind == "integers(n)":
                assert integers(span) == g.integers(span)
            else:
                assert integers(low, low + span) == g.integers(low, low + span)


@pytest.mark.parametrize("args", [(0,), (-3,), (0, 0), (0, -1), (5, 3), (5, 5)])
def test_an_empty_span_raises_what_the_generator_raises(args):
    _, integers = synth._pcg64_draws(np.random.default_rng(1))
    with pytest.raises(ValueError) as numpy_error:
        np.random.default_rng(1).integers(*args)
    with pytest.raises(ValueError, match=f"^{numpy_error.value}$"):
        integers(*args)


def test_a_span_above_2_to_the_32_is_refused():
    _, integers = synth._pcg64_draws(np.random.default_rng(1))
    with pytest.raises(ValueError, match=r"spans up to 2\*\*32, not 4294967297$"):
        integers(2**32 + 1)
    with pytest.raises(ValueError, match="spans up to"):
        integers(-5, 2**32)


@pytest.mark.parametrize("bit_generator", [np.random.MT19937, np.random.Philox, np.random.SFC64, np.random.PCG64DXSM])
def test_the_draw_decoder_reads_only_pcg64(bit_generator):
    with pytest.raises(TypeError, match=f"reads PCG64 words, not {bit_generator.__name__}$"):
        synth._pcg64_draws(np.random.Generator(bit_generator(1)))


# --- settings the sampler cannot use ----------------------------------------------

# SynthConfig keyword arguments -> the field the refusal names
UNUSABLE_SETTINGS = [
    ({"leaf_vocab_size": 0}, "leaf_vocab_size"),
    ({"shared_noise_tokens": -3}, "shared_noise_tokens"),
    ({"shared_noise_tokens": 0, "noise_token_rate": 0.5}, "shared_noise_tokens"),
    ({"zipf_exponent": math.nan}, "zipf_exponent"),
    ({"zipf_exponent": -math.inf}, "zipf_exponent"),
    ({"zipf_exponent": math.inf}, "zipf_exponent"),
    ({"zipf_exponent": 1100.0, "leaves": 10}, "zipf_exponent"),  # 2**1100 overflows a float
    ({"zipf_exponent": -320.0, "leaves": 10}, "zipf_exponent"),  # the weights' sum overflows
    ({"depth_weights": (1.0, math.nan, 1.0, 1.0, 1.0)}, "depth_weights"),
    ({"depth_weights": (1.0, 1.0, math.inf, 1.0, 1.0)}, "depth_weights"),
    ({"depth_weights": (1.0, 1.0, 1e308, 1e308, 1.0)}, "depth_weights"),  # the sum overflows
    ({"max_roots": 0, "shared_vocab_across_roots": True}, "max_roots"),
]


@pytest.mark.parametrize("settings_, field", UNUSABLE_SETTINGS, ids=[repr(s) for s, _ in UNUSABLE_SETTINGS])
def test_a_setting_the_sampler_cannot_use_is_refused(settings_, field):
    with pytest.raises(synth.SynthConfigError, match=f"^{field} must "):
        SynthConfig(**settings_)


def test_the_edges_of_the_refused_settings_still_sample():
    for config in (
        SynthConfig(leaves=10, samples=50, shared_noise_tokens=0, noise_token_rate=0.0),
        SynthConfig(leaves=10, samples=50, leaf_vocab_size=1, shared_noise_tokens=1),
        SynthConfig(leaves=10, samples=50, leaf_depth_min=2, leaf_depth_max=2, zipf_exponent=-250.0),
        SynthConfig(leaves=10, samples=50, leaf_depth_min=2, leaf_depth_max=2, zipf_exponent=250.0),
        SynthConfig(leaves=1, samples=50, leaf_depth_min=1, leaf_depth_max=1, zipf_exponent=1e300),
    ):
        assert len(synth_corpus(config, 3).records) == 50
