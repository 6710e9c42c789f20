import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from taxpath.dataset import ProductRecord
from taxpath.encoder import (
    EncodedBatch,
    EncoderConfig,
    assemble_batch,
    build_field_vocabs,
    cpv_token,
    encode_one,
    field_index,
    prepare_records,
)
from taxpath.synth import SynthConfig, synth_corpus
from taxpath.util import fnv1a_64, normalize_title

from encoder_oracles import encode_batch, title_buckets, token_buckets


def make_record(**kw):
    fields = dict(
        id="r0",
        title="alpha beta gamma",
        category_name="cat name",
        bu_code="bu01",
        ou_code="ou01",
        system_code="sys0",
        label_path=("A",),
        source="goods_registry",
    )
    fields.update(kw)
    return ProductRecord(**fields)


def test_fnv1a_golden_vectors():
    # published FNV-1a 64-bit reference values
    assert fnv1a_64("") == 0xCBF29CE484222325
    assert fnv1a_64("a") == 0xAF63DC4C8601EC8C
    assert fnv1a_64("foobar") == 0x85944171F73967E8


def title_embedding(text, table, cfg):
    """The title block of a one-record batch whose text table is `table`."""
    tables = {**make_tables(cfg), "text_table": table}
    return encode_batch([make_record(title=text)], tables, cfg).dense[0, : cfg.text_dim]


def batch_of_one_rows(record, tables, cfg):
    """Dense and routing rows of a one-record batch."""
    batch = encode_batch([record], tables, cfg)
    return batch.dense[0], batch.routing[0]


def test_encode_text_empty_is_zero():
    cfg = EncoderConfig(hash_buckets=8, text_dim=4, cat_dim=2)
    table = np.arange(32, dtype=float).reshape(8, 4)
    assert np.array_equal(title_embedding("", table, cfg), np.zeros(4))
    assert np.array_equal(title_embedding("  !! ", table, cfg), np.zeros(4))


def test_encode_text_single_token_is_its_row():
    cfg = EncoderConfig(hash_buckets=8, text_dim=4, cat_dim=2)
    table = np.arange(32, dtype=float).reshape(8, 4)
    bucket = fnv1a_64("alpha") % 8
    assert np.array_equal(title_embedding("Alpha", table, cfg), table[bucket])


def test_encode_text_three_token_mean_by_hand():
    cfg = EncoderConfig(hash_buckets=8, text_dim=4, cat_dim=2)
    rng = np.random.default_rng(0)
    table = rng.normal(size=(8, 4))
    text = "red blue green"
    rows = [table[fnv1a_64(tok) % 8] for tok in ["red", "blue", "green"]]
    expected = (rows[0] + rows[1] + rows[2]) / 3.0
    assert np.allclose(title_embedding(text, table, cfg), expected, atol=1e-15)


def vocab_config(records, **kw):
    fields = kw.pop("fields", ("bu_code", "ou_code", "system_code"))
    return EncoderConfig(
        hash_buckets=kw.pop("hash_buckets", 16),
        text_dim=kw.pop("text_dim", 4),
        cat_dim=kw.pop("cat_dim", 3),
        fields=fields,
        field_vocabs=build_field_vocabs(records, fields),
        **kw,
    )


def make_tables(cfg, seed=0):
    rng = np.random.default_rng(seed)
    tables = {"text_table": rng.normal(size=(cfg.hash_buckets, cfg.text_dim))}
    for name in cfg.fields:
        tables[f"field/{name}/table"] = rng.normal(size=(len(cfg.vocab(name)) + 1, cfg.cat_dim))
    return tables


def test_unseen_value_maps_to_unk_slot():
    known = [make_record(bu_code="bu01"), make_record(id="r1", bu_code="bu02")]
    cfg = vocab_config(known)
    tables = make_tables(cfg)
    _, routing = batch_of_one_rows(make_record(bu_code="mystery"), tables, cfg)
    block = routing[: len(cfg.vocab("bu_code")) + 1]
    assert block[-1] == 1.0 and block.sum() == 1.0


def test_routing_blocks_one_hot():
    records = [make_record(bu_code=f"bu{i}", ou_code=f"ou{i % 2}") for i in range(4)]
    cfg = vocab_config(records)
    tables = make_tables(cfg)
    for r in records:
        _, routing = batch_of_one_rows(r, tables, cfg)
        off = 0
        for name in cfg.fields:
            width = len(cfg.vocab(name)) + 1
            assert routing[off : off + width].sum() == 1.0
            off += width


def test_title_change_touches_only_title_block():
    records = [make_record()]
    cfg = vocab_config(records)
    tables = make_tables(cfg)
    a_dense, a_routing = batch_of_one_rows(make_record(title="one thing"), tables, cfg)
    b_dense, b_routing = batch_of_one_rows(make_record(title="another thing entirely"), tables, cfg)
    assert np.array_equal(a_routing, b_routing)
    assert not np.array_equal(a_dense[: cfg.text_dim], b_dense[: cfg.text_dim])
    assert np.array_equal(a_dense[cfg.text_dim :], b_dense[cfg.text_dim :])


def test_encode_compositional_oracle():
    records = [make_record(bu_code="bu01"), make_record(id="r1", bu_code="bu02")]
    fields = ("bu_code", "ou_code")
    cfg = vocab_config(records, fields=fields)
    tables = make_tables(cfg, seed=3)
    r = records[0]
    dense, _ = batch_of_one_rows(r, tables, cfg)
    expected = np.concatenate(
        [
            tables["text_table"][token_buckets(r.title, cfg.hash_buckets)].mean(axis=0),
            tables["text_table"][token_buckets(r.category_name, cfg.hash_buckets)].mean(axis=0),
            tables["field/bu_code/table"][field_index(cfg, "bu_code", r.bu_code)],
            tables["field/ou_code/table"][field_index(cfg, "ou_code", r.ou_code)],
        ]
    )
    assert np.allclose(dense, expected, atol=1e-15)
    assert dense.shape == (cfg.dense_dim,)
    assert np.isfinite(dense).all()


def test_cpvs_fold_into_title_stream():
    cfg = vocab_config([make_record()])
    plain = make_record()
    with_cpv = make_record(cpvs=(("material", "steel"),))
    pb = title_buckets(plain, cfg.hash_buckets)
    cb = title_buckets(with_cpv, cfg.hash_buckets)
    assert cb.size == pb.size + 1
    assert cb[-1] == fnv1a_64("material=steel") % cfg.hash_buckets


CPV_TEXT = st.text() | st.text(alphabet="aZ9_=-. \t\u00a0\u00c4\u00df\u2460\uff21\u6f22")


@settings(max_examples=400, derandomize=True)
@given(key=CPV_TEXT, value=CPV_TEXT)
def test_cpv_token_equals_the_folded_normalized_pair(key, value):
    expected = f"{normalize_title(key)}={normalize_title(value)}".replace(" ", "_")
    assert cpv_token(key, value) == expected


def test_encode_batch_matches_single():
    records = [make_record(id=f"r{i}", title=f"thing number {i}") for i in range(5)]
    cfg = vocab_config(records)
    tables = make_tables(cfg, seed=9)
    batch = encode_batch(records, tables, cfg)
    for i, r in enumerate(records):
        dense, routing = batch_of_one_rows(r, tables, cfg)
        assert np.array_equal(batch.dense[i], dense)
        assert np.array_equal(batch.routing[i], routing)


def test_hashing_is_stable():
    # frozen bucket assignments guard cross-platform reproducibility
    buckets = title_buckets(make_record(title="Fully Automatic Washing Machine"), 2048)
    assert buckets.tolist() == [
        fnv1a_64(t) % 2048 for t in ["fully", "automatic", "washing", "machine"]
    ]
    assert buckets.tolist() == [639, 1924, 930, 1646]


def tokens_of(lists, i):
    """Record i's tokens from a flat (CSR) `TokenLists`."""
    return lists.tokens[lists.starts[i] : lists.starts[i] + lists.lengths[i]]


def loop_assemble_batch(prepared, rows, tables, config):
    """Reference: the per-sample assembly loop the vectorised one replaced."""
    n = len(rows)
    text_table = tables["text_table"]
    dense = np.zeros((n, config.dense_dim))
    routing = np.zeros((n, config.routing_dim))
    title_tok, title_len = [], []
    cat_tok, cat_len = [], []
    field_idx = np.zeros((n, len(config.fields)), dtype=np.int64)
    block_offsets = []
    off = 0
    for name in config.fields:
        block_offsets.append(off)
        off += len(config.vocab(name)) + 1
    for i, row in enumerate(rows):
        prep_title, prep_cat = tokens_of(prepared.title, row), tokens_of(prepared.cat, row)
        title_len.append(prep_title.size)
        cat_len.append(prep_cat.size)
        if prep_title.size:
            dense[i, : config.text_dim] = text_table[prep_title].mean(axis=0)
            title_tok.extend(prep_title.tolist())
        if prep_cat.size:
            dense[i, config.text_dim : 2 * config.text_dim] = text_table[prep_cat].mean(axis=0)
            cat_tok.extend(prep_cat.tolist())
        dense_off = 2 * config.text_dim
        for f_pos, name in enumerate(config.fields):
            idx = int(prepared.field_idx[row, f_pos])
            field_idx[i, f_pos] = idx
            dense[i, dense_off : dense_off + config.cat_dim] = tables[f"field/{name}/table"][idx]
            routing[i, block_offsets[f_pos] + idx] = 1.0
            dense_off += config.cat_dim
    return EncodedBatch(
        dense=dense,
        routing=routing,
        title_tok=np.array(title_tok, dtype=np.int64),
        title_len=np.array(title_len, dtype=np.int64),
        cat_tok=np.array(cat_tok, dtype=np.int64),
        cat_len=np.array(cat_len, dtype=np.int64),
        field_idx=field_idx,
    )


def assert_batches_identical(got, want):
    for name in EncodedBatch.__dataclass_fields__:
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.shape == b.shape, name
        assert np.array_equal(a, b), name


def oracle_records():
    """Synthetic records plus the edge cases: no title or category tokens,
    long titles, and field values outside the vocabulary (the UNK slot)."""
    corpus = synth_corpus(SynthConfig(leaves=12, samples=990, leaf_depth_min=2, leaf_depth_max=4), seed=5)
    records = list(corpus.records)
    long_title = " ".join(f"word{k}" for k in range(23))
    records += [
        make_record(id="e0", title="!!", category_name=""),
        make_record(id="e1", title="", category_name="only category"),
        make_record(id="e2", title="only title", category_name="  "),
        make_record(id="e3", title="!!", category_name="", cpvs=(("colour", "red"),)),
        make_record(id="e4", title=long_title, category_name=long_title),
        make_record(id="e5", bu_code="unseen-bu", ou_code="unseen-ou", system_code="unseen-sys"),
    ]
    records += [make_record(id=f"e{6 + k}", title=f"filler {k}") for k in range(4)]
    return corpus.records, records


@pytest.mark.parametrize("batch_size", [1, 64, 1000])
def test_assemble_batch_matches_loop_oracle(batch_size):
    vocab_source, records = oracle_records()
    assert len(records) == 1000
    cfg = vocab_config(vocab_source, hash_buckets=257, text_dim=7, cat_dim=3)
    tables = make_tables(cfg, seed=11)
    prepared = prepare_records(records, cfg)
    # the edge cases sit at the end, so every batch size sees them
    for start in range(len(prepared) - batch_size, -1, -batch_size)[:20]:
        chunk = np.arange(start, start + batch_size)
        assert_batches_identical(
            assemble_batch(prepared, tables, cfg, rows=chunk), loop_assemble_batch(prepared, chunk, tables, cfg)
        )
    # shuffled rows, as training draws them, with the edge cases in the first batch
    order = np.random.default_rng(batch_size).permutation(len(prepared) - 10)
    order = np.concatenate((np.arange(len(prepared) - 10, len(prepared)), order))
    for start in range(0, len(order), batch_size)[:20]:
        take = order[start : start + batch_size]
        assert_batches_identical(
            assemble_batch(prepared, tables, cfg, rows=take), loop_assemble_batch(prepared, take, tables, cfg)
        )
    everything = np.arange(len(prepared))
    assert_batches_identical(
        assemble_batch(prepared, tables, cfg), loop_assemble_batch(prepared, everything, tables, cfg)
    )


def test_assemble_batch_edge_cases_hit_oracle_paths():
    _, records = oracle_records()
    cfg = vocab_config(oracle_records()[0])
    prepared = prepare_records(records[-10:], cfg)
    assert tokens_of(prepared.title, 0).size == 0 and tokens_of(prepared.cat, 0).size == 0
    assert tokens_of(prepared.title, 1).size == 0 and tokens_of(prepared.cat, 2).size == 0
    assert tokens_of(prepared.title, 3).size == 1  # the CPV token alone
    assert tokens_of(prepared.title, 4).size == 23
    unk = [len(cfg.vocab(name)) for name in cfg.fields]
    assert prepared.field_idx[5].tolist() == unk
    batch = assemble_batch(prepared, make_tables(cfg), cfg)
    assert np.array_equal(batch.dense[0, : 2 * cfg.text_dim], np.zeros(2 * cfg.text_dim))


def test_assemble_batch_empty():
    cfg = vocab_config([make_record()])
    tables = make_tables(cfg)
    prepared = prepare_records([], cfg)
    none = np.zeros(0, dtype=np.int64)
    assert_batches_identical(assemble_batch(prepared, tables, cfg), loop_assemble_batch(prepared, none, tables, cfg))


# Shared pieces, so drawn records repeat tokens, CPV pairs and category names.
SHARED_TOKENS = ["alpha", "Beta", "ＡＢＣ①", "x-y", "machine", "", "!!", "é"]
texts = st.one_of(st.text(max_size=30), st.lists(st.sampled_from(SHARED_TOKENS), max_size=6).map(" ".join))
cpv_lists = st.one_of(st.none(), st.lists(st.tuples(texts, texts), max_size=3).map(tuple))


@st.composite
def drawn_records(draw):
    categories = draw(st.lists(texts, min_size=1, max_size=4))
    n = draw(st.integers(0, 12))
    return [
        make_record(
            id=f"r{i}",
            title=draw(texts),
            category_name=draw(st.sampled_from(categories)),
            cpvs=draw(cpv_lists),
            bu_code=draw(st.sampled_from(["bu01", "bu02", "unseen"])),
        )
        for i in range(n)
    ]


@settings(max_examples=150, deadline=None, derandomize=True)
@given(records=drawn_records(), hash_buckets=st.integers(1, 5000))
def test_prepare_records_memo_matches_per_record_hashing(records, hash_buckets):
    cfg = vocab_config([make_record(bu_code="bu01"), make_record(bu_code="bu02")], hash_buckets=hash_buckets)
    prepared = prepare_records(records, cfg)
    assert len(prepared) == len(records)
    for i, rec in enumerate(records):
        for got, want in (
            (tokens_of(prepared.title, i), title_buckets(rec, hash_buckets)),
            (tokens_of(prepared.cat, i), token_buckets(rec.category_name, hash_buckets)),
        ):
            assert got.dtype == np.int64 and got.shape == want.shape
            assert np.array_equal(got, want)
        fields = [field_index(cfg, name, getattr(rec, name)) for name in cfg.fields]
        assert prepared.field_idx[i].tolist() == fields


def test_prepare_records_lays_tokens_out_flat_and_read_only():
    records = [
        make_record(id="r0", title="alpha beta", category_name="cat a"),
        make_record(id="r1", title="", category_name="cat b two"),
        make_record(id="r2", title="gamma", category_name="cat a", bu_code="bu02"),
    ]
    cfg = vocab_config(records)
    prepared = prepare_records(records, cfg)
    assert prepared.title.lengths.tolist() == [2, 0, 1]
    assert prepared.title.starts.tolist() == [0, 2, 2]
    assert prepared.cat.lengths.tolist() == [2, 3, 2]
    assert prepared.cat.starts.tolist() == [0, 2, 5]
    assert np.array_equal(prepared.cat.tokens[5:], prepared.cat.tokens[:2])  # same category, same buckets
    assert prepared.field_idx.shape == (3, len(cfg.fields))
    for array in (prepared.title.tokens, prepared.title.lengths, prepared.title.starts,
                  prepared.cat.tokens, prepared.field_idx):
        assert array.dtype == np.int64 and not array.flags.writeable


# Titles long enough that a one-column mean summed pairwise (in blocks of 8) would differ in the last bit
long_texts = st.one_of(texts, st.lists(st.sampled_from(SHARED_TOKENS), max_size=20).map(" ".join))


@pytest.mark.numpy_floor
@settings(max_examples=300, deadline=None, derandomize=True)
@given(title=long_texts, category=texts, cpvs=cpv_lists, bu_code=st.sampled_from(["bu01", "bu02", "unseen"]),
       hash_buckets=st.integers(1, 64), text_dim=st.integers(1, 5), seed=st.integers(0, 2**16))
@example(title="", category="!!", cpvs=None, bu_code="unseen", hash_buckets=16, text_dim=4, seed=0)
@example(title="  !! ..,", category="", cpvs=(), bu_code="bu01", hash_buckets=16, text_dim=1, seed=1)
@example(title="alpha alpha Beta alpha machine alpha Beta alpha machine", category="cat cat",
         cpvs=(("k", "v"), ("k", "v")), bu_code="bu02", hash_buckets=3, text_dim=1, seed=2)
def test_encode_one_equals_the_batch_of_one(title, category, cpvs, bu_code, hash_buckets, text_dim, seed):
    """Byte for byte, over a text table with -0.0 entries and rows of mixed magnitude: a mean started
    from zeros would lose the sign of -0.0, and one summed in another order would differ in the last bit."""
    cfg = vocab_config([make_record(bu_code="bu01"), make_record(bu_code="bu02")], hash_buckets=hash_buckets,
                       text_dim=text_dim)
    tables = make_tables(cfg, seed=seed)
    rng = np.random.default_rng(seed)
    table = tables["text_table"] * 10.0 ** rng.integers(-12, 12, size=(hash_buckets, 1))
    table[rng.random(table.shape) < 0.3] = -0.0
    table[rng.random(hash_buckets) < 0.3] = -0.0
    tables["text_table"] = table
    rec = make_record(title=title, category_name=category, cpvs=cpvs, bu_code=bu_code)
    got = encode_one(rec, tables, cfg)
    want = assemble_batch(prepare_records([rec], cfg), tables, cfg)
    for name in EncodedBatch.__dataclass_fields__:
        a, b = getattr(got, name), getattr(want, name)
        assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes()), name


def test_field_lookup_on_a_5000_entry_vocabulary_equals_tuple_index():
    """The value-to-index dicts give the index `tuple.index` finds, on both paths, the UNK slot included."""
    vocab = tuple(f"bu{i:05d}" for i in range(5000))
    cfg = EncoderConfig(hash_buckets=16, text_dim=2, cat_dim=2, fields=("bu_code",), field_vocabs={"bu_code": vocab})
    tables = make_tables(cfg)
    values = [vocab[0], vocab[1], vocab[2500], vocab[-2], vocab[-1], "unseen", "", "bu5000", "BU00001"]
    want = [vocab.index(v) if v in vocab else len(vocab) for v in values]
    assert want[-4:] == [5000] * 4
    assert [field_index(cfg, "bu_code", v) for v in values] == want
    records = [make_record(id=f"r{i}", bu_code=v) for i, v in enumerate(values)]
    assert prepare_records(records, cfg).field_idx[:, 0].tolist() == want
    assert [encode_one(r, tables, cfg).field_idx.tolist() for r in records] == [[[i]] for i in want]
