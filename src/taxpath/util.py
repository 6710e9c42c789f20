"""Shared plumbing: text normalisation, stable hashing, named RNG streams,
atomic file I/O, the strict config loader, the garbage-collector pause."""
from __future__ import annotations

import contextlib
import dataclasses
import functools
import gc
import itertools
import json
import os
import re
import sys
import tempfile
import types
import typing
import unicodedata
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator

import numpy as np

FNV_OFFSET_64 = 0xCBF29CE484222325
FNV_PRIME_64 = 0x100000001B3
_MASK_64 = 0xFFFFFFFFFFFFFFFF
# built once, not per call; its callers encode trees built for the call, which hold no cycle
_CANONICAL = json.JSONEncoder(sort_keys=True, ensure_ascii=False, separators=(",", ":"), check_circular=False)
# the C encoder `_CANONICAL.encode` builds on every call, built once with the same arguments
_ENCODE = json.encoder.c_make_encoder(
    None, _CANONICAL.default, json.encoder.encode_basestring, _CANONICAL.indent, _CANONICAL.key_separator,
    _CANONICAL.item_separator, _CANONICAL.sort_keys, _CANONICAL.skipkeys, _CANONICAL.allow_nan)
_DECODER = json.JSONDecoder()
# The most lines a writer joins into one string, so what it holds stays bounded however many rows it writes.
# A line with a non-ASCII code (NULL_CODE is one) takes two bytes a character until it is encoded.
WRITE_LINES = 512
# `\w` is str.isalnum() or "_", so this matches the runs of characters where isalnum() holds
_ALNUM_RUNS = re.compile(r"[^\W_]+")


def tokenize(text: str) -> list[str]:
    """The runs of alphanumeric characters of `text`, NFKC-normalized and lowercased."""
    return _ALNUM_RUNS.findall(unicodedata.normalize("NFKC", text).lower())


def normalize_title(title: str) -> str:
    """The tokens of `title` joined by single spaces: punctuation runs squashed."""
    return " ".join(tokenize(title))


# `fnv1a_64`'s results, for the process: tokens follow a Zipf law, so nearly every lookup repeats one. The memo
# keeps the FNV_MEMO_ENTRIES inputs used last, none longer than FNV_MEMO_LENGTH, so no input pins memory.
FNV_MEMO_ENTRIES, FNV_MEMO_LENGTH = 1 << 14, 64


def fnv1a_64(data: str | bytes) -> int:
    """FNV-1a 64-bit hash of the UTF-8 bytes of a `str`. Fixed constants; stable across runs and platforms."""
    return _fnv1a_64_memo(data) if len(data) <= FNV_MEMO_LENGTH else _fnv1a_64_bytes(data)


def _fnv1a_64_bytes(data: str | bytes) -> int:
    h = FNV_OFFSET_64
    for byte in data.encode("utf-8") if isinstance(data, str) else data:
        h = ((h ^ byte) * FNV_PRIME_64) & _MASK_64  # one statement: about 30% faster per byte
    return h


_fnv1a_64_memo = functools.lru_cache(maxsize=FNV_MEMO_ENTRIES)(_fnv1a_64_bytes)


def gc_paused(fn: Callable) -> Callable:
    """`fn` run with the cyclic garbage collector off, turned back on after.

    For functions that build tens of thousands of containers holding no
    reference cycle: each collection they set off walks the tracked objects,
    every live one on a full collection, and finds none of theirs to free.
    Their young objects are examined once, at the first allocation after the
    collector is back on. If it is already off, `fn` is only called.
    """
    @functools.wraps(fn)
    def paused(*args, **kwargs):
        if not gc.isenabled():
            return fn(*args, **kwargs)
        gc.disable()
        try:
            return fn(*args, **kwargs)
        finally:
            gc.enable()
    return paused


def stream_rng(seed: int, *names: str) -> np.random.Generator:
    """Derive an independent generator from a global seed and a stream name.

    Every consumer of randomness pulls from its own named stream, so results
    do not depend on the order in which components run.
    """
    entropy = [int(seed) & _MASK_64] + [fnv1a_64(name) for name in names]
    return np.random.default_rng(np.random.SeedSequence(entropy))


def canonical_json(obj: Any) -> str:
    """Deterministic JSON encoding (sorted keys, fixed separators): `_CANONICAL.encode(obj)`."""
    return "".join(_ENCODE(obj, 0))


def _memoable(value) -> bool:  # a string or a tuple of such values: no value that is not one equals one
    return isinstance(value, str) or (isinstance(value, tuple) and all(map(_memoable, value)))


class JSONTexts(dict):
    """value -> `canonical_json(value)`, kept only for strings and tuples of them: `1`, `1.0` and `True` are equal."""

    def __missing__(self, value):
        text = canonical_json(value)
        if _memoable(value):
            self[value] = text
        return text


def atomic_write_chunks(path: str | Path, chunks: Iterable[bytes]) -> None:
    """Write `chunks` in turn, each dropped once written, to a temp file in the same directory, then rename it
    into place. A chunk that fails to come (a row that does not encode, or a bad row of a file streamed through)
    leaves the target as it was and no directory this call made."""
    path = Path(path)
    made = list(itertools.takewhile(lambda d: not d.exists(), (path.parent, *path.parent.parents)))  # nearest first
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".", suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.writelines(chunks)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        with contextlib.suppress(OSError):  # a directory written into meanwhile stays
            for d in made:
                d.rmdir()
        raise


def atomic_write_bytes(path: str | Path, data: bytes) -> None:
    atomic_write_chunks(path, (data,))


def atomic_write_text(path: str | Path, text: str) -> None:
    atomic_write_chunks(path, (text.encode("utf-8"),))


def write_jsonl(path: str | Path, rows: Iterable[dict]) -> None:
    """One `canonical_json(row)` line per row, encoded and written WRITE_LINES lines at a time."""
    lines = (canonical_json(row) + "\n" for row in rows)
    atomic_write_chunks(path, map(str.encode, iter(lambda: "".join(itertools.islice(lines, WRITE_LINES)), "")))


def read_json(source: str | Path | bytes, where: str, error: type[Exception] = ValueError) -> Any:
    """The JSON document in a path or in bytes. Any failure to decode it (bad UTF-8, a BOM, bad JSON,
    nesting too deep, an integer too long to convert) raises `error` naming `where`."""
    data = source if isinstance(source, bytes) else Path(source).read_bytes()
    try:  # UnicodeDecodeError and JSONDecodeError are ValueErrors, as is the int-digit limit's
        return json.loads(data.decode("utf-8"))
    except (ValueError, RecursionError) as exc:
        raise error(f"{where}: bad JSON: {exc}") from exc


@contextlib.contextmanager
def naming(path, errors=(ValueError, RuntimeError), raises: type[Exception] = ValueError):
    """An error of the classes `errors` raised in the block re-raised as `raises`, its message naming `path`:
    a fault in what was read from a file (a record that does not fit the model, say) is found only where it
    is used."""
    try:
        yield
    except errors as exc:
        raise raises(f"{path}: {exc}") from exc


def read_jsonl(path: str | Path, required: tuple[str, ...] = (),
               convert: Callable[[dict, Callable[[Any, Any], Any]], Any] | None = None) -> Iterator:
    """The rows of a JSON Lines file, blank lines skipped. With `required`,
    every row must be an object holding those keys. With `convert`, each row
    is yielded as `convert(row, same)`; a ValueError it raises is re-raised
    naming the file and the line, as is a line that `read_json` could not decode.

    `same(value, value)` returns the first value equal to `value` that this
    read passed it: the scanner makes a new object of every string, so a
    converter holds each repeated string or tuple of a file once through it.
    Put in only immutable values that equal no value of another type, such
    as strings and tuples of strings (`1`, `1.0` and `True` are all equal)."""
    keys, scan, same = frozenset(required), _DECODER.scan_once, {}.setdefault
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                line = line.strip()
                if not line:
                    continue
                try:  # one C scan per line; the errors read as json.loads words them
                    try:
                        row, end = scan(line, 0)
                    except StopIteration as stop:  # as raw_decode words it
                        raise json.JSONDecodeError("Expecting value", line, stop.value) from None
                    if end != len(line):  # the line is stripped, so this is trailing data
                        raise json.JSONDecodeError("Extra data", line, len(line) - len(line[end:].lstrip(" \t\n\r")))
                except (ValueError, RecursionError) as exc:
                    if line.startswith("\ufeff"):
                        exc = json.JSONDecodeError("Unexpected UTF-8 BOM (decode using utf-8-sig)", line, 0)
                    raise ValueError(f"{path}: bad JSON on line {lineno}: {exc}") from exc
                if required and not (isinstance(row, dict) and row.keys() >= keys):
                    if not isinstance(row, dict):
                        raise ValueError(f"{path}: line {lineno} is not a JSON object")
                    key = next(key for key in required if key not in row)
                    raise ValueError(f"{path}: the row on line {lineno} has no {key!r} key")
                if convert is not None:
                    try:
                        row = convert(row, same)
                    except ValueError as exc:
                        raise ValueError(f"{path}: the row on line {lineno} {exc}") from None
                yield row
    except UnicodeDecodeError:  # the text layer decodes ahead of the lines, so find the line again
        for lineno, raw in enumerate(Path(path).read_bytes().split(b"\n"), start=1):
            try:
                raw.decode("utf-8")
            except UnicodeDecodeError as exc:
                raise ValueError(f"{path}: bad JSON on line {lineno}: {exc}") from exc
        raise


class ConfigError(ValueError):
    """A JSON document (a config, a report, a checkpoint header) that does not fit its schema."""


# The types of the JSON values each scalar type hint takes as they are, matched exactly: `true` is no number
_SCALARS = {int: {int}, float: {float}, str: {str}, bool: {bool}}


def _key_path(where) -> str:
    """The key path `where` names: a string, or a (parent, key) pair formatted only when a check fails."""
    if isinstance(where, str):
        return where
    parent, key = _key_path(where[0]), where[1]
    if isinstance(key, int):
        return f"{parent}[{key}]"
    return f"{parent}.{key}" if parent else key


@functools.cache
def _schema(cls) -> tuple[dict[str, Any], tuple[str, ...]]:
    """(type hint per key, the keys with no default) of a dataclass or a TypedDict, resolved once per class."""
    hints = typing.get_type_hints(cls)
    if not dataclasses.is_dataclass(cls):
        return hints, tuple(key for key in hints if key in cls.__required_keys__)
    fields = [f for f in dataclasses.fields(cls) if f.init]
    required = [f.name for f in fields if f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING]
    return {f.name: hints[f.name] for f in fields}, tuple(required)


def config_from_dict(cls, doc: Any, section, **given):
    """An instance of the dataclass or TypedDict `cls` from the JSON object `doc`.

    The one checker for JSON documents: configs, reports, checkpoint headers.
    Every key must name a field of `cls` other than those in `given`, which
    the caller supplies. A field with no default must be present; missing
    keys take the field defaults. Values are checked by `config_value`.
    Errors name the key path from `section`.
    """
    doc = config_value(dict[str, Any], doc, section)
    hints, required = _schema(cls)
    for key in doc:
        if key not in hints or key in given:
            raise ConfigError(f"unknown config key {_key_path((section, key))}")
    for key in required:
        if key not in doc and key not in given:
            raise ConfigError(f"{_key_path(section)} has no {key!r} key")
    values = {key: config_value(hints[key], value, (section, key)) for key, value in doc.items()}
    try:
        return cls(**values, **given)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{_key_path(section)}: {exc}") from exc


def config_value(hint, value: Any, where):
    """`value` checked against the type hint `hint`. JSON lists become tuples, of as many items as a fixed-size
    tuple hint names; objects become dicts (keys read as integers for `dict[int, X]`), dataclasses or TypedDicts."""
    if hint is Any:
        return value
    if typing.get_origin(hint) in (typing.Union, types.UnionType):  # only `X | None` occurs
        if value is None:
            return None
        (hint,) = [arg for arg in typing.get_args(hint) if arg is not type(None)]
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if dataclasses.is_dataclass(hint) or typing.is_typeddict(hint):
        return config_from_dict(hint, value, where)
    if origin is tuple and isinstance(value, (list, tuple)) and args[-1] is Ellipsis:
        item, inner = args[0], typing.get_args(args[0])
        # in bulk where the types show at once that every item fits: scalars, or lists of scalars of one type
        if item in _SCALARS and set(map(type, value)) <= _SCALARS[item]:
            return tuple(value)
        if (typing.get_origin(item) is tuple and len(set(inner)) == 1 and inner[0] in _SCALARS
                and set(map(type, value)) <= {list, tuple} and set(map(len, value)) <= {len(inner)}
                and set(map(type, itertools.chain.from_iterable(value))) <= _SCALARS[inner[0]]):
            return tuple(map(tuple, value))
        return tuple(config_value(item, x, (where, i)) for i, x in enumerate(value))
    if origin is tuple and isinstance(value, (list, tuple)):
        if len(value) != len(args):
            raise ConfigError(f"{_key_path(where)} must be a list of {len(args)} values, got {value!r}")
        return tuple(config_value(arg, item, (where, i)) for i, (arg, item) in enumerate(zip(args, value)))
    if origin is dict and isinstance(value, dict):
        bad = next((key for key in value if args[0] is int and not (isinstance(key, str) and key.isdecimal())), None)
        if bad is not None:  # JSON keys are strings
            raise ConfigError(f"{_key_path(where)} keys must be integers, got {bad!r}")
        return {args[0](key): config_value(args[1], item, (where, key)) for key, item in value.items()}
    if type(value) in _SCALARS.get(hint, ()):
        return value
    if hint is float and type(value) is int:  # an integer stands for a float where float() can hold it
        if abs(value) <= sys.float_info.max:
            return value
        raise ConfigError(f"{_key_path(where)} must be a number a float can hold, got {value!r}")
    kind = {tuple: "a list", dict: "a JSON object", int: "an integer", float: "a number", str: "a string", bool: "true or false"}
    raise ConfigError(f"{_key_path(where)} must be {kind.get(origin or hint, hint)}, got {value!r}")
