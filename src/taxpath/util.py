"""Shared plumbing: text normalisation, stable hashing, named RNG streams,
atomic file I/O, the strict config loader, the garbage-collector pause."""
from __future__ import annotations

import dataclasses
import functools
import gc
import json
import os
import re
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
# `\w` is str.isalnum() or "_", so this matches the runs of characters where isalnum() holds
_ALNUM_RUNS = re.compile(r"[^\W_]+")


def tokenize(text: str) -> list[str]:
    """The runs of alphanumeric characters of `text`, NFKC-normalized and lowercased."""
    return _ALNUM_RUNS.findall(unicodedata.normalize("NFKC", text).lower())


def normalize_title(title: str) -> str:
    """The tokens of `title` joined by single spaces: punctuation runs squashed."""
    return " ".join(tokenize(title))


def fnv1a_64(data: str | bytes) -> int:
    """FNV-1a 64-bit hash. Fixed constants; stable across runs and platforms."""
    if isinstance(data, str):
        data = data.encode("utf-8")
    h = FNV_OFFSET_64
    for byte in data:
        h = ((h ^ byte) * FNV_PRIME_64) & _MASK_64  # one statement: about 30% faster per byte
    return h


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


def atomic_write_bytes(path: str | Path, data: bytes) -> None:
    """Write via a temp file in the same directory, then rename into place."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".", suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_blob(sink, data: bytes) -> None:
    """Write `data` to a binary file object, or atomically to a path."""
    if hasattr(sink, "write"):
        sink.write(data)
    else:
        atomic_write_bytes(sink, data)


def read_blob(source) -> bytes:
    """All the bytes of a binary file object or of a path."""
    return source.read() if hasattr(source, "read") else Path(source).read_bytes()


def atomic_write_text(path: str | Path, text: str) -> None:
    atomic_write_bytes(path, text.encode("utf-8"))


def write_jsonl(path: str | Path, rows: Iterable[dict]) -> None:
    atomic_write_text(path, "".join([canonical_json(row) + "\n" for row in rows]))


def read_jsonl(path: str | Path, required: tuple[str, ...] = (), convert: Callable[[dict], Any] | None = None) -> Iterator:
    """The rows of a JSON Lines file, blank lines skipped. With `required`,
    every row must be an object holding those keys. With `convert`, each row
    is yielded as `convert(row)`; a ValueError it raises is re-raised naming
    the file and the line."""
    keys, scan = frozenset(required), _DECODER.scan_once
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
            except json.JSONDecodeError as exc:
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
                    row = convert(row)
                except ValueError as exc:
                    raise ValueError(f"{path}: the row on line {lineno} {exc}") from None
            yield row


class ConfigError(ValueError):
    """A config document that does not fit its dataclass."""


def config_object(value: Any, where: str) -> dict:
    if not isinstance(value, dict):
        raise ConfigError(f"{where} must be a JSON object, got {value!r}")
    return value


def config_from_dict(cls, doc: Any, section: str, **given):
    """An instance of the config dataclass `cls` from the JSON object `doc`.

    Every key must name a field of `cls` other than those in `given`, which
    the caller supplies; missing keys take the field defaults. Values are
    checked against the field types, JSON lists become tuples and nested
    objects become nested dataclasses. Errors name `section.key`.
    """
    doc = config_object(doc, section)
    settable = [f.name for f in dataclasses.fields(cls) if f.name not in given]
    for key in doc:
        if key not in settable:
            raise ConfigError(f"unknown config key {section}.{key}")
    hints = typing.get_type_hints(cls)
    values = {key: config_value(hints[key], value, f"{section}.{key}") for key, value in doc.items()}
    try:
        return cls(**values, **given)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{section}: {exc}") from exc


def config_value(hint, value: Any, where: str):
    """`value` checked against the type hint `hint`, lists turned into tuples."""
    if typing.get_origin(hint) in (typing.Union, types.UnionType):  # only `X | None` occurs
        if value is None:
            return None
        (hint,) = [arg for arg in typing.get_args(hint) if arg is not type(None)]
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if dataclasses.is_dataclass(hint):
        return config_from_dict(hint, value, where)
    if origin is tuple and isinstance(value, (list, tuple)):
        return tuple(config_value(args[0], item, f"{where}[{i}]") for i, item in enumerate(value))
    if origin is dict and isinstance(value, dict):
        return {key: config_value(args[1], item, f"{where}.{key}") for key, item in value.items()}
    accepted = {int: (int,), float: (int, float), str: (str,), bool: (bool,)}.get(hint, ())
    # `true` is an int to Python, but no count or number in a config
    if isinstance(value, accepted) and (hint is bool) == isinstance(value, bool):
        return value
    kind = {tuple: "a list", dict: "an object", int: "an integer", float: "a number", str: "a string", bool: "true or false"}
    raise ConfigError(f"{where} must be {kind.get(origin or hint, hint)}, got {value!r}")
