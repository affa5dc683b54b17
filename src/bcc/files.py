"""Versioned JSON channel files.

Schema (format_version 1):

    {
      "format_version": 1,
      "kind": "dense" | "deterministic",
      "num_inputs": int, "num_outputs1": int, "num_outputs2": int,
      "alphabets": {"x": [...], "y1": [...], "y2": [...]},   # optional labels
      "rows":  [[[float ...] ...] ...],    # dense: rows[x][y1][y2]
      "pairs": [[y1, y2] ...]              # deterministic: one pair per x
    }

Serialization is canonical (sorted keys, fixed indentation, trailing
newline), so save -> load -> save reproduces the file byte for byte.
"""

from __future__ import annotations

import json
from pathlib import Path

from .channels import (
    ChannelTable,
    DeterministicChannel,
    first_pair_out_of_range,
    validate_channel,
)
from .errors import ParseError, ToolkitError, ValidationError

FORMAT_VERSION = 1
_KINDS = ("dense", "deterministic")
_AXES = ("x", "y1", "y2")


def _require(doc: dict, key: str, types) -> object:
    if key not in doc:
        raise ParseError(f"missing field '{key}'")
    value = doc[key]
    if not isinstance(value, types):
        raise ParseError(f"field '{key}' has type {type(value).__name__}")
    if isinstance(value, bool):
        raise ParseError(f"field '{key}' has type bool")
    return value


def _check_labels(doc: dict, sizes: dict) -> None:
    labels = doc.get("alphabets")
    if labels is None:
        return
    if not isinstance(labels, dict):
        raise ParseError("field 'alphabets' must be an object")
    for axis, names in labels.items():
        if axis not in _AXES:
            raise ParseError(f"unknown alphabet '{axis}'")
        if not (isinstance(names, list) and all(isinstance(s, str) for s in names)):
            raise ParseError(f"alphabet '{axis}' must be a list of strings")
        if len(names) != sizes[axis]:
            raise ValidationError(
                f"alphabet '{axis}' has {len(names)} labels for {sizes[axis]} symbols")
        if len(set(names)) != len(names):
            raise ValidationError(f"alphabet '{axis}' has duplicate labels")


def _check_pair_ranges(pairs, n1: int, n2: int):
    x = first_pair_out_of_range(pairs, n1, n2)
    if x >= 0:
        raise ValidationError(f"pair at x={x} outside output alphabets")


def channel_from_dict(doc: dict) -> ChannelTable | DeterministicChannel:
    if not isinstance(doc, dict):
        raise ParseError("top level must be an object")
    version = _require(doc, "format_version", int)
    if version != FORMAT_VERSION:
        raise ParseError(f"unsupported format_version {version}")
    kind = _require(doc, "kind", str)
    if kind not in _KINDS:
        raise ParseError(f"kind must be one of {_KINDS}")
    nx = _require(doc, "num_inputs", int)
    n1 = _require(doc, "num_outputs1", int)
    n2 = _require(doc, "num_outputs2", int)
    if min(nx, n1, n2) < 1:
        raise ValidationError("alphabet sizes must be positive")
    _check_labels(doc, {"x": nx, "y1": n1, "y2": n2})

    if kind == "deterministic":
        raw = _require(doc, "pairs", list)
        if len(raw) != nx:
            raise ValidationError(f"expected {nx} pairs, found {len(raw)}")
        for x, pair in enumerate(raw):
            if not (isinstance(pair, list) and len(pair) == 2
                    and all(isinstance(v, int) and not isinstance(v, bool) for v in pair)):
                _check_pair_ranges(raw[:x], n1, n2)   # an earlier bad range comes first
                raise ParseError(f"pair at x={x} must be two integers")
        pairs = tuple(map(tuple, raw))
        try:
            return DeterministicChannel(nx, n1, n2, pairs)  # checks the ranges
        except ValidationError:
            _check_pair_ranges(pairs, n1, n2)
            raise

    rows = _require(doc, "rows", list)
    if len(rows) != nx:
        raise ValidationError(f"expected {nx} rows, found {len(rows)}")
    # Check the nesting before any allocation: the declared sizes alone may
    # be far larger than the rows that are actually there.
    for x, row in enumerate(rows):
        if not (isinstance(row, list) and len(row) == n1):
            raise ParseError(f"row at x={x} must list {n1} output-1 slices")
        for y1, slice_ in enumerate(row):
            if not (isinstance(slice_, list) and len(slice_) == n2):
                raise ParseError(f"row at x={x}, y1={y1} must list {n2} values")
            for y2, value in enumerate(slice_):
                if isinstance(value, bool) or not isinstance(value, (int, float)):
                    raise ParseError(f"value at x={x}, y1={y1}, y2={y2} is not a number")
    try:
        return validate_channel(rows)
    except OverflowError as exc:   # an integer literal beyond the float range
        raise ValidationError(f"an entry is not finite: {exc}") from exc
    except ToolkitError as exc:
        raise ValidationError(str(exc)) from exc


def channel_to_dict(channel: ChannelTable | DeterministicChannel,
                    alphabets: dict | None = None) -> dict:
    if isinstance(channel, DeterministicChannel):
        doc = {
            "format_version": FORMAT_VERSION,
            "kind": "deterministic",
            "num_inputs": channel.input_size,
            "num_outputs1": channel.out1_size,
            "num_outputs2": channel.out2_size,
            "pairs": [[y1, y2] for y1, y2 in channel.pairs],
        }
    elif isinstance(channel, ChannelTable):
        doc = {
            "format_version": FORMAT_VERSION,
            "kind": "dense",
            "num_inputs": channel.input_size,
            "num_outputs1": channel.out1_size,
            "num_outputs2": channel.out2_size,
            "rows": [[[float(v) for v in s] for s in row] for row in channel.probs],
        }
    else:
        raise ValidationError(f"cannot serialize {type(channel).__name__}")
    if alphabets is not None:
        doc["alphabets"] = alphabets
    return doc


def dumps_canonical(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def load_channel(path) -> ChannelTable | DeterministicChannel:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ParseError(f"{path}: {exc}") from exc
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: {exc}") from exc
    try:
        return channel_from_dict(doc)
    except (ParseError, ValidationError) as exc:
        raise type(exc)(f"{path}: {exc}") from exc


def save_channel(channel, path, alphabets: dict | None = None) -> None:
    Path(path).write_text(dumps_canonical(channel_to_dict(channel, alphabets)))
