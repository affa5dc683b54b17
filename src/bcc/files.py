"""Versioned JSON channel files.

Schema (format_version 1):

    {
      "format_version": 1,
      "kind": "dense" | "deterministic",
      "num_inputs": int, "num_outputs1": int, "num_outputs2": int,
      "alphabets": {"x": [...], "y1": [...], "y2": [...]},   # optional labels,
                                                             # checked, not kept
      "rows":  [[[float ...] ...] ...],    # dense: rows[x][y1][y2]
      "pairs": [[y1, y2] ...]              # deterministic: one pair per x
    }

Serialization is canonical (sorted keys, fixed indentation, trailing
newline), so save -> load -> save reproduces the file byte for byte.
"""

from __future__ import annotations

import json
from itertools import chain
from pathlib import Path

import numpy as np

from .channels import ChannelTable, DeterministicChannel, validate_channel
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
        typed = next((x for x, pair in enumerate(raw)   # type() is int rejects bool
                      if not (isinstance(pair, list) and len(pair) == 2
                              and type(pair[0]) is int and type(pair[1]) is int)), nx)
        try:
            pairs = np.fromiter(chain.from_iterable(raw[:typed]), np.intp, 2 * typed)
        except OverflowError:   # an integer beyond intp, compared as an object
            pairs = np.array(raw[:typed], dtype=object)
        pairs = pairs.reshape(typed, 2)
        bad = ((pairs < 0) | (pairs >= (n1, n2))).any(axis=1)
        if bad.any():   # an earlier bad range comes before a bad type
            raise ValidationError(f"pair at x={int(np.argmax(bad))} outside output alphabets")
        if typed < nx:
            raise ParseError(f"pair at x={typed} must be two integers")
        return DeterministicChannel(nx, n1, n2, pairs)

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


def channel_to_dict(channel: ChannelTable | DeterministicChannel) -> dict:
    """The channel as a format_version 1 document, without alphabet labels."""
    if isinstance(channel, DeterministicChannel):
        kind, body = "deterministic", {"pairs": channel.pairs.tolist()}
    elif isinstance(channel, ChannelTable):
        kind, body = "dense", {"rows": np.asarray(channel.probs, dtype=float).tolist()}
    else:
        raise ValidationError(f"cannot serialize {type(channel).__name__}")
    return {"format_version": FORMAT_VERSION, "kind": kind, "num_inputs": channel.input_size,
            "num_outputs1": channel.out1_size, "num_outputs2": channel.out2_size, **body}


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


def save_channel(channel, path) -> None:
    Path(path).write_text(dumps_canonical(channel_to_dict(channel)))
