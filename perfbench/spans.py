"""Spans around calls into the layers of bcc, and their per-layer totals.

A traced instance process replaces public functions of bcc, at the module
attribute where each caller looks them up, with a wrapper that records one
span: its name, start, end, parent span and the counts taken from the
return value.  Spans stay in memory and are written once, when the instance
ends.  The benchmark's parent process turns them into self times (a span's
duration minus the part covered by its child spans) and per-layer metrics.

Nothing under src/ is edited: the wrappers live only in the traced process.
"""

from __future__ import annotations

import functools
import math
import os
import time
from itertools import permutations

clock_ns = functools.partial(time.clock_gettime_ns, time.CLOCK_MONOTONIC)
"""System-wide monotonic clock, so parent and child timestamps compare."""


class Tracer:
    """In-memory span recorder for one single-threaded instance process."""

    def __init__(self):
        self.spans = []   # [name, start_ns, end_ns, parent_index, counts]
        self._stack = []

    def open(self, name: str, start: int | None = None) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, clock_ns() if start is None else start, None, parent, {}])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self, index: int, end: int | None = None) -> None:
        if self._stack.pop() != index:
            raise RuntimeError(f"span {self.spans[index][0]} closed out of order")
        self.spans[index][2] = clock_ns() if end is None else end

    def inside(self, name: str) -> bool:
        return any(self.spans[i][0] == name for i in self._stack)

    def wrap(self, owner, attr: str, name, counts=None) -> None:
        """Replace owner.attr by a traced wrapper.

        name is a span name or a function of the call's (args, kwargs);
        counts maps (result, args, kwargs) to a dict of numbers.
        """
        fn = getattr(owner, attr)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self.open(name(args, kwargs) if callable(name) else name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.close(span)
            if counts is not None:
                self.spans[span][4].update(counts(out, args, kwargs))
            return out

        setattr(owner, attr, traced)


def partitions_at_most(n: int, k: int) -> int:
    """Set partitions of n labelled items into at most k unlabelled parts."""
    row = [1] + [0] * k          # Stirling numbers S(i, j) for the current i
    for i in range(1, n + 1):
        for j in range(min(i, k), 0, -1):
            row[j] = j * row[j] + row[j - 1]
        row[0] = 0
    return sum(row[1:]) if n else 1


def enum_redundant(n1: int, n2: int, k1: int, k2: int) -> int:
    """Decoder pairs that only relabel the messages of an earlier pair."""
    return k1**n1 * k2**n2 - partitions_at_most(n1, k1) * partitions_at_most(n2, k2)


def _cycle_lengths(perm) -> list[int]:
    seen, out = set(), []
    for start in range(len(perm)):
        length, j = 0, start
        while j not in seen:
            seen.add(j)
            j = perm[j]
            length += 1
        if length:
            out.append(length)
    return out


def encoder_orbits(nx: int, k1: int, k2: int) -> int:
    """Encoders up to row and column permutation of the k1 x k2 message grid.

    Burnside: average, over row permutation s and column permutation t, of
    nx ** (cycles of (s, t) on the grid); a pair of cycles of lengths a and b
    splits into gcd(a, b) cycles of length lcm(a, b).
    """
    total = 0
    for s in permutations(range(k1)):
        for t in permutations(range(k2)):
            cycles = sum(math.gcd(a, b) for a in _cycle_lengths(s)
                         for b in _cycle_lengths(t))
            total += nx**cycles
    return total // (math.factorial(k1) * math.factorial(k2))


def install(tr: Tracer) -> None:
    """Wrap the public functions of each layer at the names callers use."""
    import bcc.approx as approx
    import bcc.channels as channels
    import bcc.cli as cli
    import bcc.exact as exact
    import bcc.files as files
    import bcc.nsprograms as nsprograms

    def enum_counts(out, args, kwargs):
        source, k1, k2 = args[:3]
        n1, n2 = ((source.left_size, source.right_size) if hasattr(source, "left_size")
                  else (source.out1_size, source.out2_size))
        return {"candidates": out.enumerated,
                "redundant": enum_redundant(n1, n2, k1, k2)}

    def ns_dec_counts(out, args, kwargs):
        w, k1, k2 = args[:3]
        return {"encoders": out.enumerated,
                "redundant": out.enumerated - encoder_orbits(w.input_size, k1, k2)}

    def simplex_name(args, kwargs):
        exact_mode = kwargs.get("exact", args[1] if len(args) > 1 else False)
        return "simplex.exact" if exact_mode else "simplex.float"

    def simplex_counts(out, args, kwargs):
        return {"pivots": out.pivots, "tableau_cells": args[0].num_rows * args[0].num_vars}

    def load_counts(out, args, kwargs):
        return {"bytes_read": os.path.getsize(args[0])}

    def table_counts(out, args, kwargs):
        return {"dense_entries": out.probs.size}

    # approximate_dqg scores the derandomized left partition just before it
    # samples; a sample is useful when it beats that score.
    derandomized = {}

    def qec_counts(out, args, kwargs):
        if not tr.inside("approx.sampling"):
            derandomized["value"] = out
        return {}

    def sampling_counts(out, args, kwargs):
        base = derandomized.get("value", -1)
        return {"samples": len(out), "useful": sum(1 for value, _ in out if value > base)}

    for owner in (cli, files):
        tr.wrap(owner, "load_channel", "files.load", load_counts)
    for owner in (cli, channels):
        tr.wrap(owner, "channel_graph", "graphs.build")
    for owner in (cli, approx):
        tr.wrap(owner, "approximate_dqg", "approx")
    for owner in (cli, exact):
        tr.wrap(owner, "code_from_partitions", "exact.code_from_partitions")
    tr.wrap(cli, "main", "cli")
    tr.wrap(cli, "to_deterministic", "channels.to_deterministic")
    tr.wrap(cli, "tensor_power", "channels.tensor_power")
    tr.wrap(cli, "joint_success", "exact.joint_success")
    tr.wrap(channels.DeterministicChannel, "to_table", "channels.to_table", table_counts)
    for attr in ("solve_joint", "solve_sum", "solve_dqg"):
        tr.wrap(cli, attr, "exact.enum", enum_counts)
    tr.wrap(cli, "solve_ns_dec", "exact.ns_dec", ns_dec_counts)
    tr.wrap(cli, "solve_ns", "nsprograms.solve")
    tr.wrap(exact, "build_decoder_box_lp", "nsprograms.build")
    tr.wrap(exact, "lp_solve", simplex_name, simplex_counts)
    tr.wrap(nsprograms, "build_ns_joint", "nsprograms.build")
    tr.wrap(nsprograms, "build_ns_sum", "nsprograms.build")
    tr.wrap(nsprograms, "lp_solve", simplex_name, simplex_counts)
    tr.wrap(nsprograms, "extract_ns_solution", "nsprograms.extract")
    tr.wrap(approx, "greedy_welfare", "approx.greedy")
    tr.wrap(approx, "derandomize_left", "approx.derandomize")
    tr.wrap(approx, "_sample_chunk", "approx.sampling", sampling_counts)
    tr.wrap(approx, "quotient_edge_count", "graphs.quotient_edge_count", qec_counts)


def self_times(spans) -> list[float]:
    """Seconds of each span not covered by its children.

    Raises ValueError when a child leaves its parent's interval or two
    siblings overlap, so that self times always add up to the root span.
    """
    children = [[] for _ in spans]
    for i, (_, _, _, parent, _) in enumerate(spans):
        if parent >= 0:
            children[parent].append(i)
    out = []
    for i, (name, start, end, _, _) in enumerate(spans):
        covered, last = 0, start
        for c in sorted(children[i], key=lambda c: spans[c][1]):
            c_start, c_end = spans[c][1], spans[c][2]
            if c_start < last or c_end > end or c_end < c_start:
                raise ValueError(f"span {spans[c][0]} is not nested in {name}")
            covered += c_end - c_start
            last = c_end
        out.append((end - start - covered) / 1e9)
    return out


def summarize(spans) -> dict:
    """Per span name: calls, self seconds and summed counts for one instance."""
    out = {}
    for (name, start, end, _, counts), self_s in zip(spans, self_times(spans)):
        entry = out.setdefault(name, {"calls": 0, "self_s": 0.0, "wall_s": 0.0})
        entry["calls"] += 1
        entry["self_s"] += self_s
        entry["wall_s"] += (end - start) / 1e9
        for key, value in counts.items():
            entry[key] = entry.get(key, 0) + value
    return out


DETERMINISTIC_COUNTS = {
    "pivots": ("simplex.float", "simplex.exact"),
    "tableau_cells": ("simplex.float", "simplex.exact"),
    "candidates": ("exact.enum",),
    "encoders": ("exact.ns_dec",),
    "samples": ("approx.sampling",),
    "dense_entries": ("channels.to_table",),
}
"""Counts that must repeat exactly for the same instance on the same code."""


def instance_counts(summary: dict) -> dict:
    return {key: sum(summary.get(name, {}).get(key, 0) for name in names)
            for key, names in DETERMINISTIC_COUNTS.items()}


def _span(summaries, name, key="self_s"):
    return sum(s.get(name, {}).get(key, 0) for s in summaries)


def _share(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def layer_metrics(summaries: list[dict]) -> dict:
    """Per-layer metrics as means per traced instance; shares over the run."""
    n = len(summaries)
    if not n:
        return {}

    def mean(name, key="self_s"):
        return _span(summaries, name, key) / n

    out = {}
    for mode in ("float", "exact"):
        name = f"simplex.{mode}"
        out[f"{name}.self_s"] = mean(name)
        out[f"{name}.calls"] = mean(name, "calls")
        out[f"{name}.pivots"] = mean(name, "pivots")
        out[f"{name}.tableau_cells"] = mean(name, "tableau_cells")
    out["nsprograms.build_s"] = mean("nsprograms.build")
    out["nsprograms.builds"] = mean("nsprograms.build", "calls")
    out["nsprograms.extract_s"] = mean("nsprograms.extract")
    out["exact.enum.self_s"] = mean("exact.enum")
    out["exact.enum.candidates"] = mean("exact.enum", "candidates")
    out["exact.enum.redundant_share"] = _share(
        _span(summaries, "exact.enum", "redundant"),
        _span(summaries, "exact.enum", "candidates"))
    out["exact.ns_dec.self_s"] = mean("exact.ns_dec")
    out["exact.ns_dec.encoders"] = mean("exact.ns_dec", "encoders")
    out["exact.ns_dec.redundant_share"] = _share(
        _span(summaries, "exact.ns_dec", "redundant"),
        _span(summaries, "exact.ns_dec", "encoders"))
    out["exact.joint_success_s"] = mean("exact.joint_success")
    out["channels.to_table_s"] = mean("channels.to_table")
    out["channels.dense_entries"] = mean("channels.to_table", "dense_entries")
    out["channels.tensor_power_s"] = mean("channels.tensor_power")
    out["files.load_s"] = mean("files.load")
    out["files.bytes_read"] = mean("files.load", "bytes_read")
    out["graphs.build_s"] = mean("graphs.build")
    out["graphs.quotient_edge_count.self_s"] = mean("graphs.quotient_edge_count")
    out["graphs.quotient_edge_count.calls"] = mean("graphs.quotient_edge_count", "calls")
    out["approx.self_s"] = mean("approx")
    out["approx.greedy_s"] = mean("approx.greedy")
    out["approx.greedy_calls"] = mean("approx.greedy", "calls")
    out["approx.derandomize_s"] = mean("approx.derandomize")
    out["approx.sampling_s"] = mean("approx.sampling")
    out["approx.samples"] = mean("approx.sampling", "samples")
    out["approx.useful_sample_share"] = _share(
        _span(summaries, "approx.sampling", "useful"),
        _span(summaries, "approx.sampling", "samples"))
    out["cli.self_s"] = mean("cli")
    out["python.startup_s"] = mean("python.startup") + mean("python.import")
    out["python.exit_s"] = mean("python.exit")
    out["instance.wall_s"] = mean("instance", "wall_s") + mean("python.exit")
    return out


def time_shares(summaries: list[dict]) -> dict:
    """Share of all traced instance time spent in each span name's self time."""
    total = sum(entry["self_s"] for s in summaries for entry in s.values())
    names = sorted({name for s in summaries for name in s})
    return {name: _share(_span(summaries, name), total) for name in names}
