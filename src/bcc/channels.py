"""Two-receiver broadcast channels as dense probability tables.

A channel W(y1 y2 | x) is stored as a float array of shape (|X|, |Y1|, |Y2|)
whose rows (fixed x) are probability distributions.  Deterministic channels
get a compact representation mapping each input to its output pair, plus the
bipartite graph on Y1 x Y2 whose edges are the reachable output pairs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatchError,
    NegativeProbabilityError,
    NotDeterministicError,
    RowNotNormalizedError,
    SizeCapExceededError,
    ValidationError,
)
from .graphs import BipartiteGraph, _check_cap, _index_sizes, distinct_values

NORMALIZATION_TOL = 1e-9
POINT_MASS_TOL = 1e-12
DEFAULT_ENTRY_CAP = 10**8


@dataclass(frozen=True)
class ChannelTable:
    """Dense channel table, entries probs[x, y1, y2], rows normalized."""

    input_size: int
    out1_size: int
    out2_size: int
    probs: np.ndarray

    def __post_init__(self):
        _index_sizes(self, "input_size", "out1_size", "out2_size")
        if self.probs.shape != (self.input_size, self.out1_size, self.out2_size):
            raise DimensionMismatchError(
                f"table shape {self.probs.shape} does not match declared sizes"
            )


@dataclass(frozen=True)
class MarginalTable:
    """Single-receiver view, entries probs[x, y]."""

    input_size: int
    out_size: int
    probs: np.ndarray


@dataclass(frozen=True, eq=False)
class DeterministicChannel:
    """Channel where input x always produces the output pair pairs[x] = (y1, y2).

    pairs is copied to a read-only (input_size, 2) np.intp array.  Two channels
    are equal when their sizes and pairs are."""

    input_size: int
    out1_size: int
    out2_size: int
    pairs: np.ndarray

    def __post_init__(self):
        _index_sizes(self, "input_size", "out1_size", "out2_size")
        pairs = np.array(self.pairs)
        if pairs.shape != (self.input_size, 2):
            raise DimensionMismatchError("need one output pair per input")
        bad = np.flatnonzero(((pairs < 0) | (pairs >= (self.out1_size, self.out2_size))).any(1))
        if len(bad):
            raise ValidationError(
                f"output pair {tuple(pairs[bad[0]].tolist())} of input {bad[0]} out of range")
        if pairs.dtype.kind not in "iu":
            raise ValidationError("output pairs must be integers")
        pairs = pairs.astype(np.intp, copy=False)
        pairs.flags.writeable = False
        object.__setattr__(self, "pairs", pairs)

    @classmethod
    def _from_checked(cls, input_size: int, out1_size: int, out2_size: int,
                      pairs: np.ndarray) -> DeterministicChannel:
        """A channel that keeps pairs, an (input_size, 2) np.intp array whose
        ranges the caller has checked, made read-only: no copy, no second check."""
        self = object.__new__(cls)
        for name, value in (("input_size", input_size), ("out1_size", out1_size),
                            ("out2_size", out2_size), ("pairs", pairs)):
            object.__setattr__(self, name, value)
        pairs.flags.writeable = False
        return self

    def __eq__(self, other):
        if not isinstance(other, DeterministicChannel):
            return NotImplemented
        return ((self.input_size, self.out1_size, self.out2_size)
                == (other.input_size, other.out1_size, other.out2_size)
                and np.array_equal(self.pairs, other.pairs))

    def to_table(self) -> ChannelTable:
        """The dense 0/1 table, refused above DEFAULT_ENTRY_CAP entries.  The pairs
        are checked, so its rows need no validation."""
        _check_cap(SizeCapExceededError, DEFAULT_ENTRY_CAP,
                   (self.input_size * self.out1_size * self.out2_size, 1))
        probs = np.zeros((self.input_size, self.out1_size, self.out2_size))
        probs[np.arange(self.input_size), self.pairs[:, 0], self.pairs[:, 1]] = 1.0
        probs.flags.writeable = False
        return ChannelTable(self.input_size, self.out1_size, self.out2_size, probs)


def validate_channel(table) -> ChannelTable:
    """Check shape, finiteness, nonnegativity, and row normalization within
    NORMALIZATION_TOL; freeze the array."""
    probs = np.asarray(table, dtype=float)
    if probs.ndim != 3:
        raise DimensionMismatchError(f"expected a 3d table, got ndim={probs.ndim}")
    nx, n1, n2 = probs.shape
    if min(nx, n1, n2) < 1:
        raise DimensionMismatchError("alphabets must be nonempty")
    bad = np.argwhere(~np.isfinite(probs))
    if len(bad):
        x, y1, y2 = bad[0]
        raise ValidationError(
            f"entry {float(probs[x, y1, y2])!r} at (x={x}, y1={y1}, y2={y2}) is not finite")
    neg = np.argwhere(probs < -NORMALIZATION_TOL)
    if len(neg):
        x, y1, y2 = neg[0]
        raise NegativeProbabilityError(int(x), int(y1), int(y2), float(probs[x, y1, y2]))
    row_sums = probs.sum(axis=(1, 2))
    bad = np.argwhere(np.abs(row_sums - 1.0) > NORMALIZATION_TOL)
    if len(bad):
        x = int(bad[0][0])
        raise RowNotNormalizedError(x, float(row_sums[x]))
    probs = probs.copy()
    probs[probs < 0] = 0.0  # clip the tolerated noise
    probs.setflags(write=False)
    return ChannelTable(nx, n1, n2, probs)


def marginals(w: ChannelTable) -> tuple[MarginalTable, MarginalTable]:
    """Per-receiver marginal tables W1(y1|x) and W2(y2|x)."""
    m1 = w.probs.sum(axis=2)
    m2 = w.probs.sum(axis=1)
    m1.setflags(write=False)
    m2.setflags(write=False)
    return (MarginalTable(w.input_size, w.out1_size, m1),
            MarginalTable(w.input_size, w.out2_size, m2))


def tensor_power(w: ChannelTable, n: int, cap: int = DEFAULT_ENTRY_CAP) -> ChannelTable:
    """n independent uses of w as one channel, refused above cap entries.

    Composite indices are row-major over the factors with position 0 most
    significant, so input (x_0, ..., x_{n-1}) becomes sum x_i |X|^(n-1-i).
    """
    if n < 1:
        raise ValidationError("tensor power needs n >= 1")
    _check_cap(SizeCapExceededError, cap, (w.input_size * w.out1_size * w.out2_size, n))
    result = w.probs
    for _ in range(n - 1):
        result = np.einsum("abc,def->adbecf", result, w.probs).reshape(
            result.shape[0] * w.input_size,
            result.shape[1] * w.out1_size,
            result.shape[2] * w.out2_size,
        )
    return validate_channel(result)


def to_deterministic(w: ChannelTable) -> DeterministicChannel:
    """Recover the pair map of a channel whose rows are 0/1 point masses: one entry
    within tol = POINT_MASS_TOL of 1, all others within tol of 0.  As tol < 1/2,
    that is a row whose largest entry is within tol of 1, the only one above
    tol, and none below -tol."""
    flat, tol = w.probs.reshape(w.input_size, -1), POINT_MASS_TOL
    peak = flat.argmax(axis=1)
    point_mass = ((np.abs(flat[np.arange(w.input_size), peak] - 1.0) <= tol)
                  & (np.count_nonzero(flat > tol, axis=1) == 1)
                  & (flat.min(axis=1) >= -tol))
    if not point_mass.all():
        raise NotDeterministicError(int(np.argmin(point_mass)))
    return DeterministicChannel(w.input_size, w.out1_size, w.out2_size,
                                np.stack(np.divmod(peak, w.out2_size), axis=1))


def channel_graph(dc: DeterministicChannel) -> BipartiteGraph:
    """Bipartite graph on Y1 x Y2 with an edge per reachable output pair."""
    codes = distinct_values(dc.pairs[:, 0] * dc.out2_size + dc.pairs[:, 1])
    return BipartiteGraph(dc.out1_size, dc.out2_size, np.divmod(codes, dc.out2_size))
