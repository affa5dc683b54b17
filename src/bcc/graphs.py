"""Bipartite graphs, vertex partitions, and quotient-graph counting.

The central quantity is the number of edges of the quotient graph: merge the
left side along one partition and the right side along another, drop parallel
edges, and count what is left.  Everything here works on plain index-based
vertices.  A graph is stored only as its edge list, two integer arrays (U, V)
sorted by (left, right) end; degrees, neighbourhoods and quotient counts are
numpy reductions over them: bincounts, sorted distinct values, or a scatter
into a boolean table over the k1 k2 part pairs.

Every integer argument of the package (a count, size, seed or cap), and
every size and label of the graph, channel and partition records, goes
through _as_int or _as_ints here: a Python or numpy integer is kept as a
Python int, anything else raises BadParametersError for an argument or
ValidationError for a record field.
"""

from __future__ import annotations

import contextlib
import itertools
import math
import operator
from dataclasses import dataclass

import numpy as np

from .errors import (
    BadParametersError,
    EnumerationCapExceededError,
    SideMismatchError,
    ValidationError,
)

DEFAULT_ENUM_CAP = 10**7
# The defaults of approx.approximate_dqg and hardness.build_instance live here,
# beside the enumeration cap, so that the command-line parser can show them
# without importing either module; both re-export them.
DEFAULT_NUM_SAMPLES = 0
DEFAULT_DELTA = 0.25


def _as_int(value, name: str, low: int = 1, error=BadParametersError) -> int:
    """value as a Python int, so a numpy integer works as one; a value that is
    not an integer, or is below low, raises error."""
    try:
        value = operator.index(value)
    except TypeError:
        raise error(f"{name} takes integers only, got {type(value).__name__}") from None
    if value < low:
        raise error(f"{name} must be >= {low}, got {value}")
    return value


def _as_ints(values, name: str, error=BadParametersError) -> tuple[int, ...]:
    """Each of values as a Python int, in one pass; error if one is not an integer."""
    try:
        return tuple(map(operator.index, values))
    except TypeError:
        raise error(f"{name} take integers only") from None


def _index_sizes(obj, *names: str, low: int = 0) -> None:
    """Store each named size of a frozen dataclass as a Python int of at least low."""
    for name in names:
        object.__setattr__(obj, name, _as_int(getattr(obj, name), name, low, ValidationError))


def _check_k(k1, k2) -> tuple[int, int]:
    """The message counts as Python ints of at least one."""
    return _as_int(k1, "k1"), _as_int(k2, "k2")


def _check_cap(error, cap: int, *powers) -> int:
    """Return prod(base**exponent for base, exponent in powers), or raise
    error(count, cap) above the cap; a cap that is not an integer >= 0 is
    BadParametersError.

    The count is bounded by its bit length before it is built.  One of 2^15
    bits or more (Python prints an int of at most 4300 digits), or one too
    long to print, is written as its powers, such as 3**10000."""
    cap = _as_int(cap, "cap", 0)
    powers = [(int(b), int(e)) for b, e in powers]
    low_bits = sum(e * (b.bit_length() - 1) for b, e in powers)  # count >= 2**low_bits
    if low_bits < max(1 << 15, cap.bit_length()):
        count = math.prod(b**e for b, e in powers)
        if count <= cap:
            return count
        with contextlib.suppress(ValueError):  # raised when the message cannot print count
            raise error(count, cap)
    raise error(" * ".join(f"{b}**{e}" for b, e in powers), cap)


def distinct_values(a: np.ndarray) -> np.ndarray:
    """Sorted distinct values of a 1-d array.  Sorting and masking repeats is
    about 20x faster than np.unique, which hashes first (numpy 2.4)."""
    a = np.sort(a)
    keep = np.ones(len(a), dtype=bool)
    keep[1:] = a[1:] != a[:-1]
    return a[keep]


@dataclass(frozen=True, eq=False)
class BipartiteGraph:
    """Bipartite graph on [left_size] x [right_size], stored as its edge list.

    edge_arrays = (U, V): edge i joins left vertex U[i] to right vertex V[i].
    The edges are distinct and sorted by (left, right) end, so U ascends and
    each left vertex's neighbours ascend.  The constructor copies both arrays
    to read-only np.intp arrays.  Graphs compare and hash by identity.
    """

    left_size: int
    right_size: int
    edge_arrays: tuple[np.ndarray, np.ndarray]

    def __post_init__(self):
        _index_sizes(self, "left_size", "right_size")
        U, V = (np.array(a, dtype=np.intp) for a in self.edge_arrays)
        if U.ndim != 1 or U.shape != V.shape:
            raise ValidationError("edge arrays must be 1-d and of equal length")
        if len(U) and (min(U.min(), V.min()) < 0 or U.max() >= self.left_size
                       or V.max() >= self.right_size):
            raise ValidationError("edge end out of range")
        code = U * self.right_size + V
        if np.any(code[1:] <= code[:-1]):
            raise ValidationError("edges must be sorted by (left, right) and distinct")
        U.flags.writeable = V.flags.writeable = False
        object.__setattr__(self, "edge_arrays", (U, V))

    def edges(self):
        """Iterator over the (left, right) pairs as Python ints, in sorted order."""
        U, V = self.edge_arrays
        return zip(U.tolist(), V.tolist())


def make_graph(left_size, right_size, edges) -> BipartiteGraph:
    """Build a graph from an iterable of (left, right) pairs, deduplicated."""
    pairs = np.asarray(list(edges))
    if len(pairs) == 0:
        pairs = pairs.astype(np.intp).reshape(0, 2)
    if pairs.ndim != 2 or pairs.shape[1] != 2 or pairs.dtype.kind not in "iu":
        raise ValidationError("edges must be (left, right) integer pairs")
    u, v = pairs.astype(np.intp, copy=False).T
    bad = (u < 0) | (u >= left_size) | (v < 0) | (v >= right_size)
    if bad.any():
        u0, v0 = pairs[np.argmax(bad)].tolist()
        raise ValidationError(f"edge ({u0}, {v0}) out of range")
    return BipartiteGraph(left_size, right_size,
                          np.divmod(distinct_values(u * right_size + v), right_size))


@dataclass(frozen=True)
class Partition:
    """Partition of range(ground_size) into num_parts labeled, possibly empty parts."""

    ground_size: int
    num_parts: int
    assignment: tuple[int, ...]  # assignment[i] = part index of element i

    def __post_init__(self):
        _index_sizes(self, "ground_size")
        _index_sizes(self, "num_parts", low=1)
        object.__setattr__(self, "assignment",
                           _as_ints(self.assignment, "part labels", ValidationError))
        if len(self.assignment) != self.ground_size:
            raise ValidationError("assignment length must equal ground_size")
        if self.assignment and (min(self.assignment) < 0
                                or max(self.assignment) >= self.num_parts):
            raise ValidationError("part index out of range")


def singleton_partition(ground_size: int, num_parts: int) -> Partition:
    """Element i goes to part i; requires num_parts >= ground_size."""
    if num_parts < ground_size:
        raise ValidationError("need at least one part per element")
    return Partition(ground_size, num_parts, tuple(range(ground_size)))


def _check_sides(g: BipartiteGraph, p1: Partition, p2: Partition):
    if p1.ground_size != g.left_size:
        raise SideMismatchError(
            f"left partition covers {p1.ground_size} elements, graph has {g.left_size}"
        )
    if p2.ground_size != g.right_size:
        raise SideMismatchError(
            f"right partition covers {p2.ground_size} elements, graph has {g.right_size}"
        )


def quotient_edge_count(g: BipartiteGraph, p1: Partition, p2: Partition) -> int:
    """Number of distinct part pairs (i1, i2) joined by at least one edge."""
    _check_sides(g, p1, p2)
    U, V = g.edge_arrays
    k2 = p2.num_parts
    a1 = np.asarray(p1.assignment, dtype=np.intp)
    a2 = np.asarray(p2.assignment, dtype=np.intp)
    hit = np.zeros(p1.num_parts * k2, dtype=bool)
    hit[a1[U] * k2 + a2[V]] = True
    return int(np.count_nonzero(hit))


def distinct_left_neighbors(g: BipartiteGraph, right_subset) -> int:
    """Count left vertices adjacent to the given set of right vertices."""
    subset = np.array(_as_ints(right_subset, "right vertices", ValidationError), dtype=np.intp)
    bad = (subset < 0) | (subset >= g.right_size)
    if bad.any():
        raise ValidationError(f"right vertex {subset[np.argmax(bad)]} out of range")
    chosen = np.zeros(g.right_size, dtype=bool)
    chosen[subset] = True
    U, V = g.edge_arrays
    return len(distinct_values(U[chosen[V]]))


def enumerate_partitions(ground_size: int, num_parts: int, cap: int = DEFAULT_ENUM_CAP):
    """An iterator over every partition of range(ground_size) into num_parts
    labeled parts, in lexicographic order of the assignment tuple.  Refused at
    the call when num_parts ** ground_size exceeds the cap.
    """
    ground_size = _as_int(ground_size, "ground_size", 0)
    num_parts = _as_int(num_parts, "num_parts")
    _check_cap(EnumerationCapExceededError, cap, (num_parts, ground_size))
    return (Partition(ground_size, num_parts, assignment)
            for assignment in itertools.product(range(num_parts), repeat=ground_size))
