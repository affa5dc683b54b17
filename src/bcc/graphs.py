"""Bipartite graphs, vertex partitions, and quotient-graph counting.

The central quantity is the number of edges of the quotient graph: merge the
left side along one partition and the right side along another, drop parallel
edges, and count what is left.  Everything here works on plain index-based
vertices.  Quotient counting scatters each edge's part pair into a boolean
table over the k1 k2 part pairs, using the graph's cached edge arrays.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    BadPartIndexError,
    EnumerationCapExceededError,
    SideMismatchError,
    ValidationError,
)

DEFAULT_ENUM_CAP = 10**7


@dataclass(frozen=True)
class BipartiteGraph:
    """Bipartite graph on [left_size] x [right_size] with sorted adjacency."""

    left_size: int
    right_size: int
    adjacency: tuple[tuple[int, ...], ...]  # adjacency[u] = sorted right neighbors

    def __post_init__(self):
        if self.left_size < 0 or self.right_size < 0:
            raise ValidationError("vertex counts must be nonnegative")
        if len(self.adjacency) != self.left_size:
            raise ValidationError("adjacency length must equal left_size")
        for u, nbrs in enumerate(self.adjacency):
            if any(v < 0 or v >= self.right_size for v in nbrs):
                raise ValidationError(f"neighbor out of range at left vertex {u}")
            if any(a >= b for a, b in zip(nbrs, nbrs[1:])):
                raise ValidationError(f"neighbors of {u} must be sorted and distinct")

    @cached_property
    def right_adjacency(self) -> tuple[tuple[int, ...], ...]:
        nbrs = [[] for _ in range(self.right_size)]
        for u, row in enumerate(self.adjacency):
            for v in row:
                nbrs[v].append(u)
        return tuple(tuple(row) for row in nbrs)

    @cached_property
    def left_masks(self) -> tuple[int, ...]:
        """For each right vertex, a bitmask of its left neighbors."""
        masks = [0] * self.right_size
        for u, row in enumerate(self.adjacency):
            for v in row:
                masks[v] |= 1 << u
        return tuple(masks)

    @cached_property
    def edge_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """Edge list as read-only arrays (U, V) of left and right ends, in
        adjacency order: U ascending, each left vertex's neighbors sorted."""
        degrees = [len(row) for row in self.adjacency]
        left = np.repeat(np.arange(self.left_size, dtype=np.intp), degrees)
        right = np.fromiter(itertools.chain.from_iterable(self.adjacency),
                            dtype=np.intp, count=len(left))
        left.flags.writeable = right.flags.writeable = False
        return left, right

    def edges(self):
        for u, row in enumerate(self.adjacency):
            for v in row:
                yield u, v

    @property
    def edge_count(self) -> int:
        return sum(len(row) for row in self.adjacency)

    def degree_left(self, u: int) -> int:
        return len(self.adjacency[u])

    def degree_right(self, v: int) -> int:
        return len(self.right_adjacency[v])


def make_graph(left_size, right_size, edges) -> BipartiteGraph:
    """Build a graph from an iterable of (left, right) pairs, deduplicated."""
    rows = [set() for _ in range(left_size)]
    for u, v in edges:
        if not (0 <= u < left_size and 0 <= v < right_size):
            raise ValidationError(f"edge ({u}, {v}) out of range")
        rows[u].add(v)
    return BipartiteGraph(left_size, right_size, tuple(tuple(sorted(r)) for r in rows))


@dataclass(frozen=True)
class Partition:
    """Partition of range(ground_size) into num_parts labeled, possibly empty parts."""

    ground_size: int
    num_parts: int
    assignment: tuple[int, ...]  # assignment[i] = part index of element i

    def __post_init__(self):
        if self.num_parts < 1:
            raise ValidationError("num_parts must be >= 1")
        if len(self.assignment) != self.ground_size:
            raise ValidationError("assignment length must equal ground_size")
        if any(a < 0 or a >= self.num_parts for a in self.assignment):
            raise ValidationError("part index out of range")

    def part(self, index: int) -> tuple[int, ...]:
        if not (0 <= index < self.num_parts):
            raise BadPartIndexError(f"part {index} not in range({self.num_parts})")
        return tuple(i for i, a in enumerate(self.assignment) if a == index)


def singleton_partition(ground_size: int, num_parts: int) -> Partition:
    """Element i goes to part i; requires num_parts >= ground_size."""
    if num_parts < ground_size:
        raise ValidationError("need at least one part per element")
    return Partition(ground_size, num_parts, tuple(range(ground_size)))


def merged_partition(ground_size: int, num_parts: int = 1) -> Partition:
    return Partition(ground_size, num_parts, (0,) * ground_size)


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


def quotient_degree(g: BipartiteGraph, p1: Partition, p2: Partition, side: str, part: int) -> int:
    """Degree of one part in the quotient graph (distinct opposite parts hit)."""
    _check_sides(g, p1, p2)
    if side not in ("left", "right"):
        raise ValidationError("side must be 'left' or 'right'")
    own = p1 if side == "left" else p2
    if not (0 <= part < own.num_parts):
        raise BadPartIndexError(f"part {part} not in range({own.num_parts})")
    mask = 0
    if side == "left":
        for u, row in enumerate(g.adjacency):
            if p1.assignment[u] == part:
                for v in row:
                    mask |= 1 << p2.assignment[v]
    else:
        for v, row in enumerate(g.right_adjacency):
            if p2.assignment[v] == part:
                for u in row:
                    mask |= 1 << p1.assignment[u]
    return mask.bit_count()


def distinct_left_neighbors(g: BipartiteGraph, right_subset) -> int:
    """Count left vertices adjacent to the given set of right vertices."""
    mask = 0
    for v in right_subset:
        if not (0 <= v < g.right_size):
            raise ValidationError(f"right vertex {v} out of range")
        mask |= g.left_masks[v]
    return mask.bit_count()


def enumerate_partitions(ground_size: int, num_parts: int, cap: int = DEFAULT_ENUM_CAP):
    """Yield every partition of range(ground_size) into num_parts labeled parts.

    Streams in lexicographic order of the assignment tuple; refuses upfront
    when num_parts ** ground_size exceeds the cap.
    """
    total = num_parts**ground_size
    if total > cap:
        raise EnumerationCapExceededError(total, cap)
    for assignment in itertools.product(range(num_parts), repeat=ground_size):
        yield Partition(ground_size, num_parts, assignment)
