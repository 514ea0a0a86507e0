"""Synthetic road networks and the landmark embedding of their nodes.

A network is a connected, undirected, integer-weighted graph plus a list of
landmark subsets. Node ``u`` embeds to the vector whose i-th coordinate is
the shortest-path distance from ``u`` to the nearest member of subset i;
the Chebyshev distance between two such vectors never exceeds the true
road distance, which is what makes it usable as a matching metric.

Every sweep is a Dijkstra run over a bucket queue: a dict from each
tentative distance to the nodes that reached it, and a heap of the
distinct distances (after Dial, CACM 1969, but keyed by a dict instead of
an array indexed by distance). Nodes at equal distance share one heap
entry, and memory stays linear in the network however large the weights.
The embedding is built column by column, one sweep per landmark subset,
and transposed into rows in one pass.

The network diameter, which sizes the block count ``m``, is exact but not
all-pairs: each Dijkstra sweep from a node v yields its eccentricity e, and
the triangle inequality bounds every other node w's eccentricity between
``max(d(v, w), e - d(v, w))`` and ``e + d(v, w)``. Nodes whose upper bound
cannot beat the largest eccentricity seen so far are dropped, so a grid
usually needs a few dozen sweeps instead of one per node, and never more
than one per node. The column of each singleton landmark subset in the
embedding is such a sweep, so the diameter builds the embedding if it is
not built yet and seeds the bounds of every node from all of those
columns in one pass, or from one sweep from node 0 if no subset is a
single node. The bounding sweeps start from there, whatever was called
first.
"""

from __future__ import annotations

import heapq
import random
import sys
from operator import index
from typing import Iterable, Sequence

from .errors import read_int

RneVector = tuple[int, ...]

_UNREACHED = -1


class RoadNetwork:
    """Immutable snapshot of a weighted undirected graph with landmarks.

    Construction validates edges, checks connectivity and freezes the
    adjacency structure. The node count, every edge field and every
    landmark id are read with ``operator.index``, so integers and
    int-likes such as numpy integers pass and anything else is refused
    with ``ValueError`` rather than truncated. Embedding and diameter
    caches fill lazily but idempotently, so concurrent readers are safe.
    """

    def __init__(
        self,
        num_nodes: int,
        edges: Iterable[tuple[int, int, int]],
        landmark_subsets: Iterable[Iterable[int]],
    ) -> None:
        num_nodes = read_int("node count", num_nodes)
        if num_nodes < 1:
            raise ValueError("network needs at least one node")
        self.num_nodes = num_nodes
        checked = []
        adjacency: list[list[tuple[int, int]]] = [[] for _ in range(num_nodes)]
        for edge in edges:
            try:
                u, v, w = map(index, edge)
            except TypeError:
                raise ValueError(f"edge {edge!r} has a field that is not an integer") from None
            if not (0 <= u < num_nodes and 0 <= v < num_nodes):
                raise ValueError(f"edge ({u}, {v}) references unknown node")
            if w < 0:
                raise ValueError(f"edge ({u}, {v}) has negative weight {w}")
            checked.append((u, v, w))
            adjacency[u].append((v, w))
            adjacency[v].append((u, w))
        self.edges = tuple(checked)
        self._adjacency = tuple(tuple(nbrs) for nbrs in adjacency)
        self._weight_sum = sum(w for _, _, w in self.edges)

        subsets = []
        for i, subset in enumerate(landmark_subsets):
            try:
                frozen = frozenset(map(index, subset))
            except TypeError:
                raise ValueError(
                    f"landmark subset {i} holds a node id that is not an integer"
                ) from None
            if not frozen:
                raise ValueError("landmark subsets must be non-empty")
            if any(not 0 <= s < num_nodes for s in frozen):
                raise ValueError("landmark subset references unknown node")
            subsets.append(frozen)
        if not subsets:
            raise ValueError("at least one landmark subset is required")
        self.landmark_subsets = tuple(subsets)

        if not self._is_connected():
            raise ValueError("network must be connected")

        self._embedding: tuple[RneVector, ...] | None = None
        self._diameter: int | None = None

    @property
    def dim(self) -> int:
        """Embedding dimension, one coordinate per landmark subset."""
        return len(self.landmark_subsets)

    def _is_connected(self) -> bool:
        seen = [False] * self.num_nodes
        stack = [0]
        seen[0] = True
        count = 1
        while stack:
            u = stack.pop()
            for v, _ in self._adjacency[u]:
                if not seen[v]:
                    seen[v] = True
                    count += 1
                    stack.append(v)
        return count == self.num_nodes

    def distances_from(self, sources: Iterable[int]) -> list[int]:
        """Multi-source Dijkstra; distance from each node to the nearest source.

        The queue is the bucket queue of the module docstring. A node joins
        one bucket per improvement and is settled from the bucket of its
        final distance; a zero-weight edge appends to the bucket being
        settled, which the loop over it then reaches.
        """
        start = list(sources)
        for s in start:
            if not 0 <= s < self.num_nodes:
                raise ValueError(f"unknown node {s}")
        if not start:
            return [_UNREACHED] * self.num_nodes
        # The network is connected, so a source reaches every node. Until
        # then a node reads one more than the weight sum, which no path
        # reaches, and a relaxation needs a single comparison.
        dist = [self._weight_sum + 1] * self.num_nodes
        for s in start:
            dist[s] = 0
        adjacency = self._adjacency
        buckets = {0: start}
        heap = [0]
        while heap:
            d = heapq.heappop(heap)
            for u in buckets[d]:
                if dist[u] == d:  # else improved since it was bucketed here
                    for v, w in adjacency[u]:
                        nd = d + w
                        if nd < dist[v]:
                            dist[v] = nd
                            bucket = buckets.get(nd)
                            if bucket is None:
                                buckets[nd] = [v]
                                heapq.heappush(heap, nd)
                            else:
                                bucket.append(v)
            del buckets[d]
        return dist

    def embedding_table(self) -> tuple[RneVector, ...]:
        """Embeddings of every node, built once and cached."""
        if self._embedding is None:
            columns = [self.distances_from(s) for s in self.landmark_subsets]
            self._embedding = tuple(zip(*columns))
        return self._embedding

    def diameter(self) -> int:
        """Largest shortest-path distance over all node pairs, computed once
        by bounding sweeps (see the module docstring) and cached."""
        if self._diameter is None:
            self._diameter = self._bounding_diameter(self._seed_sweeps())
        return self._diameter

    def _seed_sweeps(self) -> list[Sequence[int]]:
        """The single-source sweeps the bounds start from: the embedding's
        column of each singleton subset, or one sweep from node 0 if there
        is none. A multi-node subset's column is a distance to the nearest
        member, not a sweep."""
        columns = zip(*(self._embedding or self.embedding_table()))
        sweeps = [c for c, s in zip(columns, self.landmark_subsets) if len(s) == 1]
        return sweeps or [self.distances_from([0])]

    def _bounding_diameter(self, seeds: list[Sequence[int]]) -> int:
        # Eccentricity bounding (Takes & Kosters, CIKM 2011). The diameter
        # is the largest eccentricity, so a node whose upper bound is at most
        # the largest eccentricity seen so far cannot raise it and is closed.
        # Every sweep closes its own source, so after the seed sweeps there
        # are at most N more.
        #
        # The seed sweeps bound every node in one pass. A node is open after
        # it exactly when it would be after taking the seeds one at a time:
        # its upper bound only falls and the largest eccentricity only rises.
        eccs = [max(dist) for dist in seeds]
        best, smallest_ecc = max(eccs), min(eccs)
        if best >= 2 * smallest_ecc:
            return best  # no pair is farther apart than 2 * ecc(v) for any v
        farther = (map(e.__sub__, dist) for e, dist in zip(eccs, seeds))
        lower = list(map(max, *seeds, *farther))
        around = (map(e.__add__, dist) for e, dist in zip(eccs, seeds))
        upper = list(map(min, zip(*around)))
        open_nodes = [w for w, up in enumerate(upper) if up > best]
        pick_upper = True
        while open_nodes:
            # Alternate between the most promising and the most central
            # open node; ties go to the lowest id, so the sweeps are
            # deterministic.
            if pick_upper:
                v = max(open_nodes, key=lambda w: (upper[w], -w))
            else:
                v = min(open_nodes, key=lambda w: (lower[w], w))
            pick_upper = not pick_upper
            dist = self.distances_from([v])
            ecc = max(dist)
            best = max(best, ecc)
            smallest_ecc = min(smallest_ecc, ecc)
            if best >= 2 * smallest_ecc:
                break
            still_open = []
            for w in open_nodes:
                d = dist[w]
                lower[w] = max(lower[w], d, ecc - d)
                upper[w] = min(upper[w], ecc + d)
                if upper[w] > best:
                    still_open.append(w)
            open_nodes = still_open
        return best


def rne_distance(a: Sequence[int], b: Sequence[int]) -> int:
    """Chebyshev distance between two embedding vectors."""
    if len(a) != len(b):
        raise ValueError(f"dimension mismatch: {len(a)} vs {len(b)}")
    return max((abs(x - y) for x, y in zip(a, b)), default=0)


def check_grid(rows, cols, weight_range) -> tuple[int, int, tuple[int, int]]:
    """The grid arguments of :func:`generate_grid_network` as ``(rows, cols,
    (lo, hi))``, each read with :func:`read_int` and checked: the one reader
    of a grid, whose result the generator and ``ExperimentConfig`` store. A
    ``weight_range`` that is not two items raises ``ValueError`` naming it."""
    rows, cols = read_int("rows", rows), read_int("cols", cols)
    try:
        lo, hi = weight_range
    except (TypeError, ValueError):
        raise ValueError(f"weight_range {weight_range!r} is not a pair of bounds") from None
    lo, hi = read_int("weight_range bound", lo), read_int("weight_range bound", hi)
    if rows < 1 or cols < 1:
        raise ValueError("grid needs at least one row and one column")
    if lo > hi:
        raise ValueError(f"empty weight range [{lo}, {hi}]")
    if lo < 0:
        raise ValueError("edge weights must be non-negative")
    return rows, cols, (lo, hi)


def randrange_batch(rng: random.Random, n: int, count: int) -> list[int]:
    """``[rng.randrange(n) for _ in range(count)]``, drawn in batches, and
    leaving ``rng`` in the same state.

    ``randrange(n)`` tries ``getrandbits(k)`` for ``k = n.bit_length()``
    until a try falls below ``n`` (for n = 2**16, k = 17, so half the tries
    are rejected). For ``k <= 32`` a try is the next 32-bit Mersenne
    Twister word shifted right by ``32 - k``, and ``getrandbits(32 * W)``
    returns the next ``W`` words, least significant first. Each round
    draws one word per value still missing, so it never reads past the
    last try ``randrange`` would make, and keeps the tries below ``n``.
    A wider ``n`` draws per call.
    """
    n = index(n)
    if n < 1:
        raise ValueError(f"empty range for randrange({n})")
    shift = 32 - n.bit_length()
    if shift < 0:
        return [rng.randrange(n) for _ in range(count)]
    limit = n << shift  # a word is kept iff word >> shift < n
    values: list[int] = []
    while len(values) < count:
        words = count - len(values)
        data = rng.getrandbits(32 * words).to_bytes(4 * words, sys.byteorder)
        tries = memoryview(data).cast("I")
        if sys.byteorder == "big":  # the draw's first word is stored last
            tries = tries[::-1]
        values += [word >> shift for word in tries if word < limit]
    return values


def generate_grid_network(
    rows: int,
    cols: int,
    weight_range: tuple[int, int],
    seed: int = 0,
    landmarks: int = 8,
) -> RoadNetwork:
    """Grid graph with random integer edge weights and sampled landmarks.

    Landmark subsets are singletons, drawn without replacement while the
    graph has enough nodes and with replacement otherwise (a one-node grid
    still embeds). The grid arguments are read by :func:`check_grid`, and
    ``seed`` and ``landmarks`` with :func:`read_int`.
    """
    rows, cols, (lo, hi) = check_grid(rows, cols, weight_range)
    landmarks = read_int("landmarks", landmarks)
    if landmarks < 1:
        raise ValueError("need at least one landmark subset")

    rng = random.Random(read_int("seed", seed))
    num_nodes = rows * cols
    pairs = []
    for r in range(rows):
        for c in range(cols):
            node = r * cols + c
            if c + 1 < cols:
                pairs.append((node, node + 1))
            if r + 1 < rows:
                pairs.append((node, node + cols))
    # rng.randint(lo, hi) per edge, in edge order, drawn in one batch.
    weights = randrange_batch(rng, hi - lo + 1, len(pairs))
    edges = [(u, v, lo + w) for (u, v), w in zip(pairs, weights)]

    if landmarks <= num_nodes:
        subsets = [[node] for node in rng.sample(range(num_nodes), landmarks)]
    else:
        subsets = [rng.sample(range(num_nodes), 1) for _ in range(landmarks)]

    return RoadNetwork(num_nodes, edges, subsets)


def parse_network(text: str) -> RoadNetwork:
    """Parse the line-oriented network format.

    Header ``N M``, then M lines ``u v w``, then one line of node ids per
    landmark subset until end of input.
    """
    lines = [line.strip() for line in text.splitlines() if line.strip()]
    if not lines:
        raise ValueError("empty network description")
    header = lines[0].split()
    if len(header) != 2:
        raise ValueError(f"malformed header {lines[0]!r}, expected 'N M'")
    num_nodes, num_edges = int(header[0]), int(header[1])
    # Checked before anything is sized from N: a connected graph on N nodes
    # has at least N - 1 edges, and the edge lines must all be present.
    if num_nodes < 1:
        raise ValueError(f"header declares {num_nodes} nodes, need at least 1")
    if num_edges < 0:
        raise ValueError(f"header declares {num_edges} edges")
    if num_nodes > num_edges + 1:
        raise ValueError(
            f"header declares {num_nodes} nodes but only {num_edges} edges; "
            f"a connected network needs at least {num_nodes - 1}"
        )
    if len(lines) < 1 + num_edges:
        raise ValueError(f"expected {num_edges} edge lines")
    edges = []
    for line in lines[1 : 1 + num_edges]:
        parts = line.split()
        if len(parts) != 3:
            raise ValueError(f"malformed edge line {line!r}")
        edges.append((int(parts[0]), int(parts[1]), int(parts[2])))
    subsets = [[int(tok) for tok in line.split()] for line in lines[1 + num_edges :]]
    if not subsets:
        raise ValueError("network file defines no landmark subsets")
    return RoadNetwork(num_nodes, edges, subsets)


def format_network(net: RoadNetwork) -> str:
    lines = [f"{net.num_nodes} {len(net.edges)}"]
    lines.extend(f"{u} {v} {w}" for u, v, w in net.edges)
    lines.extend(" ".join(str(s) for s in sorted(subset)) for subset in net.landmark_subsets)
    return "\n".join(lines) + "\n"


def load_network(path) -> RoadNetwork:
    with open(path, "r", encoding="ascii") as fh:
        return parse_network(fh.read())


def save_network(net: RoadNetwork, path) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write(format_network(net))
