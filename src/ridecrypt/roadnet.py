"""Synthetic road networks and the landmark embedding of their nodes.

A network is a connected, undirected, integer-weighted graph plus a list of
landmark subsets. Node ``u`` embeds to the vector whose i-th coordinate is
the shortest-path distance from ``u`` to the nearest member of subset i;
the Chebyshev distance between two such vectors never exceeds the true
road distance, which is what makes it usable as a matching metric.

The network diameter, which sizes the block count ``m``, is exact but not
all-pairs: each Dijkstra sweep from a node v yields its eccentricity e, and
the triangle inequality bounds every other node w's eccentricity between
``max(d(v, w), e - d(v, w))`` and ``e + d(v, w)``. Nodes whose upper bound
cannot beat the largest eccentricity seen so far are dropped, so a grid
usually needs a few dozen sweeps instead of one per node, and never more
than one per node. Once the embedding is built, the column of each
singleton landmark subset is such a sweep, and the bounding starts from
those, which takes a fifth off the benchmark's sessions_grid set-up.
"""

from __future__ import annotations

import heapq
import math
import random
from typing import Iterable, Iterator, Sequence

RneVector = tuple[int, ...]

_UNREACHED = -1


class RoadNetwork:
    """Immutable snapshot of a weighted undirected graph with landmarks.

    Construction validates edges, checks connectivity and freezes the
    adjacency structure; embedding and diameter caches fill lazily but
    idempotently, so concurrent readers are safe.
    """

    def __init__(
        self,
        num_nodes: int,
        edges: Iterable[tuple[int, int, int]],
        landmark_subsets: Iterable[Iterable[int]],
    ) -> None:
        if num_nodes < 1:
            raise ValueError("network needs at least one node")
        self.num_nodes = num_nodes
        self.edges = tuple((int(u), int(v), int(w)) for u, v, w in edges)
        adjacency: list[list[tuple[int, int]]] = [[] for _ in range(num_nodes)]
        for u, v, w in self.edges:
            if not (0 <= u < num_nodes and 0 <= v < num_nodes):
                raise ValueError(f"edge ({u}, {v}) references unknown node")
            if w < 0:
                raise ValueError(f"edge ({u}, {v}) has negative weight {w}")
            adjacency[u].append((v, w))
            adjacency[v].append((u, w))
        self._adjacency = tuple(tuple(nbrs) for nbrs in adjacency)

        subsets = []
        for subset in landmark_subsets:
            frozen = frozenset(int(s) for s in subset)
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
        """Multi-source Dijkstra; distance from each node to the nearest source."""
        dist = [_UNREACHED] * self.num_nodes
        heap = []
        for s in sources:
            if not 0 <= s < self.num_nodes:
                raise ValueError(f"unknown node {s}")
            dist[s] = 0
            heap.append((0, s))
        heapq.heapify(heap)
        while heap:
            d, u = heapq.heappop(heap)
            if d > dist[u]:
                continue
            for v, w in self._adjacency[u]:
                nd = d + w
                if dist[v] == _UNREACHED or nd < dist[v]:
                    dist[v] = nd
                    heapq.heappush(heap, (nd, v))
        return dist

    def embedding_table(self) -> tuple[RneVector, ...]:
        """Embeddings of every node, built once and cached."""
        if self._embedding is None:
            per_subset = [self.distances_from(s) for s in self.landmark_subsets]
            self._embedding = tuple(
                tuple(per_subset[i][node] for i in range(self.dim))
                for node in range(self.num_nodes)
            )
        return self._embedding

    def diameter(self) -> int:
        """Largest shortest-path distance over all node pairs, computed once
        by bounding sweeps (see the module docstring) and cached."""
        if self._diameter is None:
            self._diameter = self._bounding_diameter(self._embedding_sweeps())
        return self._diameter

    def _embedding_sweeps(self) -> Iterator[list[int]]:
        """The single-source sweeps the embedding already ran, none before
        it is built: the column of each singleton subset. A multi-node
        subset's column is a distance to the nearest member, not a sweep."""
        if self._embedding is not None:
            for i, subset in enumerate(self.landmark_subsets):
                if len(subset) == 1:
                    yield [row[i] for row in self._embedding]

    def _bounding_diameter(self, sweeps: Iterator[list[int]]) -> int:
        # Eccentricity bounding (Takes & Kosters, CIKM 2011). The diameter
        # is the largest eccentricity, so a node whose upper bound is at most
        # the largest eccentricity seen so far cannot raise it and is closed.
        # Every sweep closes its own source, so after the given sweeps there
        # are at most N more.
        lower = [0] * self.num_nodes
        upper = [math.inf] * self.num_nodes
        open_nodes = list(range(self.num_nodes))
        best = 0
        smallest_ecc = math.inf
        pick_upper = True
        while open_nodes:
            dist = next(sweeps, None)
            if dist is None:
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
                break  # no pair is farther apart than 2 * ecc(v) for any v
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


def check_grid(rows: int, cols: int, weight_range: tuple[int, int]) -> None:
    """Reject grid arguments :func:`generate_grid_network` cannot build."""
    if rows < 1 or cols < 1:
        raise ValueError("grid needs at least one row and one column")
    lo, hi = weight_range
    if lo > hi:
        raise ValueError(f"empty weight range [{lo}, {hi}]")
    if lo < 0:
        raise ValueError("edge weights must be non-negative")


def generate_grid_network(
    rows: int,
    cols: int,
    weight_range: tuple[int, int] = (1, 10),
    seed: int = 0,
    landmarks: int = 8,
) -> RoadNetwork:
    """Grid graph with random integer edge weights and sampled landmarks.

    Landmark subsets are singletons, drawn without replacement while the
    graph has enough nodes and with replacement otherwise (a one-node grid
    still embeds).
    """
    check_grid(rows, cols, weight_range)
    lo, hi = weight_range
    if landmarks < 1:
        raise ValueError("need at least one landmark subset")

    rng = random.Random(seed)
    num_nodes = rows * cols
    edges = []
    for r in range(rows):
        for c in range(cols):
            node = r * cols + c
            if c + 1 < cols:
                edges.append((node, node + 1, rng.randint(lo, hi)))
            if r + 1 < rows:
                edges.append((node, node + cols, rng.randint(lo, hi)))

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
