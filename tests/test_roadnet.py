import itertools
import random
import time
import tracemalloc

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from oracles import floyd_warshall
from ridecrypt import roadnet
from ridecrypt.harness import derive_seed
from ridecrypt.roadnet import (
    RoadNetwork,
    format_network,
    generate_grid_network,
    load_network,
    parse_network,
    randrange_batch,
    rne_distance,
    save_network,
)

vectors = st.lists(st.integers(0, 10_000), min_size=1, max_size=8)


@st.composite
def connected_networks(draw, weight=st.integers(0, 9)):
    """A connected graph: a path, star, cycle or random spanning tree, plus
    extra edges that may repeat a pair or loop on one node. Weights are
    drawn from ``weight`` and include 0, so distinct nodes can be at
    distance 0."""
    n = draw(st.integers(1, 12))
    shape = draw(st.sampled_from(["tree", "path", "star", "cycle"]))
    if shape == "path":
        pairs = [(u - 1, u) for u in range(1, n)]
    elif shape == "star":
        pairs = [(0, u) for u in range(1, n)]
    elif shape == "cycle":
        pairs = [(u - 1, u) for u in range(1, n)] + ([(n - 1, 0)] if n > 2 else [])
    else:
        pairs = [(draw(st.integers(0, u - 1)), u) for u in range(1, n)]
    node = st.integers(0, n - 1)
    pairs += draw(st.lists(st.tuples(node, node), max_size=2 * n))
    edges = [(u, v, draw(weight)) for u, v in pairs]
    return RoadNetwork(n, edges, [[0]])


class TestGridGeneration:
    def test_single_node_grid(self):
        net = generate_grid_network(1, 1, (1, 1), seed=0)
        assert net.num_nodes == 1
        assert net.edges == ()
        assert net.embedding_table()[0] == (0,) * net.dim

    def test_two_by_two_uniform_weights(self):
        net = generate_grid_network(2, 2, (5, 5), seed=3)
        assert net.num_nodes == 4
        assert len(net.edges) == 4
        assert all(w == 5 for _, _, w in net.edges)

    def test_deterministic_for_fixed_seed(self):
        a = generate_grid_network(3, 3, (1, 10), seed=42)
        b = generate_grid_network(3, 3, (1, 10), seed=42)
        assert a.edges == b.edges
        assert a.landmark_subsets == b.landmark_subsets

    def test_different_seeds_differ(self):
        a = generate_grid_network(3, 3, (1, 10), seed=1)
        b = generate_grid_network(3, 3, (1, 10), seed=2)
        assert a.edges != b.edges or a.landmark_subsets != b.landmark_subsets

    def test_empty_weight_range(self):
        with pytest.raises(ValueError):
            generate_grid_network(2, 2, (5, 4), seed=0)

    def test_degenerate_dimensions(self):
        with pytest.raises(ValueError):
            generate_grid_network(0, 3, (1, 1), seed=0)

    def test_landmarks_without_replacement_when_possible(self):
        net = generate_grid_network(4, 4, (1, 1), seed=7, landmarks=8)
        singles = [next(iter(s)) for s in net.landmark_subsets]
        assert len(set(singles)) == 8

    def test_small_graph_reuses_nodes_for_landmarks(self):
        net = generate_grid_network(1, 2, (1, 1), seed=7, landmarks=8)
        assert net.dim == 8


class TestRandrangeBatch:
    @pytest.mark.parametrize("n", [1, 2, 3, 9, 10, 2**16, 2**31, 2**32, 2**40, 2**62])
    def test_same_values_and_state_as_randrange(self, n):
        for seed, count in itertools.product(range(5), (0, 1, 1000)):
            per_call, batched = random.Random(seed), random.Random(seed)
            expected = [per_call.randrange(n) for _ in range(count)]
            assert randrange_batch(batched, n, count) == expected
            assert batched.random() == per_call.random()

    def test_empty_range_faults_like_randrange(self):
        with pytest.raises(ValueError, match="empty range"):
            randrange_batch(random.Random(1), 0, 3)

    def test_grid_weights_are_randint_per_edge(self):
        # The generator's draws, one randint per edge in edge order and
        # then the landmark sample, written out per call.
        rows, cols, (lo, hi), seed = 7, 5, (2, 11), 99
        rng = random.Random(seed)
        edges = []
        for r in range(rows):
            for c in range(cols):
                node = r * cols + c
                if c + 1 < cols:
                    edges.append((node, node + 1, rng.randint(lo, hi)))
                if r + 1 < rows:
                    edges.append((node, node + cols, rng.randint(lo, hi)))
        landmarks = rng.sample(range(rows * cols), 8)
        net = generate_grid_network(rows, cols, (lo, hi), seed=seed, landmarks=8)
        assert net.edges == tuple(edges)
        assert net.landmark_subsets == tuple(frozenset([node]) for node in landmarks)


class TestNetworkValidation:
    def test_disconnected_rejected(self):
        with pytest.raises(ValueError, match="connected"):
            RoadNetwork(3, [(0, 1, 1)], [[0]])

    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError):
            RoadNetwork(2, [(0, 1, -1)], [[0]])

    def test_unknown_edge_endpoint(self):
        with pytest.raises(ValueError):
            RoadNetwork(2, [(0, 5, 1)], [[0]])

    def test_empty_landmark_subset(self):
        with pytest.raises(ValueError):
            RoadNetwork(2, [(0, 1, 1)], [[]])

    def test_no_subsets(self):
        with pytest.raises(ValueError):
            RoadNetwork(2, [(0, 1, 1)], [])

    @pytest.mark.parametrize(
        "num_nodes, edges, subsets, message",
        [
            (3, [(0, 1, 2.7), (1, 2, 3)], [[0]], r"edge \(0, 1, 2.7\) has a field"),
            (3, [(0, 1, 2), (1, 2, "3")], [[0]], r"edge \(1, 2, '3'\) has a field"),
            (3, [(0, 1, 2), (1, 2, 3)], [[0], [1.9]], "landmark subset 1 holds"),
            (2.0, [(0, 1, 1)], [[0]], "node count 2.0 is not an integer"),
        ],
    )
    def test_non_integers_are_refused_not_truncated(
        self, num_nodes, edges, subsets, message
    ):
        with pytest.raises(ValueError, match=message):
            RoadNetwork(num_nodes, edges, subsets)

    def test_int_likes_are_read_as_ints(self):
        np = pytest.importorskip("numpy")
        net = RoadNetwork(np.int64(3), [tuple(np.int32([0, 1, 2])), (1, 2, 3)], [[np.int8(0)]])
        assert net.num_nodes == 3 and type(net.num_nodes) is int
        assert net.edges == ((0, 1, 2), (1, 2, 3))
        assert all(type(x) is int for edge in net.edges for x in edge)
        assert net.landmark_subsets == (frozenset({0}),)
        assert net.embedding_table() == ((0,), (2,), (5,))


class TestShortestPaths:
    def test_distance_to_self_is_zero(self):
        net = generate_grid_network(3, 3, (1, 10), seed=11)
        for node in range(net.num_nodes):
            assert net.distances_from([node])[node] == 0

    def test_single_edge(self):
        net = RoadNetwork(2, [(0, 1, 7)], [[0]])
        assert net.distances_from([0])[1] == 7
        assert net.distances_from([1])[0] == 7

    def test_all_pairs_agree_with_relaxation_oracle(self):
        net = generate_grid_network(5, 5, (1, 10), seed=42)
        oracle = floyd_warshall(net)
        for u in range(net.num_nodes):
            assert net.distances_from([u]) == oracle[u]

    def test_symmetry(self):
        net = generate_grid_network(4, 3, (1, 9), seed=5)
        for u, v in itertools.combinations(range(net.num_nodes), 2):
            assert net.distances_from([u])[v] == net.distances_from([v])[u]

    def test_unknown_node(self):
        net = RoadNetwork(2, [(0, 1, 7)], [[0]])
        with pytest.raises(ValueError, match="unknown node 9"):
            net.distances_from([9])

    @given(connected_networks(weight=st.integers(0, 10**12)), st.data())
    def test_multi_source_agrees_with_relaxation_oracle(self, net, data):
        # Each node's distance is its nearest source's row of the oracle;
        # with no source, every node is unreached.
        sources = data.draw(st.lists(st.integers(0, net.num_nodes - 1), max_size=3))
        oracle = floyd_warshall(net)
        nearest = [min((oracle[s][u] for s in sources), default=-1) for u in range(net.num_nodes)]
        assert net.distances_from(sources) == nearest

    def test_memory_and_time_do_not_follow_the_weights(self):
        # Nothing in a sweep is indexed by distance, so a path whose edges
        # weigh about 10^15 builds as fast, and in as little memory, as a
        # unit-weight one (0.65 MB traced at its peak).
        rng = random.Random(1)
        weights = [10**15 + rng.randrange(1000) for _ in range(1999)]
        edges = [(u, u + 1, w) for u, w in enumerate(weights)]
        subsets = [[0], [700], [1999], [5, 1000]]

        start = time.perf_counter()
        net = RoadNetwork(2000, edges, subsets)
        net.embedding_table()
        assert net.diameter() == sum(weights)
        assert time.perf_counter() - start < 1.0

        tracemalloc.start()
        try:
            net = RoadNetwork(2000, edges, subsets)
            net.embedding_table()
            net.diameter()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2_000_000


class TestDiameter:
    @given(connected_networks())
    @example(RoadNetwork(1, [], [[0]]))
    def test_matches_relaxation_oracle(self, net):
        assert net.diameter() == max(max(row) for row in floyd_warshall(net))

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_grid_with_zero_weights_matches_oracle(self, seed):
        net = generate_grid_network(9, 9, (0, 9), seed=seed)
        assert net.diameter() == max(max(row) for row in floyd_warshall(net))

    @given(connected_networks(), st.data())
    def test_embedding_sweeps_keep_it_exact(self, net, data):
        node = st.integers(0, net.num_nodes - 1)
        subsets = data.draw(
            st.lists(st.lists(node, min_size=1, max_size=3), min_size=1, max_size=4)
        )
        net = RoadNetwork(net.num_nodes, net.edges, subsets)
        net.embedding_table()
        assert net.diameter() == max(max(row) for row in floyd_warshall(net))

    def test_multi_node_subset_is_no_sweep(self):
        # Read as a sweep from node 0, the column [0, 1, 2, 1, 0] of {0, 4}
        # would close nodes 0 and 4 at eccentricity 2 and end at 3.
        net = RoadNetwork(5, [(u, u + 1, 1) for u in range(4)], [[0, 4]])
        net.embedding_table()
        assert net.diameter() == 4

    @staticmethod
    def count_sweeps(monkeypatch) -> list:
        calls = []
        sweep = RoadNetwork.distances_from

        def counted(self, sources):
            calls.append(sources)
            return sweep(self, sources)

        monkeypatch.setattr(RoadNetwork, "distances_from", counted)
        return calls

    @pytest.mark.parametrize("s", range(1, 6))
    def test_city_grid_needs_few_sweeps(self, s, monkeypatch):
        # Counts Dijkstra runs, not time: all-pairs would make 1,024.
        net = generate_grid_network(32, 32, (1, 9), seed=derive_seed(s, "network"))
        calls = self.count_sweeps(monkeypatch)
        first = net.diameter()
        assert 1 <= len(calls) <= 64
        calls.clear()
        assert net.diameter() == first
        assert calls == []

    @pytest.mark.parametrize("s", range(1, 6))
    def test_embedding_sweeps_save_sweeps(self, s, monkeypatch):
        seed = derive_seed(s, "network")
        alone = generate_grid_network(32, 32, (1, 9), seed=seed)
        embedded = generate_grid_network(32, 32, (1, 9), seed=seed)
        embedded.embedding_table()
        calls = self.count_sweeps(monkeypatch)
        diameter = alone.diameter()
        own = len(calls)
        calls.clear()
        assert embedded.diameter() == diameter
        assert len(calls) < own


class TestEmbedding:
    def test_node_in_every_subset_embeds_to_zero(self):
        net = RoadNetwork(3, [(0, 1, 2), (1, 2, 3)], [[0, 1], [0, 2], [0]])
        assert net.embedding_table()[0] == (0, 0, 0)

    def test_singleton_subsets_give_exact_distances(self):
        net = generate_grid_network(2, 2, (5, 5), seed=1, landmarks=4)
        for node in range(net.num_nodes):
            embedded = net.embedding_table()[node]
            for i, subset in enumerate(net.landmark_subsets):
                landmark = next(iter(subset))
                assert embedded[i] == net.distances_from([node])[landmark]

    def test_multi_node_subset_takes_nearest(self):
        net = RoadNetwork(3, [(0, 1, 2), (1, 2, 3)], [[0, 2]])
        assert net.embedding_table()[1] == (2,)

    def test_embedding_deterministic(self):
        a = generate_grid_network(3, 3, (1, 10), seed=9)
        b = generate_grid_network(3, 3, (1, 10), seed=9)
        assert a.embedding_table() == b.embedding_table()

    @pytest.mark.parametrize("rows,cols", [(2, 2), (3, 3), (2, 5)])
    def test_contraction_against_true_distance(self, rows, cols):
        net = generate_grid_network(rows, cols, (1, 10), seed=rows * 31 + cols)
        table = net.embedding_table()
        for u in range(net.num_nodes):
            dist = net.distances_from([u])
            for v in range(net.num_nodes):
                assert rne_distance(table[u], table[v]) <= dist[v]


class TestRneDistance:
    def test_identical_vectors(self):
        assert rne_distance((4, 2, 9), (4, 2, 9)) == 0

    def test_hand_example(self):
        assert rne_distance((1, 5), (4, 3)) == 3

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            rne_distance((1, 2), (1, 2, 3))

    @given(vectors, vectors)
    def test_symmetry(self, a, b):
        if len(a) != len(b):
            b = (b * len(a))[: len(a)]
        assert rne_distance(a, b) == rne_distance(b, a)

    @given(st.data())
    def test_triangle_inequality(self, data):
        dim = data.draw(st.integers(1, 6))
        coord = st.integers(0, 1000)
        point = st.lists(coord, min_size=dim, max_size=dim)
        a, b, c = data.draw(point), data.draw(point), data.draw(point)
        assert rne_distance(a, c) <= rne_distance(a, b) + rne_distance(b, c)


class TestNetworkFileFormat:
    def test_round_trip(self, tmp_path):
        net = generate_grid_network(3, 2, (1, 6), seed=8, landmarks=3)
        path = tmp_path / "net.txt"
        save_network(net, path)
        loaded = load_network(path)
        assert loaded.num_nodes == net.num_nodes
        assert sorted(loaded.edges) == sorted(net.edges)
        assert loaded.landmark_subsets == net.landmark_subsets
        assert loaded.embedding_table() == net.embedding_table()

    def test_parse_explicit_text(self):
        net = parse_network("3 2\n0 1 4\n1 2 5\n0\n2\n")
        assert net.num_nodes == 3
        assert net.dim == 2
        assert net.embedding_table()[1] == (4, 5)

    def test_malformed_header(self):
        with pytest.raises(ValueError):
            parse_network("3\n0 1 4\n0\n")

    def test_missing_edges(self):
        with pytest.raises(ValueError):
            parse_network("3 5\n0 1 4\n0\n")

    def test_missing_subsets(self):
        with pytest.raises(ValueError):
            parse_network("2 1\n0 1 4\n")

    @pytest.mark.parametrize(
        "text",
        [
            "1000000000 0\n0\n",
            "0 0\n0\n",
            "2 -1\n0\n",
            "5 3\n0 1 1\n1 2 1\n2 3 1\n0\n",
        ],
    )
    def test_header_rejected_before_allocation(self, text, monkeypatch):
        # Nothing may be sized from a header that cannot describe a
        # connected network: the parser must refuse it on its own.
        def refuse(*args, **kwargs):
            raise AssertionError("network built from a rejected header")

        monkeypatch.setattr(roadnet, "RoadNetwork", refuse)
        with pytest.raises(ValueError, match="header declares"):
            parse_network(text)

    def test_format_matches_parse(self):
        text = format_network(generate_grid_network(2, 2, (1, 3), seed=2, landmarks=2))
        assert parse_network(text).num_nodes == 4
