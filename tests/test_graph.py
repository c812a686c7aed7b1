import hashlib
import json
import random
from array import array
from collections import Counter
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fractree import graph
from fractree.construct import base, build, ept
from fractree.errors import DisconnectedGraphError, InvalidVertexError
from fractree.graph import (
    ROLE_CODE,
    ROLES,
    Graph,
    VertexRole,
    block_census,
    block_shapes,
    blocks,
    chains,
    degree_histogram,
    dot_chunks,
    edge_adjacency,
    edgelist_chunks,
    json_chunks,
    laplacian_minor,
    plain_graph,
    to_dot,
    to_edgelist_text,
    to_json_dict,
)
from fractree.params import Family, FractalParams
from fractree.spanning import _reduced_laplacian_determinant, tau_blocks, tau_oracle
from fractree.verify import random_connected_graph


_TWO_TRIANGLES = [(0, 1), (1, 2), (2, 0), (0, 3), (3, 4), (4, 0)]


class TestGraphBasics:
    def test_simple_graph_validation(self):
        g = plain_graph(3, [(2, 1), (0, 2)])
        assert g.adjacency == ((2,), (2,), (0, 1)) and g.edge_count == 2
        assert g._roles == bytearray([ROLE_CODE[VertexRole.ORIGINAL_BASE]]) * 3
        for edges, error in [
            ([(0, 1.0)], InvalidVertexError),
            ([("0", 1)], InvalidVertexError),
            ([(0, 3)], InvalidVertexError),
            ([(-1, 2)], InvalidVertexError),
            ([(1, 1)], ValueError),
            ([(0, 1), (0, 2), (0, 1)], ValueError),
            ([(0, 1), (0, 2), (1, 0)], ValueError),
        ]:
            with pytest.raises(error) as raised:
                Graph.from_edges(bytearray(3), array("i", [0, 0, 0]), edges)
            assert raised.type is error, edges

    def test_neighbors_are_tuples(self):
        g = plain_graph(3, [(2, 0)])
        assert g.adjacency == ((2,), (), (0,))
        assert type(g.neighbors(0)) is tuple
        with pytest.raises(InvalidVertexError):
            g.neighbors(3)

    def test_made_whole(self):
        with pytest.raises(TypeError):
            Graph()

    def test_from_edges_rejects_bool_endpoints(self):
        for edges in ([(False, True), (True, 2)], [(0, True)], [(True, 2)]):
            with pytest.raises(InvalidVertexError) as raised:
                plain_graph(3, edges)
            assert raised.type is InvalidVertexError, edges

    def test_vertex_queries_reject_bools(self):
        g = plain_graph(3, [(0, 1), (1, 2)])
        for query in (lambda: g.neighbors(True), lambda: g.degree(False),
                      lambda: laplacian_minor(g, True)):
            with pytest.raises(InvalidVertexError):
                query()

    def test_params_read_only(self):
        p = FractalParams(Family.CYCLE, 3, 2, 1)
        g = build(p)
        assert g.params == p
        with pytest.raises(AttributeError):
            g.params = FractalParams(Family.WHEEL, 4, 2, 1)
        assert g.params == p
        assert plain_graph(2, [(0, 1)]).params is None

    def test_from_layout_checks_lengths(self):
        with pytest.raises(ValueError):
            Graph.from_layout(bytearray(2), array("i", [0, 0]), [(1,)], 0)

    def test_neighbors_sorted(self):
        g = plain_graph(5, _TWO_TRIANGLES)
        assert g.neighbors(0) == (1, 2, 3, 4)
        assert g.degree(0) == 4

    def test_edges_ascending(self):
        g = plain_graph(5, _TWO_TRIANGLES)
        es = list(g.edges())
        assert es == sorted(es)
        assert all(u < v for u, v in es)
        assert len(es) == g.edge_count

    def test_degree_sum_is_twice_edges(self):
        for g in (base(Family.CYCLE, 6), plain_graph(5, _TWO_TRIANGLES), base(Family.WHEEL, 5)):
            hist = degree_histogram(g)
            assert sum(hist.values()) == g.vertex_count
            assert sum(d * c for d, c in hist.items()) == 2 * g.edge_count


class TestDegreeHistogram:
    def test_cycle(self):
        assert degree_histogram(base(Family.CYCLE, 3)) == {2: 3}

    def test_wheel(self):
        assert degree_histogram(base(Family.WHEEL, 4)) == {3: 4, 4: 1}

    def test_first_stage_graph(self):
        g = build(FractalParams(Family.CYCLE, 3, 2, 1))
        assert degree_histogram(g) == {2: 9, 4: 3}


class TestLaplacianMinor:
    def test_triangle(self):
        assert laplacian_minor(base(Family.CYCLE, 3), 0) == [[2, -1], [-1, 2]]

    def test_single_edge(self):
        assert laplacian_minor(plain_graph(2, [(0, 1)]), 1) == [[1]]

    def test_wheel_omit_hub(self):
        w4 = base(Family.WHEEL, 4)  # hub is vertex 4
        minor = laplacian_minor(w4, 4)
        assert [minor[k][k] for k in range(4)] == [3, 3, 3, 3]
        assert minor == [[3, -1, 0, -1], [-1, 3, -1, 0], [0, -1, 3, -1], [-1, 0, -1, 3]]

    def test_bad_vertex(self):
        with pytest.raises(InvalidVertexError):
            laplacian_minor(base(Family.CYCLE, 3), 5)


class TestBlocks:
    def test_single_cycle(self):
        out = blocks(base(Family.CYCLE, 5))
        assert len(out) == 1
        assert out[0].signature == ("cycle", 5)

    def test_two_triangles(self):
        out = blocks(plain_graph(5, _TWO_TRIANGLES))
        assert sorted(b.signature for b in out) == [("cycle", 3), ("cycle", 3)]

    def test_bridge_is_other(self):
        out = blocks(plain_graph(4, [(0, 1), (1, 2), (2, 0), (2, 3)]))
        assert sorted(b.signature for b in out) == [("cycle", 3), ("other",)]

    def test_theta_graph_is_other(self):
        # two vertices joined by three internally disjoint paths
        out = blocks(plain_graph(5, [(0, 1), (0, 2), (2, 1), (0, 3), (3, 4), (4, 1)]))
        assert [b.signature for b in out] == [("other",)]

    def test_plain_wheel(self):
        out = blocks(base(Family.WHEEL, 5))
        assert [b.signature for b in out] == [("wheel", 5, 1)]

    def test_three_wheel_is_k4(self):
        out = blocks(base(Family.WHEEL, 3))
        assert [b.signature for b in out] == [("wheel", 3, 1)]

    def test_subdivided_wheel(self):
        g = ept(base(Family.WHEEL, 4), 2)
        assert [b.signature for b in blocks(g)] == [("wheel", 4, 2)]
        g = ept(ept(base(Family.WHEEL, 4), 2), 2)
        assert [b.signature for b in blocks(g)] == [("wheel", 4, 4)]

    def test_subdivided_three_wheel(self):
        # every branch vertex of a subdivided K_4 is a valid hub choice
        g = ept(base(Family.WHEEL, 3), 3)
        assert [b.signature for b in blocks(g)] == [("wheel", 3, 3)]

    def test_cube_graph_is_other(self):
        g = plain_graph(8, [(0, 1), (1, 2), (2, 3), (3, 0), (4, 5), (5, 6), (6, 7),
                            (7, 4), (0, 4), (1, 5), (2, 6), (3, 7)])
        assert [b.signature for b in blocks(g)] == [("other",)]

    def test_complete_graph_k5_is_other(self):
        g = plain_graph(5, combinations(range(5), 2))
        assert [b.signature for b in blocks(g)] == [("other",)]

    def test_nonuniform_subdivision_is_other(self):
        # W_4 with exactly one rim edge subdivided
        g = plain_graph(6, [(0, 1), (1, 2), (2, 3), (3, 5), (5, 0), (4, 0), (4, 1), (4, 2), (4, 3)])
        assert [b.signature for b in blocks(g)] == [("other",)]

    @pytest.mark.parametrize("p", range(1, 5))
    @pytest.mark.parametrize("k", range(3, 9))
    def test_subdivided_wheel_table(self, k, p):
        rim = [(j, (j + 1) % k) for j in range(k)]
        edges = rim + [(k, j) for j in range(k)]
        assert _signatures(_subdivided(edges, p, seed=k * p)) == [("wheel", k, p)]
        # one rim edge, or one spoke, drawn one edge longer than the rest
        for longer in (0, k):
            assert _signatures(_subdivided(edges, p, longer, seed=k * p)) == [("other",)]

    @pytest.mark.parametrize("p", range(1, 4))
    @pytest.mark.parametrize("edges", [
        [(a, b) for a in range(3) for b in range(3, 6)],
        [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3), (0, 3), (1, 4), (2, 5)],
    ], ids=["k33", "prism"])
    def test_cubic_non_wheels_are_other(self, edges, p):
        # cubic like W_3, but no vertex is joined to all the others
        assert _signatures(_subdivided(edges, p, seed=p)) == [("other",)]

    def test_parallel_chains_are_other(self):
        # W_4 with one spoke doubled: the chains' distinct ends are those of
        # W_4, but two chains join the hub to rim vertex 0
        edges = [(0, 1), (1, 2), (2, 3), (3, 0), (4, 0), (4, 0), (4, 1), (4, 2), (4, 3)]
        assert _signatures(_subdivided(edges, 2)) == [("other",)]

    def test_loop_chain_is_other(self):
        # K_4 on 0, 2, 3, 4 with a pendant chain 0 - 1 that closes a loop
        # chain at 1: the degrees are a 4-wheel's and no pair repeats, so
        # only the loop tells it apart (no block has a loop; the classifier
        # is called directly)
        g = _subdivided([*combinations((0, 2, 3, 4), 2), (0, 1), (1, 1)], 3)
        assert graph._classify_block(list(g.edges())) == ("other",)

    def test_stage_one_composition(self):
        g = build(FractalParams(Family.CYCLE, 3, 2, 1))
        assert sorted(b.signature for b in blocks(g)) == [
            ("cycle", 3), ("cycle", 3), ("cycle", 3), ("cycle", 6),
        ]

    def test_edge_partition(self):
        g = build(FractalParams(Family.WHEEL, 4, 2, 1))
        out = blocks(g)
        assert sum(len(b.edges) for b in out) == g.edge_count
        seen = set()
        for b in out:
            for e in b.edges:
                assert e not in seen
                seen.add(e)

    def test_disconnected_raises(self):
        with pytest.raises(DisconnectedGraphError):
            blocks(plain_graph(4, [(0, 1), (2, 3)]))

    def test_large_path_no_recursion_limit(self):
        out = blocks(plain_graph(5000, [(v, v + 1) for v in range(4999)]))
        assert len(out) == 4999

    def test_big_built_graph_stays_simple(self):
        g = build(FractalParams(Family.CYCLE, 3, 2, 5))  # 4053 vertices
        hist = degree_histogram(g)
        assert sum(hist.values()) == g.vertex_count == 4053
        assert sum(d * c for d, c in hist.items()) == 2 * g.edge_count
        assert sum(len(b.edges) for b in blocks(g)) == g.edge_count


class TestChains:
    def test_edge_adjacency(self):
        assert edge_adjacency([(0, 1), (2, 1), (1, 3)]) == {0: [1], 1: [0, 2, 3], 2: [1], 3: [1]}
        assert edge_adjacency([]) == {}

    def test_cycle_with_one_end(self):
        adj = edge_adjacency([(0, 1), (1, 2), (2, 3), (3, 0), (0, 4)])
        assert list(chains(adj, [0, 4])) == [(0, 0, [1, 2, 3]), (0, 4, [])]

    def test_path_between_two_ends(self):
        adj = edge_adjacency([(0, 1), (1, 2), (2, 3)])
        assert list(chains(adj, [3, 0])) == [(3, 0, [2, 1])]

    def test_edge_between_ends_once(self):
        adj = edge_adjacency(combinations(range(4), 2))
        out = list(chains(adj, range(4)))
        assert out == [(x, y, []) for x, y in combinations(range(4), 2)]

    def test_three_parallel_chains(self):
        edges = [(0, 2), (2, 1), (0, 3), (3, 4), (4, 1), (0, 5), (5, 6), (6, 7), (7, 1)]
        assert list(chains(edge_adjacency(edges), [0, 1])) == [
            (0, 1, [2]), (0, 1, [3, 4]), (0, 1, [5, 6, 7])]

    def test_bare_cycle_component(self):
        adj = {0: [1], 1: [0], 2: [3, 4], 3: [2, 4], 4: [2, 3]}
        assert list(chains(adj, [0, 1])) == [(0, 1, [])]
        # the kernel's dropped vertex, 0, never reaches the cycle
        with pytest.raises(DisconnectedGraphError):
            _reduced_laplacian_determinant(adj)

    def test_degree_two_end(self):
        # a degree-2 vertex listed as an end, as the kernel lists the
        # dropped vertex: it splits its chain, or closes a cycle on itself
        path = edge_adjacency([(0, 1), (1, 2), (2, 3), (3, 4)])
        assert list(chains(path, [0, 2, 4])) == [(0, 2, [1]), (2, 4, [3])]
        cycle = edge_adjacency([(k, (k + 1) % 5) for k in range(5)])
        assert list(chains(cycle, [2])) == [(2, 2, [1, 0, 4, 3])]

    @given(st.integers(0, 2**32), st.integers(2, 4))
    @settings(max_examples=100, deadline=None)
    def test_chains_cover_a_subdivided_graph(self, seed, m):
        rng = random.Random(seed)
        g = ept(random_connected_graph(rng, max_n=rng.randint(2, 12), density=rng.randint(1, 2)), m)
        adj = dict(enumerate(g.adjacency))
        ends = [0] + [v for v in adj if v and len(adj[v]) != 2]
        out = list(chains(adj, ends))
        walked = Counter()
        for x, y, inner in out:
            line = [x, *inner, y]
            walked.update(frozenset(e) for e in zip(line, line[1:]))
            assert all(len(adj[v]) == 2 and v not in ends for v in inner)
            assert all(b in adj[a] for a, b in zip(line, line[1:]))
        # the inner lists partition the degree-2 non-ends, and each edge
        # lies on exactly one chain
        assert sorted(v for *_, inner in out for v in inner) == [
            v for v in adj if len(adj[v]) == 2 and v not in ends]
        assert sum(len(inner) + 1 for *_, inner in out) == g.edge_count
        assert walked == Counter(map(frozenset, g.edges()))


@pytest.mark.parametrize("p", [FractalParams(Family.CYCLE, 3, 2, 6),
                               FractalParams(Family.CYCLE, 3, 2, 7),
                               FractalParams(Family.WHEEL, 4, 2, 4),
                               FractalParams(Family.CYCLE, 3, 3, 5),
                               FractalParams(Family.WHEEL, 3, 3, 4)],
                         ids=lambda p: f"{p.family.value}-{p.n}-{p.m}-{p.i}")
def test_shape_walk_peak_within_the_graph(p, traced):
    # the walk yields each block as it closes, keeps no list of them, holds
    # state past `disc` only for its open vertices, and gives every other
    # visited vertex one shared mark in `disc`: measured 0.16-0.24 of the
    # graph's own bytes (the n = 3 wheel highest), against 0.45-0.51 with
    # an int of its own per vertex
    g, retained, _ = traced(build, p)
    _, _, peak = traced(block_shapes, g)
    assert peak <= 0.3 * retained


def _ladder(k: int) -> Graph:
    """The k-rung ladder: rails 0..k-1 and k..2k-1, rung r from r to r + k."""
    rails = [(r, r + 1) for r in range(k - 1)]
    return plain_graph(2 * k, [*rails, *((u + k, v + k) for u, v in rails),
                               *((r, r + k) for r in range(k))])


def test_walk_peak_on_a_deep_search(traced):
    # the ladder is one block whose search keeps nearly every vertex open
    # at once, so the walk's state per open vertex sets its peak: measured
    # 1.31 of the graph's bytes, a ceiling for any state added per frame
    g, retained, _ = traced(_ladder, 20000)
    out, _, peak = traced(lambda g: list(graph._block_walk(g)), g)
    ((head, members),) = out
    assert sorted([head, *members]) == list(range(40000))
    assert peak <= 1.5 * retained


def _subdivided(edges, p, longer=None, seed=0) -> Graph:
    """``edges`` with each edge drawn out into a path of p edges (edge
    number ``longer`` into p + 1), its vertex ids shuffled."""
    n = 1 + max(map(max, edges))
    paths = []
    for idx, (u, v) in enumerate(edges):
        line = [u, *range(n, n + p - 1 + (idx == longer)), v]
        n += len(line) - 2
        paths += zip(line, line[1:])
    ids = list(range(n))
    random.Random(seed).shuffle(ids)
    return plain_graph(n, [(ids[u], ids[v]) for u, v in paths])


def _signatures(g: Graph) -> list:
    """Every block's signature, checked to agree with the shape census."""
    out = [b.signature for b in blocks(g)]
    assert block_census(g) == Counter(out)
    return out


class TestBlockCensus:
    """The per-shape census against one classification per block."""

    @pytest.mark.parametrize("family", list(Family), ids=lambda f: f.value)
    @pytest.mark.parametrize("n,m", [(n, m) for n in (3, 4, 5) for m in (2, 3)])
    def test_family_graphs(self, family, n, m):
        # n = 3 wheels are subdivided K_4, where every branch vertex is a hub
        for i in range(5):
            g = build(FractalParams(family, n, m, i))
            assert block_census(g) == Counter(b.signature for b in blocks(g)), f"i={i}"

    def test_relabelled_copies(self, glued_graphs):
        # other shapes and bridges, each repeated under new vertex ids
        for g in glued_graphs:
            assert block_census(g) == Counter(b.signature for b in blocks(g))

    @pytest.mark.parametrize("family,n,m,i", [(Family.CYCLE, 3, 2, 5), (Family.WHEEL, 4, 2, 3)])
    def test_classifies_each_shape_once(self, monkeypatch, family, n, m, i):
        g = build(FractalParams(family, n, m, i))
        calls = []
        original = graph._classify_block

        def spy(edges):
            calls.append(edges)
            return original(edges)

        monkeypatch.setattr(graph, "_classify_block", spy)
        block_census(g)
        assert len(set(calls)) == len(calls)
        assert len(calls) <= sum(not isinstance(key, int) for key in block_shapes(g))


# triangle 0-1-2 with each vertex the head of its own K_4
_TRIANGLE_OF_K4S = [(0, 1), (1, 2), (0, 2), *combinations((0, 3, 4, 5), 2),
                    *combinations((1, 6, 7, 8), 2), *combinations((2, 9, 10, 11), 2)]


class TestFreeEdgeCycleTest:
    """block_shapes finds a cycle from free-edge counts alone.  A slip in
    that bookkeeping still counts exactly, since the determinant of any
    key is exact; it shows only as a cycle block keyed by its edges."""

    @pytest.mark.parametrize("n,m", [(n, m) for n in (3, 4, 5) for m in (2, 3)])
    def test_cycle_family_keys_are_lengths(self, n, m):
        for i in range(5):
            g = build(FractalParams(Family.CYCLE, n, m, i))
            shapes = block_shapes(g)
            assert all(isinstance(key, int) for key in shapes), f"i={i}"
            assert shapes == Counter(len(b.vertices) for b in blocks(g)), f"i={i}"

    @pytest.mark.parametrize("edges,cycles,others", [
        ([(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (4, 5)], {3: 1}, 3),  # pendant path
        ([(0, 1)], {}, 1),  # single edge
        ([(2, 0), (2, 1), (2, 3), (2, 4), (2, 5)], {}, 5),  # star
        ([(0, 1), (0, 2), (2, 1), (0, 3), (3, 4), (4, 1)], {}, 1),  # theta
        ([(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (1, 3)], {}, 1),  # cycle with a chord
        (_TRIANGLE_OF_K4S, {3: 1}, 3),
    ], ids=["pendant-path", "edge", "star", "theta", "chord", "triangle-of-k4s"])
    def test_only_cycles_get_int_keys(self, edges, cycles, others):
        g = plain_graph(1 + max(map(max, edges)), edges)
        shapes = block_shapes(g)
        assert {k: c for k, c in shapes.items() if isinstance(k, int)} == cycles
        assert sum(c for k, c in shapes.items() if not isinstance(k, int)) == others
        assert tau_blocks(g) == tau_oracle(g)


def _networkx_blocks(g, nx):
    h = nx.from_edgelist(g.edges())
    h.add_nodes_from(range(g.vertex_count))
    return sorted(sorted(tuple(sorted(e)) for e in c) for c in nx.biconnected_component_edges(h))


def _assert_blocks_match_networkx(g):
    nx = pytest.importorskip("networkx")
    out = blocks(g)
    assert sorted(list(b.edges) for b in out) == _networkx_blocks(g, nx)
    assert sum(block_shapes(g).values()) == len(out)
    assert block_census(g) == Counter(b.signature for b in out)


def _randomly_subdivided(rng, g):
    """g with each edge drawn out into a path of 1-4 edges, ids shuffled."""
    edges = []
    size = g.vertex_count
    for u, v in g.edges():
        inner = rng.randint(0, 3)
        path = [u, *range(size, size + inner), v]
        size += inner
        edges += zip(path, path[1:])
    perm = list(range(size))
    rng.shuffle(perm)
    return plain_graph(size, [(perm[u], perm[v]) for u, v in edges])


class TestBlocksAgainstNetworkx:
    """A third implementation of biconnected components, for tests only."""

    def test_subdivided_random_graphs(self):
        # degree-2 chains of every kind: closing on the vertex they leave
        # or on an ancestor of it, ending at a new branch vertex, bridges
        # drawn out into chains, and pendant paths (subdivided tree edges)
        rng = random.Random(20261018)
        for k in range(400):
            base_graph = random_connected_graph(rng, max_n=rng.randint(2, 16), density=1 + k % 2)
            g = _randomly_subdivided(rng, base_graph)
            _assert_blocks_match_networkx(g)
            if g.vertex_count <= 40:
                assert tau_blocks(g) == tau_oracle(g)

    def test_long_cycle(self):
        # vertex 0 has degree 2, so the whole walk is one chain back to it
        n = 1201
        g = plain_graph(n, [(k, (k + 1) % n) for k in range(n)])
        _assert_blocks_match_networkx(g)
        assert [b.signature for b in blocks(g)] == [("cycle", n)]
        assert tau_blocks(g) == n

    def test_random_graphs(self):
        rng = random.Random(20240817)
        for k in range(200):
            g = random_connected_graph(rng, max_n=rng.randint(2, 30), density=1 + k % 2)
            _assert_blocks_match_networkx(g)

    def test_relabelled_copies(self, glued_graphs):
        for g in glued_graphs:
            _assert_blocks_match_networkx(g)

    @pytest.mark.parametrize("family", list(Family), ids=lambda f: f.value)
    def test_family_graphs(self, family):
        for n in (3, 4, 5):
            for m in (2, 3):
                for i in range(4):
                    _assert_blocks_match_networkx(build(FractalParams(family, n, m, i)))

    # One graph for each way a chain of degree-2 vertices can end.  The
    # walk starts at 0 and takes neighbours in ascending order; vertices
    # of degree 1 or 3 get frames, and the chain runs from frame v.
    @pytest.mark.parametrize("edges", [
        # bridge 0 - 1, then the chain 2 - 3 from v = 1 returns to 1
        [(0, 1), (1, 2), (2, 3), (3, 1)],
        # 0 - 1 - 6 are frames; the chain 2 - 3 from v = 6 ends at 0, above
        # v's parent 1; 4, 5 and 7 are pendants
        [(0, 1), (1, 6), (6, 2), (2, 3), (3, 0), (0, 4), (1, 5), (6, 7)],
        # the chain 1 - 2 from v = 0 reaches 3, whose chain 4 ends at 0
        [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (3, 5), (0, 6)],
        # the chain 2 from v = 1 reaches 3, whose chain 4 ends at 0, above v
        [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (1, 5), (3, 6), (0, 7)],
        # the chain 1 - 2 from v = 0 reaches 3, whose subtree (a cycle
        # through 3) reaches nothing above 3: a block headed at 2, then
        # the bridges 1 - 2 and 0 - 1
        [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 3)],
        # the pendant chain 4 - 5 - 6 from v = 0 ends at 7, of degree 1
        [(0, 1), (1, 2), (2, 0), (0, 3), (0, 4), (4, 5), (5, 6), (6, 7)],
    ], ids=["closes-on-start", "closes-above-start", "new-branch-back-to-start",
            "new-branch-back-above-start", "new-branch-no-back-edge", "pendant"])
    def test_every_chain_end(self, edges):
        g = plain_graph(1 + max(map(max, edges)), edges)
        _assert_blocks_match_networkx(g)
        assert tau_blocks(g) == tau_oracle(g)


def _stream_digest(g) -> str:
    """sha256 of the walk's (head, members) stream, joined in order."""
    return hashlib.sha256("".join(
        f"{head}:{','.join(map(str, members))};" for head, members in graph._block_walk(g)
    ).encode()).hexdigest()


def _random_stream_graph() -> Graph:
    rng = random.Random(20261020)
    return _randomly_subdivided(rng, random_connected_graph(rng, max_n=60, density=2))


@pytest.mark.parametrize("make,digest", [
    (lambda: build(FractalParams(Family.CYCLE, 3, 2, 4)),
     "17c67be5a2dd5a54136426e8540fecc23e41cca4aa5727b7489c5fc007f9c3ba"),
    (lambda: build(FractalParams(Family.WHEEL, 4, 2, 3)),
     "963b50e9d2b7630a4cc487e2427bbb4c335dec36d296d8257226142cace7008a"),
    (lambda: build(FractalParams(Family.CYCLE, 4, 3, 3)),
     "4c57736542274a2b3d1273c1071cf0745ed91b5c7a9ff2b586817837101252af"),
    (_random_stream_graph, "fe98c838b4c9a5cc557c63a1d44e1bef251d08bd19135d4efc7e9eebf1d46e9f"),
], ids=["cycle-3-2-4", "wheel-4-2-3", "cycle-4-3-3", "random-subdivided"])
def test_block_walk_stream_is_pinned(make, digest):
    # blocks() sorts, but the census, the block product and the shape keys
    # fold over the stream in post-order, so its order is pinned too
    assert _stream_digest(make()) == digest


@pytest.mark.parametrize("make,digests", [
    (lambda: build(FractalParams(Family.CYCLE, 3, 2, 4)),
     ["9199c1f47757aa4c2f4641e95652f1074c7a86ba1a2b990f5109e21cd2bd0168",
      "3a11889aa4105f9ba93c5b33a6918237546fb860297732895d6d0cf11ea157a1",
      "4833b57fcdf142bd61fce482c4ccc2e514c5c6b29816a1ccabfa673124a3068f"]),
    (lambda: build(FractalParams(Family.WHEEL, 4, 2, 3)),
     ["27af5fe038f165b1aa89ffe01cbb47e14d323a953ce987343ef6b5110452ab2d",
      "dcfbb7a32df5fdcc0a4b77a2e32faa51e4e67e8632c0802af3978281b8536f37",
      "b35ef1ede88d9948e9b16a46e975e528152d7382f5f3d8238b63a4883f5a850e"]),
    (lambda: build(FractalParams(Family.CYCLE, 5, 3, 2)),
     ["74dcd7e91775d604c159cd15cb13cf0424290c141a5d45e2052641fd3b601f48",
      "f0a7c2062cb32a1d3bfeeca5aadb712ec66124c2d22e9899b851d1e6dc6f87d4",
      "8ced6783f9674d67408567b674e72a6ee44360a0e4011201b7082d651d8a42fa"]),
    (lambda: plain_graph(5, _TWO_TRIANGLES),
     ["638af6438b2f3243575731233efebb37b2b3d315fa6c6a2316507debb0042636",
      "c85b11453d5669c4e5a17173db9d0c078372f94c3f549456ef156e7d8b50bfcc",
      "ee54c477bb5a3f6eef9d32e5003ffedb367aeb8efa65e86e92e96e8f44c0aed7"]),
], ids=["cycle-3-2-4", "wheel-4-2-3", "cycle-5-3-2", "two-triangles"])
def test_export_bytes_are_pinned(make, digests):
    # sha256 of each export's joined chunks: edge list, JSON, DOT
    g = make()
    assert [hashlib.sha256("".join(chunks(g)).encode()).hexdigest()
            for chunks in (edgelist_chunks, json_chunks, dot_chunks)] == digests


class TestSerialization:
    def test_edgelist_format(self):
        text = to_edgelist_text(base(Family.CYCLE, 3))
        assert text == "0 1\n0 2\n1 2\n"

    def test_json_schema(self):
        g = build(FractalParams(Family.WHEEL, 4, 2, 0))
        d = to_json_dict(g)
        assert d["family"] == "wheel" and d["n"] == 4 and d["m"] == 2 and d["i"] == 0
        assert len(d["vertices"]) == 5 and len(d["edges"]) == 8
        assert d["vertices"][4]["role"] == "base_hub"
        assert d["edges"] == sorted(d["edges"])
        json.dumps(d)  # serializable

    def test_json_without_params(self):
        d = to_json_dict(base(Family.CYCLE, 4))
        assert d["family"] is None

    @pytest.mark.parametrize(
        "family,n,m,i",
        [
            (Family.CYCLE, 3, 2, 0),
            (Family.CYCLE, 3, 2, 3),
            (Family.CYCLE, 3, 2, 6),
            (Family.CYCLE, 5, 3, 2),
            (Family.WHEEL, 3, 2, 0),
            (Family.WHEEL, 4, 2, 2),
            (Family.WHEEL, 6, 3, 1),
        ],
    )
    def test_json_text_matches_encoder(self, family, n, m, i):
        g = build(FractalParams(family, n, m, i))
        assert "".join(json_chunks(g)) == json.dumps(to_json_dict(g), indent=2) + "\n"

    def test_json_text_without_params(self):
        single = Graph.from_edges(bytearray([ROLE_CODE[VertexRole.FRESH_HUB]]), array("i", [2]), [])
        for g in (base(Family.CYCLE, 4), plain_graph(5, _TWO_TRIANGLES), single, plain_graph(0, [])):
            assert "".join(json_chunks(g)) == json.dumps(to_json_dict(g), indent=2) + "\n"

    @pytest.mark.parametrize("g", [
        build(FractalParams(Family.CYCLE, 3, 2, 6)),
        build(FractalParams(Family.WHEEL, 4, 2, 3)),
        plain_graph(5, _TWO_TRIANGLES),
        plain_graph(1, []),
    ], ids=["cycle-3-2-6", "wheel-4-2-3", "two-triangles", "one-vertex"])
    def test_chunks_join_to_the_whole_text(self, g):
        edges = list(g.edges())
        colors = graph._DOT_COLORS
        dot = ["graph G {"]
        dot += [f'  {v} [color={colors[ROLES[code]]}, label="{v}", birth={birth}];'
                for v, (code, birth) in enumerate(zip(g._roles, g._births))]
        dot += [f"  {u} -- {v};" for u, v in edges]
        dot.append("}")
        whole = {
            edgelist_chunks: "".join(f"{u} {v}\n" for u, v in edges),
            json_chunks: json.dumps(to_json_dict(g), indent=2) + "\n",
            dot_chunks: "\n".join(dot) + "\n",
        }
        for chunks, text in whole.items():
            parts = list(chunks(g))
            assert "".join(parts) == text
            # every chunk but the last is one large write, and none is empty
            assert all(len(part) >= graph._CHUNK_CHARS for part in parts[:-1])
            assert all(parts)
        assert to_edgelist_text(g) == whole[edgelist_chunks]
        assert to_dot(g) == whole[dot_chunks]

    def test_dot_output(self):
        text = to_dot(base(Family.CYCLE, 3))
        assert text.startswith("graph G {")
        assert "0 -- 1;" in text and text.rstrip().endswith("}")

    def test_deterministic(self):
        p = FractalParams(Family.WHEEL, 5, 2, 1)
        assert to_edgelist_text(build(p)) == to_edgelist_text(build(p))
        assert to_json_dict(build(p)) == to_json_dict(build(p))
