import functools
import gc
import heapq
import math
from itertools import accumulate

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fractree import spanning, verify
from fractree.construct import base, build, ept, glv
from fractree.errors import BadParameterError, DisconnectedGraphError, SizeCapError
from fractree.exact import FactoredCount, bareiss_determinant, factored_expand
from fractree.graph import Graph, blocks, laplacian_minor, plain_graph
from fractree.params import Family, FractalParams
from fractree.sequences import fibonacci_number, lucas_number, tau_wheel_base
from fractree.spanning import (
    DEFAULT_ORACLE_MAX_VERTICES,
    _reduced_laplacian_determinant,
    tau_blocks,
    tau_closed,
    tau_oracle,
)
from fractree.verify import random_connected_graph


class TestLucasFibonacci:
    def test_lucas_seeds(self):
        assert [lucas_number(k) for k in range(1, 9)] == [1, 3, 4, 7, 11, 18, 29, 47]

    def test_fibonacci_seeds(self):
        assert [fibonacci_number(k) for k in range(1, 9)] == [1, 1, 2, 3, 5, 8, 13, 21]

    def test_wheel_base_counts(self):
        assert tau_wheel_base(3) == 16
        assert tau_wheel_base(4) == 45
        assert tau_wheel_base(5) == 121

    def test_identity_up_to_50(self):
        for n in range(3, 51):
            assert lucas_number(2 * n) - 2 == (
                fibonacci_number(2 * n + 2) - fibonacci_number(2 * n - 2) - 2
            )

    def test_golden_ratio_form(self):
        golden = (1 + math.sqrt(5)) / 2
        for n in range(3, 31):
            approx = golden ** (2 * n) + golden ** (-2 * n) * math.cos(2 * math.pi * n) - 2
            exact = tau_wheel_base(n)
            assert abs(approx - exact) <= 1e-9 * exact

    def test_bad_n(self):
        with pytest.raises(BadParameterError):
            tau_wheel_base(2)


class TestTauOracle:
    def test_cycle(self):
        assert tau_oracle(base(Family.CYCLE, 5)) == 5

    def test_wheel(self):
        assert tau_oracle(base(Family.WHEEL, 4)) == 45

    def test_first_stage(self):
        assert tau_oracle(build(FractalParams(Family.CYCLE, 3, 2, 1))) == 162

    def test_tiny_graphs(self):
        assert tau_oracle(plain_graph(2, [(0, 1)])) == 1
        assert tau_oracle(plain_graph(1, [])) == 1

    def test_disconnected(self):
        with pytest.raises(DisconnectedGraphError):
            tau_oracle(plain_graph(4, [(0, 1), (2, 3)]))

    def test_size_cap(self):
        with pytest.raises(SizeCapError):
            tau_oracle(base(Family.CYCLE, DEFAULT_ORACLE_MAX_VERTICES + 1))

    def test_default_cap_boundary(self):
        # a path is a tree: one spanning tree at the cap, refused one above it
        assert tau_oracle(_path(DEFAULT_ORACLE_MAX_VERTICES)) == 1
        with pytest.raises(SizeCapError):
            tau_oracle(_path(DEFAULT_ORACLE_MAX_VERTICES + 1))

    def test_cap_checked_before_connectivity(self):
        with pytest.raises(SizeCapError):
            tau_oracle(plain_graph(DEFAULT_ORACLE_MAX_VERTICES + 1, []))

    def test_omitted_vertex_independence(self, rng):
        for _ in range(20):
            g = random_connected_graph(rng, max_n=7)
            dets = {
                bareiss_determinant(laplacian_minor(g, v)) for v in range(g.vertex_count)
            }
            assert len(dets) == 1
            assert dets.pop() >= 1


def _path(n: int) -> Graph:
    return plain_graph(n, [(v - 1, v) for v in range(1, n)])


_K4 = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
# chains of 1, 2 and 3 interior vertices from 0 to 1
_THREE_CHAINS = [(0, 2), (2, 1), (0, 3), (3, 4), (4, 1), (0, 5), (5, 6), (6, 7), (7, 1)]
# graphs on 3-6 vertices: a path 0 - 1 - ... - n-1 keeps them connected
_SMALL_GRAPHS = st.integers(3, 6).flatmap(
    lambda n: st.sets(
        st.tuples(st.integers(0, 5), st.integers(0, 5)).filter(
            lambda e: e[0] < e[1] and e[1] < n
        ),
        max_size=10,
    ).map(lambda extra: plain_graph(n, {(v - 1, v) for v in range(1, n)} | extra))
)


def _sparse_minor_determinant(g: Graph, omit: int) -> int:
    """The sparse kernel on g's adjacency, listed with ``omit`` first."""
    order = [omit] + [v for v in range(g.vertex_count) if v != omit]
    return _reduced_laplacian_determinant({v: g.neighbors(v) for v in order})


class TestSparseKernel:
    """The sparse kernel against the dense Bareiss reference."""

    def test_matches_dense_on_random_graphs(self, rng):
        for _ in range(40):
            g = random_connected_graph(rng, max_n=12)
            omit = rng.randrange(g.vertex_count)
            dense = bareiss_determinant(laplacian_minor(g, omit))
            assert _sparse_minor_determinant(g, omit) == dense

    @pytest.mark.parametrize(
        "family,n,m,i",
        [
            (Family.CYCLE, 3, 2, 2),
            (Family.CYCLE, 3, 2, 3),
            (Family.CYCLE, 4, 3, 2),
            (Family.WHEEL, 3, 2, 2),
            (Family.WHEEL, 4, 2, 2),
        ],
    )
    def test_matches_dense_on_family_graphs(self, family, n, m, i):
        g = build(FractalParams(family, n, m, i))
        assert g.vertex_count <= 300
        dense = bareiss_determinant(laplacian_minor(g, 0))
        assert _sparse_minor_determinant(g, 0) == dense

    def test_matches_dense_on_larger_random_graphs(self, rng):
        # 30-60 vertices and about 2V edges: elimination fills in and the
        # pivots carry large denominators
        for _ in range(12):
            g = random_connected_graph(rng, max_n=60, min_n=30, density=2)
            omit = rng.randrange(g.vertex_count)
            dense = bareiss_determinant(laplacian_minor(g, omit))
            assert _sparse_minor_determinant(g, omit) == dense

    def test_pairs_stay_reduced(self, rng, monkeypatch):
        # Reducing by a divisor smaller than the full gcd leaves every pair
        # correct but lets entries grow: watch the largest gcd argument
        # against the Hadamard bound on the determinant, in bits
        largest = 0

        def spy(a, b):
            nonlocal largest
            largest = max(largest, a.bit_length(), b.bit_length())
            return math.gcd(a, b)

        monkeypatch.setattr(spanning, "gcd", spy)
        for _ in range(12):
            g = random_connected_graph(rng, max_n=60, min_n=30, density=3)
            adj = g.adjacency
            hadamard_bits = sum(
                math.log2(len(adj[v]) ** 2 + sum(1 for w in adj[v] if w != 0)) / 2
                for v in range(1, g.vertex_count)
            )
            largest = 0
            assert tau_oracle(g) == bareiss_determinant(laplacian_minor(g, 0))
            assert largest <= 3 * hadamard_bits

    def test_singular_minor_raises(self):
        # two components: the minor is singular, so a zero pivot appears
        with pytest.raises(ArithmeticError):
            _reduced_laplacian_determinant({0: [1], 1: [0], 2: [3], 3: [2]})
        # the second component is a bare cycle, so no chain reaches it
        with pytest.raises(ArithmeticError):
            _reduced_laplacian_determinant({0: [1], 1: [0], 2: [3, 4], 3: [2, 4], 4: [2, 3]})

    @pytest.mark.parametrize(
        "n,edges",
        [
            (7, [(k, (k + 1) % 7) for k in range(7)]),
            (6, [(v - 1, v) for v in range(1, 6)]),
            # legs of 1, 2 and 3 edges from vertex 0, each ending at a leaf
            (7, [(0, 1), (0, 2), (2, 3), (0, 4), (4, 5), (5, 6)]),
            # K4 with a 5-cycle and a 2-edge leg hung at vertex 0
            (10, _K4 + [(0, 4), (4, 5), (5, 6), (6, 7), (7, 0), (0, 8), (8, 9)]),
            # chains of 2 and 3 edges from 0 to 1, with and without a direct edge
            (5, [(0, 2), (2, 1), (0, 3), (3, 4), (4, 1), (0, 1)]),
            (8, _THREE_CHAINS),
            (8, _THREE_CHAINS + [(0, 1)]),
            # three chains from vertex 0 of K4 back to itself or to vertex 1
            (10, _K4 + [(0, 4), (4, 5), (5, 0), (0, 6), (6, 7), (7, 1), (1, 8), (8, 9), (9, 0)]),
        ],
        ids=["cycle", "path", "tree", "hanging-cycle", "two-chains-and-edge",
             "three-chains", "three-chains-and-edge", "loops-and-chains"],
    )
    def test_chains_match_dense_for_every_omitted_vertex(self, n, edges):
        g = plain_graph(n, edges)
        for omit in range(n):
            dense = bareiss_determinant(laplacian_minor(g, omit))
            assert _sparse_minor_determinant(g, omit) == dense, omit

    @given(_SMALL_GRAPHS, st.integers(2, 4), st.integers(0, 10**6))
    @settings(max_examples=60, deadline=None)
    def test_omitted_vertex_inside_a_chain(self, g, m, pick):
        sub = ept(g, m)
        interiors = range(g.vertex_count, sub.vertex_count)  # ept appends them
        omit = interiors[pick % len(interiors)]
        dense = bareiss_determinant(laplacian_minor(sub, omit))
        assert _sparse_minor_determinant(sub, omit) == dense

    def test_no_pivot_on_a_chain_vertex(self, monkeypatch):
        # chains are contracted before the heap: every vertex the heap
        # hands out is of another degree
        g = build(FractalParams(Family.CYCLE, 4, 3, 2))
        popped = []

        def spy(heap):
            item = heapq.heappop(heap)
            popped.append(item[1])
            return item

        monkeypatch.setattr(spanning, "heappop", spy)
        assert tau_oracle(g) == factored_expand(tau_closed(FractalParams(Family.CYCLE, 4, 3, 2)))
        assert popped
        assert all(len(g.neighbors(v)) != 2 for v in popped)


def _plain_block_product(g: Graph) -> int:
    """One kernel call per block, with no shape memo."""
    result = 1
    for block in blocks(g):
        adj = {}
        for u, v in block.edges:
            adj.setdefault(u, []).append(v)
            adj.setdefault(v, []).append(u)
        result *= _reduced_laplacian_determinant(adj)
    return result


class TestTauBlocks:
    def test_two_triangles(self):
        g = plain_graph(5, [(0, 1), (1, 2), (2, 0), (0, 3), (3, 4), (4, 0)])
        assert tau_blocks(g) == 9

    def test_first_stage_product(self):
        # three triangles and the central 6-cycle: 3^3 * 6
        assert tau_blocks(build(FractalParams(Family.CYCLE, 3, 2, 1))) == 162

    def test_wheel_first_stage(self):
        g = build(FractalParams(Family.WHEEL, 4, 2, 1))
        assert tau_blocks(g) == 45**5 * 720 == 45**6 * 2**4

    def test_matches_oracle_on_random_graphs(self, rng):
        for _ in range(15):
            g = random_connected_graph(rng, max_n=9)
            assert tau_blocks(g) == tau_oracle(g)

    def test_repeated_shapes_match_plain_product(self, glued_graphs):
        for g in glued_graphs:
            assert tau_blocks(g) == _plain_block_product(g) == tau_oracle(g)

    def test_cycles_of_several_lengths(self):
        for length in range(3, 12):
            assert tau_blocks(base(Family.CYCLE, length)) == length
        # one cycle of each length 3..9, each hung off the last one's vertex
        heads = list(accumulate(range(2, 9), initial=0))  # a cycle ends on the next head
        g = plain_graph(heads[-1] + 1, [(h + k, h + (k + 1) % length)
                                        for length, h in zip(range(3, 10), heads)
                                        for k in range(length)])
        assert tau_blocks(g) == _plain_block_product(g) == math.factorial(9) // 2

    @pytest.mark.parametrize(
        "family,n,m",
        [(Family.CYCLE, 3, 2), (Family.CYCLE, 4, 3), (Family.WHEEL, 3, 2), (Family.WHEEL, 4, 2)],
    )
    def test_family_graphs_match_plain_product(self, family, n, m):
        for i in range(5):
            g = build(FractalParams(family, n, m, i))
            assert tau_blocks(g) == _plain_block_product(g), f"{family.value}-{n}-{m}-{i}"

    @pytest.mark.parametrize("walk", [blocks, tau_blocks], ids=["blocks", "tau_blocks"])
    def test_gc_state_restored(self, walk):
        # the block walk, whole or cut short by a disconnected graph, leaves
        # the caller's cyclic GC state as it found it
        g = build(FractalParams(Family.CYCLE, 3, 2, 2))
        disconnected = plain_graph(3, [(0, 1)])
        assert gc.isenabled()
        walk(g)
        assert gc.isenabled()
        with pytest.raises(DisconnectedGraphError):
            walk(disconnected)
        assert gc.isenabled()
        gc.disable()
        try:
            walk(g)
            assert not gc.isenabled()
        finally:
            gc.enable()

    def test_single_vertex(self):
        assert tau_blocks(plain_graph(1, [])) == 1

    def test_tree_has_one_spanning_tree(self):
        g = plain_graph(6, [(v, (v - 1) // 2) for v in range(1, 6)])
        assert tau_blocks(g) == tau_oracle(g) == 1


class TestTauClosed:
    @pytest.mark.parametrize(
        "i,factors",
        [
            (1, {3: 4, 2: 1}),
            (2, {3: 16, 2: 5}),
            (3, {3: 67, 2: 21}),
            (4, {3: 286, 2: 88}),
        ],
    )
    def test_published_table(self, i, factors):
        assert tau_closed(FractalParams(Family.CYCLE, 3, 2, i)) == FactoredCount(factors)

    @pytest.mark.parametrize(
        "i,factors",
        [(1, {45: 6, 2: 4}), (2, {45: 39, 2: 28}), (3, {45: 260, 2: 184})],
    )
    def test_published_wheel_counts(self, i, factors):
        assert tau_closed(FractalParams(Family.WHEEL, 4, 2, i)) == FactoredCount(factors)

    def test_base_cycle(self):
        assert tau_closed(FractalParams(Family.CYCLE, 7, 2, 0)) == FactoredCount({7: 1})

    def test_base_wheel(self):
        assert tau_closed(FractalParams(Family.WHEEL, 5, 2, 0)) == FactoredCount({121: 1})


class TestIdentities:
    def test_subdivision_identity(self, rng):
        for _ in range(30):
            g = random_connected_graph(rng, max_n=10, min_extra=1)
            m = rng.choice((2, 3))
            rank = g.edge_count - g.vertex_count + 1
            sub = ept(g, m)
            tau = tau_oracle(sub)
            assert tau == m**rank * tau_oracle(g)
            # the kernel contracts the chains ept makes, so hold it to a
            # route that does not
            if sub.vertex_count <= 40:
                assert tau == bareiss_determinant(laplacian_minor(sub, 0))

    @given(_SMALL_GRAPHS, st.integers(2, 4))
    @settings(max_examples=60, deadline=None)
    def test_subdivision_identity_hypothesis(self, g, m):
        rank = g.edge_count - g.vertex_count + 1
        assert tau_oracle(ept(g, m)) == m**rank * tau_oracle(g)

    def test_attachment_identity(self, rng):
        for _ in range(30):
            g = random_connected_graph(rng, max_n=7)
            family = rng.choice((Family.CYCLE, Family.WHEEL))
            n = rng.randint(3, 6)
            hosts = rng.sample(range(g.vertex_count), rng.randint(1, g.vertex_count))
            per_copy = n if family is Family.CYCLE else tau_wheel_base(n)
            assert tau_oracle(glv(g, family, n, hosts)) == tau_oracle(g) * per_copy ** len(
                hosts
            )

    def test_central_graph_counts(self):
        # the central graph after k subdivision rounds of the base:
        # cycles gain a factor m per round, wheels a factor m^n
        c = base(Family.CYCLE, 3)
        w = base(Family.WHEEL, 4)
        assert tau_oracle(ept(c, 2)) == 6
        assert tau_oracle(ept(ept(c, 2), 2)) == 12
        assert tau_oracle(ept(w, 2)) == 2**4 * 45
        assert tau_oracle(ept(ept(w, 2), 2)) == 2**8 * 45


def _assert_tau_routes_agree(p):
    """The registry's closed-vs-oracle and oracle-vs-blocks checks for p,
    run as ``verify`` runs them, both MATCH: the closed form, the
    matrix-tree determinant and the block product agree."""
    checks = verify._tau_checks(p, functools.cache(build), verify.FULL)
    results = [verify.run_check(check) for check in checks]
    assert [r.verdict for r in results] == [verify.MATCH, verify.MATCH], results


class TestThreeWayAgreement:
    @pytest.mark.parametrize(
        "family,n,m,i",
        [
            (Family.CYCLE, 3, 2, 1),
            (Family.CYCLE, 3, 2, 2),
            (Family.CYCLE, 4, 3, 1),
            (Family.CYCLE, 5, 2, 1),
            (Family.WHEEL, 3, 2, 1),
            (Family.WHEEL, 4, 2, 1),
            (Family.WHEEL, 5, 2, 1),
        ],
    )
    def test_small_grid(self, family, n, m, i):
        _assert_tau_routes_agree(FractalParams(family, n, m, i))

    def test_full_grid(self):
        # the whole declared equivalence range plus every stage-3 wheel and
        # four graphs of about 10^4 vertices or more; the largest is the
        # 21,336-vertex wheel-5-2-4 (about 0.33 s of sparse elimination)
        grid = [
            (family, n, m, i)
            for family in Family
            for n in (3, 4, 5, 6)
            for m in (2, 3)
            for i in (0, 1, 2)
        ]
        grid += [(Family.WHEEL, n, m, 3) for n in (3, 4, 5, 6) for m in (2, 3)]
        grid += [
            (Family.CYCLE, 3, 2, 3),
            (Family.CYCLE, 3, 2, 6),
            (Family.CYCLE, 5, 3, 4),
            (Family.WHEEL, 4, 2, 4),
            (Family.WHEEL, 5, 2, 4),
        ]
        for family, n, m, i in grid:
            _assert_tau_routes_agree(FractalParams(family, n, m, i))
