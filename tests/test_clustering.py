from collections import Counter
from fractions import Fraction
from itertools import combinations
from math import comb

import pytest

from fractree.clustering import (
    average_clustering,
    clustering_closed,
    degree_census_predicted,
)
from fractree.construct import base, build, ept
from fractree.graph import ROLE_CODE, VertexRole, degree_histogram, plain_graph
from fractree.params import Family, FractalParams
from fractree.verify import random_connected_graph


def local_coefficients(g) -> list:
    """Every vertex's clustering coefficient, by brute force: the share of
    its neighbour pairs that an edge joins, 0 below degree 2.

    Each pair is looked up in a set of the graph's edges, so this shares
    no code with the package's scan.
    """
    edges = set(g.edges())  # (u, v) with u < v, as combinations of a sorted tuple
    out = []
    for v in range(g.vertex_count):
        pairs = list(combinations(g.neighbors(v), 2))
        out.append(Fraction(sum(p in edges for p in pairs), len(pairs)) if pairs else Fraction(0))
    return out


class TestLocal:
    """The oracle on graphs whose coefficients are known by hand, then the
    package's histogram against the oracle."""

    def test_complete_graph(self):
        assert local_coefficients(base(Family.WHEEL, 3)) == [1] * 4

    def test_wheel_rim_and_hub(self):
        # every rim vertex and the hub of W_4 have two of three pairs joined
        assert local_coefficients(base(Family.WHEEL, 4)) == [Fraction(2, 3)] * 5

    def test_low_degree_is_zero(self):
        # degree 1, then degree 2 with its ends not adjacent
        assert local_coefficients(plain_graph(3, [(0, 1), (1, 2)]))[:2] == [0, 0]

    def test_isolated_vertex(self):
        assert local_coefficients(plain_graph(1, [])) == [0]

    def test_path_interior_in_stage_graph(self):
        g = build(FractalParams(Family.CYCLE, 3, 2, 1))
        interior = ROLE_CODE[VertexRole.PATH_INTERIOR]
        coefficients = local_coefficients(g)
        interiors = [v for v, code in enumerate(g._roles) if code == interior]
        assert len(interiors) == 3
        assert all(coefficients[v] == 0 for v in interiors)

    def test_classes_match_the_oracle(self, rng):
        graphs = [build(FractalParams(family, n, m, i)) for family, n, m, i in [
            (Family.WHEEL, 3, 2, 1),  # copies of K_4, whose rim neighbours are adjacent
            (Family.WHEEL, 5, 2, 1),
            (Family.WHEEL, 4, 3, 2),
            (Family.CYCLE, 3, 2, 2),
            (Family.CYCLE, 3, 3, 2),
        ]]
        graphs += [random_connected_graph(rng, max_n=30, density=2) for _ in range(20)]
        # subdivided graphs give every vertex of degree >= 3 degree-2
        # neighbours, whose share of its links the scan takes by one probe
        graphs += [ept(random_connected_graph(rng, max_n=20), m)
                   for m in (2, 3) for _ in range(10)]
        # a triangle 0-1-2 whose one degree-2 corner, 2, lists the degree-4
        # vertex 0 first and the degree-3 vertex 1 second; leaves 3, 4 and 5,
        # and a degree-2 neighbour 6 of 0 whose other end 7 is not 0's
        graphs.append(plain_graph(8, [(0, 1), (0, 2), (1, 2), (0, 3), (0, 4),
                                      (1, 5), (0, 6), (6, 7)]))
        # a hub of degree 43: 40 degree-2 neighbours, two of degree 3, one of 40
        graphs.append(build(FractalParams(Family.WHEEL, 40, 2, 1)))
        # the tally's closed and open degree-2 counts, one or both left at
        # zero: K_4 has no degree-2 vertex, C_3 only closed ones, C_5 only
        # open ones; then an isolated vertex, one edge, and a 3-leaf star
        graphs += [base(Family.WHEEL, 3), base(Family.CYCLE, 3), base(Family.CYCLE, 5),
                   plain_graph(1, []), plain_graph(2, [(0, 1)]),
                   plain_graph(4, [(0, 1), (0, 2), (0, 3)])]
        for g in graphs:
            report = average_clustering(g)
            assert report.classes == dict(Counter(local_coefficients(g)))
            assert all(c > 0 for c in report.classes.values())
            assert sum(report.classes.values()) == report.vertex_count == g.vertex_count


class TestAverage:
    def test_example_stage_one(self):
        report = average_clustering(build(FractalParams(Family.CYCLE, 3, 2, 1)))
        assert report.average == Fraction(13, 24)
        assert report.classes == {Fraction(1, 6): 3, Fraction(1): 6, Fraction(0): 3}

    def test_example_stage_two(self):
        report = average_clustering(build(FractalParams(Family.CYCLE, 3, 2, 2)))
        assert report.average == Fraction(257, 510)

    def test_wheel_base(self):
        assert average_clustering(base(Family.WHEEL, 4)).average == Fraction(2, 3)

    def test_wheel_stage_one_n5(self):
        report = average_clustering(build(FractalParams(Family.WHEEL, 5, 2, 1)))
        assert report.average == Fraction(829, 1932)
        assert report.classes == {
            Fraction(0): 10,
            Fraction(2, 3): 24,
            Fraction(1, 2): 6,
            Fraction(2, 15): 5,
            Fraction(1, 14): 1,
        }

    def test_class_counts_cover_all_vertices(self):
        g = build(FractalParams(Family.WHEEL, 4, 2, 2))
        report = average_clustering(g)
        assert sum(report.classes.values()) == g.vertex_count
        recomputed = sum(
            (c * k for c, k in report.classes.items()), Fraction(0)
        ) / g.vertex_count
        assert recomputed == report.average

    def test_iteration_order_does_not_matter(self):
        g = build(FractalParams(Family.WHEEL, 5, 2, 1))
        coefficients = local_coefficients(g)
        forward = sum(coefficients, Fraction(0))
        backward = sum(reversed(coefficients), Fraction(0))
        assert forward == backward == average_clustering(g).average * g.vertex_count

    def test_report_json(self):
        report = average_clustering(base(Family.WHEEL, 4))
        d = report.to_json(closed_form=Fraction(2, 3))
        assert d["average"] == "2/3"
        assert d["closed_form"] == "2/3"
        assert d["match"] is True
        assert d["classes"] == [{"coefficient": "2/3", "count": 5}]


@pytest.mark.parametrize("p", [FractalParams(Family.CYCLE, 3, 2, 6),
                               FractalParams(Family.WHEEL, 4, 2, 4),
                               FractalParams(Family.WHEEL, 300, 2, 1)],
                         ids=lambda p: f"{p.family.value}-{p.n}-{p.m}-{p.i}")
def test_scan_peak_is_flat(p, traced):
    # the scan is one loop that tallies (links, degree) pairs into a dict
    # and holds one neighbour set at a time: a first call measured
    # 0.0011-0.0040 of the graph's own bytes, against about 0.08 for a
    # list of every vertex's link count
    g, retained, _ = traced(build, p)
    _, _, peak = traced(average_clustering, g)
    assert peak <= 0.01 * retained


class TestTriangleFree:
    @pytest.mark.parametrize("n", [4, 5])
    @pytest.mark.parametrize("i", [0, 1, 2])
    def test_every_vertex_zero(self, n, i):
        g = build(FractalParams(Family.CYCLE, n, 2, i))
        classes = average_clustering(g).classes
        assert classes == dict(Counter(local_coefficients(g))) == {0: g.vertex_count}


class TestClosedForms:
    def test_cycle_zero_for_big_n(self):
        assert clustering_closed(FractalParams(Family.CYCLE, 5, 2, 2)) == 0

    def test_cycle_base_triangle(self):
        assert clustering_closed(FractalParams(Family.CYCLE, 3, 2, 0)) == 1
        assert average_clustering(base(Family.CYCLE, 3)).average == 1

    def test_wheel_base_formula(self):
        assert clustering_closed(FractalParams(Family.WHEEL, 4, 2, 0)) == Fraction(2, 3)
        assert clustering_closed(FractalParams(Family.WHEEL, 5, 2, 0)) == Fraction(1, 6) * (
            Fraction(10, 3) + Fraction(1, 2)
        )

    def test_wheel_stage_one_termwise(self):
        assert clustering_closed(FractalParams(Family.WHEEL, 5, 2, 1)) == Fraction(829, 1932)

    @pytest.mark.parametrize(
        "family,n,m,i",
        [
            (Family.CYCLE, 3, 2, 1),
            (Family.CYCLE, 3, 2, 2),
            (Family.CYCLE, 3, 2, 3),
            (Family.CYCLE, 3, 3, 1),
            (Family.CYCLE, 3, 3, 2),
            (Family.WHEEL, 4, 2, 1),
            (Family.WHEEL, 4, 2, 2),
            (Family.WHEEL, 5, 2, 1),
            (Family.WHEEL, 5, 3, 1),
            (Family.WHEEL, 6, 2, 1),
            (Family.WHEEL, 4, 2, 0),
            (Family.WHEEL, 6, 2, 0),
        ],
    )
    def test_closed_matches_direct(self, family, n, m, i):
        p = FractalParams(family, n, m, i)
        assert clustering_closed(p) == average_clustering(build(p)).average

    @pytest.mark.parametrize("i", [0, 1])
    def test_three_wheel_formulas_disagree_with_direct(self, i):
        # K_4 rim adjacency invalidates the 2-link assumption; the direct
        # scan is authoritative and the exact gap is recorded
        p = FractalParams(Family.WHEEL, 3, 2, i)
        direct = average_clustering(build(p)).average
        closed = clustering_closed(p)
        if i == 0:
            assert (direct, closed) == (Fraction(1), Fraction(3, 4))
        else:
            assert (direct, closed) == (Fraction(32, 55), Fraction(74, 165))

    def test_coefficient_classes_cycle3(self):
        # coefficients are only 0, 1, and 1/C(2k,2) for k = 2..i+1
        for m in (2, 3):
            for i in (1, 2):
                p = FractalParams(Family.CYCLE, 3, m, i)
                classes = set(average_clustering(build(p)).classes)
                allowed = {Fraction(0), Fraction(1)} | {
                    Fraction(1, comb(2 * k, 2)) for k in range(2, i + 2)
                }
                assert classes <= allowed


class TestDegreeCensus:
    @pytest.mark.parametrize(
        "family,n,m,i",
        [
            (Family.CYCLE, 3, 2, 0),
            (Family.CYCLE, 3, 2, 1),
            (Family.CYCLE, 3, 2, 2),
            (Family.CYCLE, 4, 3, 2),
            (Family.CYCLE, 6, 2, 2),
            (Family.WHEEL, 3, 2, 2),
            (Family.WHEEL, 4, 2, 2),
            (Family.WHEEL, 5, 2, 1),
            (Family.WHEEL, 5, 3, 1),
            (Family.WHEEL, 6, 2, 1),
        ],
    )
    def test_matches_built_graph(self, family, n, m, i):
        p = FractalParams(family, n, m, i)
        assert degree_census_predicted(p) == degree_histogram(build(p))

    def test_known_histograms(self):
        assert degree_census_predicted(FractalParams(Family.CYCLE, 3, 2, 1)) == {2: 9, 4: 3}
        assert degree_census_predicted(FractalParams(Family.WHEEL, 5, 2, 1)) == {
            2: 10, 3: 24, 5: 6, 6: 5, 8: 1,
        }
        assert degree_census_predicted(FractalParams(Family.CYCLE, 6, 2, 0)) == {2: 6}

    def test_hub_class_collisions_merge(self):
        # n = 3 wheels: fresh hubs (degree 3) collide with fresh rims
        predicted = degree_census_predicted(FractalParams(Family.WHEEL, 3, 2, 1))
        assert predicted == degree_histogram(build(FractalParams(Family.WHEEL, 3, 2, 1)))
