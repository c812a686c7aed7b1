"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest -v -s tests/test_acceptance.py`` to see the per-criterion
lines; the whole suite is exact except where a tolerance is stated.
"""

import random
import time
from ast import literal_eval
from fractions import Fraction

from fractree.clustering import average_clustering, clustering_closed
from fractree.construct import base, build, ept, glv, predicted_block_multiset
from fractree.exact import FactoredCount, bareiss_determinant
from fractree.graph import block_census
from fractree.params import Family, FractalParams
from fractree.sequences import (
    binet_vertex,
    entropy_closed,
    entropy_estimates,
    fibonacci_number,
    lucas_number,
    size_sequences,
)
from fractree.spanning import tau_closed, tau_oracle
from fractree.verify import MATCH, naive_determinant, random_connected_graph


def _report(criterion, text):
    print(f"PASS: criterion {criterion} - {text}")


def test_criterion_1_table_reproduction():
    expected = {
        1: {3: 4, 2: 1},
        2: {3: 16, 2: 5},
        3: {3: 67, 2: 21},
        4: {3: 286, 2: 88},
    }
    t0 = time.perf_counter()
    for i, factors in expected.items():
        got = tau_closed(FractalParams(Family.CYCLE, 3, 2, i))
        assert got == FactoredCount(factors), f"i={i}: {got}"
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0, f"took {elapsed:.3f}s"
    _report(1, f"published table i=1..4 reproduced exactly in {elapsed * 1000:.1f} ms")


def _by_id(report) -> dict:
    return {c.check_id: c for c in report.checks}


def _three_way(checks, tag) -> float:
    """Assert that the closed form, the matrix-tree count and the block
    product agree for one graph; return the matrix-tree route's seconds,
    which include the graph build."""
    closed = checks[f"spanning/closed-vs-oracle/{tag}"]
    blocks = checks[f"spanning/oracle-vs-blocks/{tag}"]
    assert closed.verdict == blocks.verdict == MATCH, tag
    assert closed.value_a == closed.value_b == blocks.value_b, tag
    assert closed.seconds_b < 120.0, f"{tag}: determinant took {closed.seconds_b:.1f}s"
    return closed.seconds_b


def test_criterion_2_oracle_equivalence_cycles(full_report):
    checks = _by_id(full_report)
    grid = [(n, m, i) for n in (3, 4, 5, 6) for m in (2, 3) for i in (1, 2)]
    grid.append((3, 2, 3))
    worst = max(_three_way(checks, f"cycle-{n}-{m}-{i}") for n, m, i in grid)
    _report(
        2,
        f"{len(grid)} cycle instances agree across all three methods "
        f"(largest determinant {worst:.2f}s)",
    )


def test_criterion_3_oracle_equivalence_wheels(full_report):
    checks = _by_id(full_report)
    for i, factors in {1: {45: 6, 2: 4}, 2: {45: 39, 2: 28}}.items():
        fixture = checks[f"arith/tau-closed-fixture/wheel-4-2-{i}"]
        assert fixture.verdict == MATCH
        assert fixture.value_a == str(FactoredCount(factors))
    assert literal_eval(checks["construct/size-law/wheel-4-2-2"].value_a)[0] == 221
    big_dt = max(_three_way(checks, f"wheel-{n}-2-{i}") for n, i in [(4, 1), (4, 2)])
    for n in (3, 5):
        _three_way(checks, f"wheel-{n}-2-1")
    _report(3, f"wheel counts 45^6*2^4 and 45^39*2^28 confirmed "
               f"(221-vertex determinant {big_dt:.2f}s); n=3,5 agree")


def test_criterion_4_size_sequences():
    cyc = FractalParams(Family.CYCLE, 3, 2)
    whl = FractalParams(Family.WHEEL, 4, 2)
    assert size_sequences(cyc, 5).u == (1, 3, 12, 51, 219, 942)
    assert size_sequences(whl, 4).u == (1, 5, 33, 221, 1481)
    built = 0
    for family in Family:
        for n in (3, 4, 5, 6):
            for m in (2, 3):
                for i in (0, 1, 2):
                    p = FractalParams(family, n, m, i)
                    seq = size_sequences(p, i + 1)
                    if seq.u[i + 1] > 2500:
                        continue
                    g = build(p)
                    assert (g.vertex_count, g.edge_count) == (seq.u[i + 1], seq.e[i + 1])
                    built += 1
    for p in (cyc, whl, FractalParams(Family.CYCLE, 6, 3), FractalParams(Family.WHEEL, 5, 4)):
        u = size_sequences(p, 40).u
        for j in range(41):
            assert binet_vertex(p, j) == u[j]
    _report(4, f"published sequences match; {built} built graphs match u/e exactly; "
               f"closed form exact for j<=40")


def test_criterion_5_entropy():
    p = FractalParams(Family.CYCLE, 3, 2)
    t0 = time.perf_counter()
    offset, same = (est.value for est in entropy_estimates(p, 60))
    closed = entropy_closed(p)
    elapsed = time.perf_counter() - t0
    assert abs(offset - 1.70465) <= 1e-4
    assert abs(same - 0.396176) <= 1e-4
    assert abs(closed - offset) <= 1e-6
    assert elapsed < 1.0
    _report(5, f"offset {offset:.6f}, same-stage {same:.6f}, closed {closed:.6f} "
               f"in {elapsed * 1000:.1f} ms")


def test_criterion_6_wheel_entropy_adjudication(full_report):
    checks = _by_id(full_report)
    converged = checks["sequences/entropy-convergence/wheel-4-2"]
    assert converged.verdict == MATCH
    assert float(converged.value_a) < 1e-9
    entry = checks["sequences/entropy-closed/wheel-4-2"]
    assert entry.verdict == "informational"
    assert entry.value_a and entry.value_b and entry.difference
    _report(6, f"limit {float(entry.value_b):.6f} converged "
               f"(|delta|={float(converged.value_a):.2e}); "
               f"closed-form gap {abs(float(entry.difference)):.4f} recorded as "
               f"{entry.difference}")


def test_criterion_7_clustering():
    assert average_clustering(build(FractalParams(Family.CYCLE, 3, 2, 1))).average == Fraction(13, 24)
    for n in (4, 5):
        for i in (1, 2):
            avg = average_clustering(build(FractalParams(Family.CYCLE, n, 2, i))).average
            assert avg == 0, f"n={n} i={i}"
    assert average_clustering(base(Family.WHEEL, 4)).average == Fraction(2, 3)

    p = FractalParams(Family.WHEEL, 5, 2, 1)
    direct = average_clustering(build(p)).average
    formula = clustering_closed(p)
    published = Fraction(815, 1932)
    assert direct == Fraction(829, 1932)
    assert direct - formula == 0
    assert direct - published == Fraction(14, 1932)
    _report(7, f"13/24 exact; zeros exact; 2/3 exact; stage-1 wheel: direct {direct} "
               f"(authoritative) = formula, published {published} off by {direct - published}")


def test_criterion_8_structural_census(full_report):
    checks = _by_id(full_report)
    registered = [
        (Family.CYCLE, 3, 2, 1), (Family.CYCLE, 3, 2, 2), (Family.CYCLE, 3, 2, 3),
        (Family.CYCLE, 4, 2, 2), (Family.CYCLE, 3, 3, 2), (Family.WHEEL, 3, 2, 2),
        (Family.WHEEL, 4, 2, 2), (Family.WHEEL, 5, 2, 1),
    ]
    for family, n, m, i in registered:
        check = checks[f"construct/block-census/{family.value}-{n}-{m}-{i}"]
        assert check.verdict == MATCH, check.check_id
    for p in (FractalParams(Family.CYCLE, 5, 2, 2), FractalParams(Family.WHEEL, 4, 2, 1)):
        assert block_census(build(p)) == predicted_block_multiset(p), f"{p}"
    ms = predicted_block_multiset(FractalParams(Family.CYCLE, 3, 2, 2))
    assert ms == {("cycle", 12): 1, ("cycle", 6): 3, ("cycle", 3): 12}
    _report(8, f"{len(registered) + 2} block decompositions match the copy census; "
               f"stage-2 multiplicities are (1, 3, 12)")


def test_criterion_9_property_suites():
    rng = random.Random(424242)
    for _ in range(30):
        g = random_connected_graph(rng, max_n=10, min_extra=1)
        m = rng.choice((2, 3))
        rank = g.edge_count - g.vertex_count + 1
        assert tau_oracle(ept(g, m)) == m**rank * tau_oracle(g)
    for _ in range(30):
        g = random_connected_graph(rng, max_n=7)
        family = rng.choice((Family.CYCLE, Family.WHEEL))
        n = rng.randint(3, 6)
        hosts = rng.sample(range(g.vertex_count), rng.randint(1, g.vertex_count))
        per_copy = n if family is Family.CYCLE else lucas_number(2 * n) - 2
        assert tau_oracle(glv(g, family, n, hosts)) == tau_oracle(g) * per_copy ** len(hosts)
    for n in range(3, 51):
        assert lucas_number(2 * n) - 2 == (
            fibonacci_number(2 * n + 2) - fibonacci_number(2 * n - 2) - 2
        )
    for _ in range(100):
        order = rng.randint(1, 6)
        mat = [[rng.randint(-9, 9) for _ in range(order)] for _ in range(order)]
        assert bareiss_determinant(mat) == naive_determinant(mat)
    _report(9, "subdivision and attachment identities (30 graphs each), Lucas identity "
               "(n<=50), and 100 determinant cross-checks all exact")
