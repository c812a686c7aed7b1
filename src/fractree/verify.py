"""Cross-check harness: every invariant computed two ways, both recorded.

Each check compares an authoritative route (usually direct computation on
a built graph) against an independent route (closed form, block product,
published fixture).  The checks are declared in one registry: each entry
holds its two routes as zero-argument callables, and one runner times
every route on its own.  Building the registry computes nothing.  A value
that two checks share (a graph, a determinant, a seeded random draw) is one
cached thunk, computed by whichever route needs it first.

Mismatches never abort the run.  Known disagreements of the published
closed forms with direct enumeration live in an allowlist with the exact
expected values on both sides: those downgrade to "informational", while
any new mismatch keeps the suite red.
"""

from __future__ import annotations

import hashlib
import json
import math
import operator
import random
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache
from typing import Callable

from . import __version__, clustering, construct, exact, graph, sequences, spanning
from .exact import FactoredCount
from .graph import Graph
from .params import Family, FractalParams

MATCH = "match"
MISMATCH = "mismatch"
INFORMATIONAL = "informational"

QUICK = "quick"
FULL = "full"
INFO = "info"


@dataclass(frozen=True)
class AllowedDiscrepancy:
    value_a: str
    value_b: str
    reason: str


# Exact expected values on both sides; a mismatch is downgraded only if it
# reproduces these verbatim.
ALLOWLIST = {
    "sequences/binet-fixed-constants/wheel-4-2": AllowedDiscrepancy(
        "1", "0.375304952446",
        "fixed-constant closed form for wheel vertex counts fails at j=0; "
        "seed-derived coefficients are authoritative",
    ),
    "sequences/entropy-closed/wheel-4-2": AllowedDiscrepancy(
        "33.8120902156", "5.04589076958",
        "the explicit wheel entropy formula does not reproduce the "
        "recurrence limit; the limit is authoritative",
    ),
    "spanning/central-prose-step/wheel-4-2": AllowedDiscrepancy(
        "720", "16",
        "the once-subdivided wheel has m^n*(L_2n - 2) spanning trees, not "
        "m^n; the final count formula is unaffected",
    ),
    "construct/census-stated-count/cycle-3-3-2": AllowedDiscrepancy(
        "6", "3",
        "the stated cycle copy census omits a factor (m-1), invisible at "
        "m=2; structural block counts are authoritative",
    ),
    "clustering/example-arithmetic/cycle-3-2-2": AllowedDiscrepancy(
        "257/510", "137/510",
        "worked-example arithmetic uses 12 where the formula term "
        "2*u_2 = 24 is correct; formula and direct scan agree",
    ),
    "clustering/published-average/wheel-5-2-1": AllowedDiscrepancy(
        "829/1932", "815/1932",
        "direct scan and the stage-1 formula both give 829/1932; the "
        "published 815/1932 is a typo",
    ),
    "clustering/closed-form/wheel-3-2-0": AllowedDiscrepancy(
        "1", "3/4",
        "the base-wheel clustering formula assumes non-adjacent rim "
        "neighbor pairs, false for the 3-wheel (K_4)",
    ),
    "clustering/closed-form/wheel-3-2-1": AllowedDiscrepancy(
        "32/55", "74/165",
        "stage formulas assume 2 links per host neighborhood; the 3-wheel "
        "rim adjacency adds a third",
    ),
}


# Published average-clustering values for specific parameters, shown by the
# CLI next to the direct scan.  The wheel entry disagrees with both direct
# enumeration and the stage-1 formula (see ALLOWLIST).
PUBLISHED_CLUSTERING = {
    (Family.CYCLE, 3, 2, 1): Fraction(13, 24),
    (Family.CYCLE, 3, 2, 2): Fraction(137, 510),
    (Family.WHEEL, 4, 2, 0): Fraction(2, 3),
    (Family.WHEEL, 5, 2, 1): Fraction(815, 1932),
}


@dataclass(frozen=True)
class Check:
    """One cross-check: two zero-argument routes to the same value.

    ``compare`` is a predicate ``(value_a, value_b) -> bool`` that decides
    a match, or :data:`INFO` to record both values without a verdict.  A
    ``quick`` check runs at both levels, a ``full`` check only in the full
    suite.
    """

    id: str
    params: str
    name_a: str
    route_a: Callable
    name_b: str
    route_b: Callable
    compare: Callable | str = operator.eq
    level: str = QUICK
    note: str = ""


@dataclass
class CheckResult:
    check_id: str
    params: str
    method_a: str
    value_a: str
    method_b: str
    value_b: str
    verdict: str
    difference: str = ""
    note: str = ""
    seconds_a: float = 0.0
    seconds_b: float = 0.0

    @property
    def seconds(self) -> float:
        return self.seconds_a + self.seconds_b

    def to_json(self) -> dict:
        return {
            "id": self.check_id,
            "params": self.params,
            "method_a": {"name": self.method_a, "value": self.value_a,
                         "seconds": round(self.seconds_a, 6)},
            "method_b": {"name": self.method_b, "value": self.value_b,
                         "seconds": round(self.seconds_b, 6)},
            "verdict": self.verdict,
            "difference": self.difference,
            "note": self.note,
            "seconds": round(self.seconds, 6),
        }


@dataclass
class DiscrepancyReport:
    level: str
    checks: list = field(default_factory=list)
    seconds: float = 0.0  # wall time of the whole run

    @property
    def coverage(self) -> dict:
        cov = {}
        for c in self.checks:
            cat = c.check_id.split("/")[0]
            cov[cat] = cov.get(cat, 0) + 1
        return dict(sorted(cov.items()))

    @property
    def counts(self) -> dict:
        out = {MATCH: 0, INFORMATIONAL: 0, MISMATCH: 0}
        for c in self.checks:
            out[c.verdict] += 1
        return out

    @property
    def exit_code(self) -> int:
        return 1 if self.counts[MISMATCH] else 0

    def sorted_checks(self) -> list:
        return sorted(self.checks, key=lambda c: c.check_id)

    def to_json_dict(self) -> dict:
        return {
            "level": self.level,
            "python": sys.version.split()[0],
            "fractree": __version__,
            "seconds": round(self.seconds, 6),
            "summary": self.counts,
            "coverage": self.coverage,
            "checks": [c.to_json() for c in self.sorted_checks()],
        }

    def to_json_text(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2, sort_keys=False) + "\n"

    def to_table_text(self) -> str:
        lines = []
        width = max((len(c.check_id) for c in self.checks), default=10)
        for c in self.sorted_checks():
            tag = {MATCH: "MATCH", MISMATCH: "MISMATCH", INFORMATIONAL: "INFO"}[c.verdict]
            line = (
                f"{tag:8} {c.check_id:<{width}}  "
                f"{c.method_a}={c.value_a}  {c.method_b}={c.value_b}"
            )
            if c.difference:
                line += f"  diff={c.difference}"
            if c.note:
                line += f"  [{c.note}]"
            lines.append(line)
        counts = self.counts
        lines.append(
            f"checks: {len(self.checks)}  match: {counts[MATCH]}  "
            f"informational: {counts[INFORMATIONAL]}  mismatch: {counts[MISMATCH]}"
        )
        return "\n".join(lines) + "\n"


def _fmt(value) -> str:
    """A route's value as the report shows it; an int of any size in full."""
    if isinstance(value, float):
        return f"{value:.12g}"
    return exact.decimal_str(value) if isinstance(value, int) else str(value)


def run_check(check: Check) -> CheckResult:
    """Run both routes of one check, each in its own timed span, and judge
    the pair; an allowlisted mismatch that reproduces its pinned values
    verbatim is downgraded to informational."""
    t0 = time.perf_counter()
    a = check.route_a()
    t1 = time.perf_counter()
    b = check.route_b()
    t2 = time.perf_counter()
    if check.compare == INFO:
        verdict = INFORMATIONAL
    else:
        verdict = MATCH if check.compare(a, b) else MISMATCH
    difference = ""
    if verdict != MATCH:
        try:
            difference = _fmt(a - b)
        except TypeError:
            difference = "(structural)"
    result = CheckResult(
        check.id, check.params, check.name_a, _fmt(a), check.name_b, _fmt(b),
        verdict, difference, check.note, t1 - t0, t2 - t1,
    )
    allowed = ALLOWLIST.get(check.id)
    if verdict == MISMATCH and allowed and (allowed.value_a, allowed.value_b) == (
        result.value_a, result.value_b
    ):
        result.verdict = INFORMATIONAL
        result.note = allowed.reason
    return result


def random_connected_graph(
    rng: random.Random, max_n: int = 8, min_extra: int = 0, min_n: int = 2, density: int = 1
) -> Graph:
    """Random spanning tree plus random extra edges; always connected.

    Each step first draws a fresh bound from [min_extra, n], raised by
    (density - 1) * n, and stops once the edges added reach it, for at most
    4 * density * n steps.  So every density above 1 adds at least about
    (density - 1) * n edges.
    """
    n = rng.randint(max(min_n, min_extra + 2), max_n)
    edges = {(rng.randrange(v), v) for v in range(1, n)}
    added = 0
    for _ in range(4 * density * n):
        if added >= rng.randint(min_extra, n) + (density - 1) * n:
            break
        u, v = sorted((rng.randrange(n), rng.randrange(n)))
        if u != v and (u, v) not in edges:
            edges.add((u, v))
            added += 1
    return graph.plain_graph(n, edges)


def naive_determinant(matrix) -> int:
    """Cofactor expansion along the first row; the reference oracle."""
    n = len(matrix)
    if n == 0:
        return 1
    if n == 1:
        return matrix[0][0]
    total = 0
    for col in range(n):
        if matrix[0][col] == 0:
            continue
        minor = [row[:col] + row[col + 1 :] for row in matrix[1:]]
        total += (-1) ** col * matrix[0][col] * naive_determinant(minor)
    return total


# ---------------------------------------------------------------------------
# the registry


def _tag(p: FractalParams, stage: bool = True) -> str:
    return f"{p.family.value}-{p.n}-{p.m}" + (f"-{p.i}" if stage else "")


def _pstr(p: FractalParams, stage: bool = True) -> str:
    return f"{p.family.value} n={p.n} m={p.m}" + (f" i={p.i}" if stage else "")


def _on(kind: str, p: FractalParams, *routes, stage: bool = True, **options) -> Check:
    """A check whose id ends in the tag of ``p`` and whose params name it."""
    return Check(f"{kind}/{_tag(p, stage)}", _pstr(p, stage), *routes, **options)


def _within(tol: float) -> Callable:
    return lambda a, b: abs(a - b) <= tol


def _joined(values) -> str:
    return ",".join(map(str, values))


def _arith() -> list:
    @cache
    def matrices():
        rng = random.Random(20240811)
        out = []
        for _ in range(8):
            order = rng.randint(1, 5)
            out.append([[rng.randint(-9, 9) for _ in range(order)] for _ in range(order)])
        return out

    def fixture(p, factors, source):
        return _on("arith/tau-closed-fixture", p, "closed-form", lambda: spanning.tau_closed(p),
                   source, lambda: FactoredCount(factors))

    a, b = FactoredCount({3: 4, 2: 1}), FactoredCount({45: 6, 2: 4})
    c = FactoredCount({3: 67, 2: 21})
    table2 = {1: {3: 4, 2: 1}, 2: {3: 16, 2: 5}, 3: {3: 67, 2: 21}, 4: {3: 286, 2: 88}}
    example = {1: {45: 6, 2: 4}, 2: {45: 39, 2: 28}, 3: {45: 260, 2: 184}}
    return [
        Check("arith/bareiss-vs-naive", "8 seeded random matrices, order<=5",
              "bareiss", lambda: _joined(map(exact.bareiss_determinant, matrices())),
              "cofactor-expansion", lambda: _joined(map(naive_determinant, matrices()))),
        Check("arith/factored-multiplicative", "{3:4,2:1} * {45:6,2:4}",
              "expand(merge)", lambda: exact.factored_expand(a * b),
              "expand*expand", lambda: exact.factored_expand(a) * exact.factored_expand(b)),
        Check("arith/factored-log", "{3:67,2:21}",
              "sum-of-logs", lambda: exact.factored_log(c),
              "log-of-expansion", lambda: math.log(exact.factored_expand(c)),
              compare=lambda x, y: abs(x - y) <= 1e-9 * x),
        *(fixture(FractalParams(Family.CYCLE, 3, 2, i), f, "published-table")
          for i, f in table2.items()),
        *(fixture(FractalParams(Family.WHEEL, 4, 2, i), f, "published-example")
          for i, f in example.items()),
    ]


def _graph() -> list:
    p = FractalParams(Family.CYCLE, 3, 2, 2)
    g = cache(lambda: construct.build(p))

    def minors():
        w5 = construct.base(Family.WHEEL, 5)
        return _joined(sorted({exact.bareiss_determinant(graph.laplacian_minor(w5, v))
                               for v in range(6)}))

    return [
        Check("graph/degree-sum", _pstr(p), "sum-of-degrees",
              lambda: sum(d * k for d, k in graph.degree_histogram(g()).items()),
              "twice-edge-count", lambda: 2 * g().edge_count),
        Check("graph/blocks-edge-partition", _pstr(p), "sum-of-block-edges",
              lambda: sum(len(b.edges) for b in graph.blocks(g())),
              "edge-count", lambda: g().edge_count),
        Check("graph/omitted-vertex-independence", "wheel n=5, all 6 minors",
              "distinct-minor-determinants", minors,
              "single-value", lambda: str(sequences.tau_wheel_base(5))),
    ]


def _construct() -> list:
    C, W, P = Family.CYCLE, Family.WHEEL, FractalParams

    def size_law(p):
        def built():
            g = construct.build(p)
            return g.vertex_count, g.edge_count

        def recurrence():
            seq = sequences.size_sequences(p, p.i + 1)
            return seq.u[p.i + 1], seq.e[p.i + 1]

        return _on("construct/size-law", p, "built-graph", built, "recurrence", recurrence)

    def ept_law(m):
        def subdivided():
            g = construct.ept(drawn(), m)
            return g.vertex_count, g.edge_count

        def formula():
            g = drawn()
            return g.vertex_count + (m - 1) * g.edge_count, m * g.edge_count

        return Check(f"construct/ept-law/m{m}", f"seeded random graph, m={m}",
                     "subdivided-counts", subdivided, "formula", formula)

    def census(p, level=QUICK):
        @cache
        def predicted():
            return graph.format_block_census(construct.predicted_block_multiset(p))

        return [
            _on("construct/block-census", p, "structural-blocks",
                lambda: graph.format_block_census(graph.block_census(construct.build(p))),
                "predicted-multiset", predicted, level=level),
            _on("construct/census-unfold", p, "census-unfolded",
                lambda: graph.format_block_census(construct.unfold_census_block_multiset(p)),
                "predicted-multiset", predicted, level=level),
        ]

    # stated per-stage copy counts: agree with structure at m=2, omit a
    # factor (m-1) otherwise
    def stated_count(p, t):
        return Check(f"construct/census-stated-count/{_tag(p)}", _pstr(p) + f" stage t={t}",
                     "structural-count", lambda: construct.copy_census(p).stage_counts[t],
                     "stated-count", lambda: p.n * p.m ** (p.i - t - 2))

    def digest():
        text = graph.to_edgelist_text(construct.build(P(W, 4, 2, 1)))
        return hashlib.sha256(text.encode()).hexdigest()[:16]

    drawn = cache(lambda: random_connected_graph(random.Random(20240812)))
    quick = [(C, 3, 2, 1), (C, 3, 2, 2), (C, 4, 2, 2), (C, 3, 3, 2), (W, 4, 2, 2), (W, 5, 2, 1)]
    return [
        *(size_law(P(*q)) for q in [(C, 3, 2, 1), (C, 3, 2, 2), (W, 4, 2, 1), (W, 4, 2, 2)]),
        ept_law(2),
        ept_law(3),
        *(check for q in quick for check in census(P(*q))),
        *(check for q in [(C, 3, 2, 3), (W, 3, 2, 2)] for check in census(P(*q), FULL)),
        stated_count(P(C, 3, 2, 2), 0),
        stated_count(P(C, 3, 3, 2), 0),
        Check("construct/determinism", _pstr(P(W, 4, 2, 1)),
              "edge-list-digest-first-build", digest, "edge-list-digest-second-build", digest),
    ]


def _tau_checks(p: FractalParams, level: str = QUICK) -> list:
    """closed-vs-oracle and oracle-vs-blocks for one graph, sharing its
    build and its matrix-tree determinant."""
    g = cache(lambda: construct.build(p))
    oracle = cache(lambda: spanning.tau_oracle(g()))
    return [
        _on("spanning/closed-vs-oracle", p, "closed-form",
            lambda: exact.factored_expand(spanning.tau_closed(p)), "matrix-tree", oracle,
            level=level),
        _on("spanning/oracle-vs-blocks", p, "matrix-tree", oracle,
            "block-product", lambda: spanning.tau_blocks(g()), level=level),
    ]


def _spanning() -> list:
    C, W, P = Family.CYCLE, Family.WHEEL, FractalParams

    # both identities draw from one seeded stream, subdivision first
    @cache
    def draws():
        rng = random.Random(20240813)
        subdivided = []
        for _ in range(5):
            g = random_connected_graph(rng, min_extra=2)
            subdivided.append((g, rng.choice((2, 3))))
        attached = []
        for _ in range(5):
            g = random_connected_graph(rng)
            family = rng.choice((C, W))
            n = rng.randint(3, 5)
            hosts = rng.sample(range(g.vertex_count), rng.randint(1, g.vertex_count))
            attached.append((g, family, n, hosts))
        return subdivided, attached

    def golden_error():
        golden = (1 + math.sqrt(5)) / 2
        return max(
            abs(golden ** (2 * n) + golden ** (-2 * n) * math.cos(2 * math.pi * n) - 2
                - sequences.tau_wheel_base(n)) / sequences.tau_wheel_base(n)
            for n in range(3, 31)
        )

    def fibonacci_form(n):
        return sequences.fibonacci_number(2 * n + 2) - sequences.fibonacci_number(2 * n - 2) - 2

    quick = [P(C, n, m, i) for n in (3, 4) for m in (2, 3) for i in (1, 2)]
    quick += [P(W, 4, 2, 1), P(W, 3, 2, 1), P(W, 5, 2, 1)]
    full = [P(C, n, m, i) for n in (5, 6) for m in (2, 3) for i in (1, 2)]
    full += [P(C, 3, 2, 3), P(W, 4, 2, 2)]
    return [
        *(check for p in quick for check in _tau_checks(p)),
        *(check for p in full for check in _tau_checks(p, FULL)),
        Check("spanning/subdivision-identity", "5 seeded random graphs", "tau-of-subdivision",
              lambda: _joined(spanning.tau_oracle(construct.ept(g, m)) for g, m in draws()[0]),
              "m^rank*tau",
              lambda: _joined(m ** (g.edge_count - g.vertex_count + 1) * spanning.tau_oracle(g)
                              for g, m in draws()[0])),
        Check("spanning/attachment-identity", "5 seeded random graphs", "tau-after-attachments",
              lambda: _joined(spanning.tau_oracle(construct.glv(g, family, n, hosts))
                              for g, family, n, hosts in draws()[1]),
              "tau*base^hosts",
              lambda: _joined(spanning.tau_oracle(g)
                              * sequences._tau_terms(family, n)[0] ** len(hosts)
                              for g, family, n, hosts in draws()[1])),
        Check("spanning/lucas-fibonacci-identity", "n <= 50",
              "L_2n-2", lambda: _joined(sequences.lucas_number(2 * n) - 2 for n in range(3, 51)),
              "F_2n+2-F_2n-2-2",
              lambda: _joined(map(fibonacci_form, range(3, 51)))),
        Check("spanning/golden-ratio-form", "n <= 30", "worst-relative-error", golden_error,
              "zero", lambda: 0.0, compare=_within(1e-9)),
        Check("spanning/central-prose-step/wheel-4-2", "once-subdivided wheel, n=4 m=2",
              "matrix-tree", lambda: spanning.tau_oracle(construct.ept(construct.base(W, 4), 2)),
              "stated-m^n", lambda: 2**4),
    ]


# The explicit closed forms of the two exponent sums, evaluated verbatim as
# a reporting curiosity.  The plain-sum forms check out; the weighted-sum
# forms are garbled in print, so the library always accumulates the
# exponents exactly and these entries only record the comparison.
def _printed_sums_cycle(n, m, i) -> tuple:
    phi = math.sqrt(-4 * n + (m + n) ** 2)
    a2 = m + n
    s1 = 2.0**-i * (-n * (a2 - phi) ** i + n * (phi + a2) ** i + 2**i * phi) / phi
    s2 = (
        (1 / ((m - 1) * phi))
        * m ** (phi * (i * m - i - n))
        * m ** (2.0 ** (-i - 1) * (a2 - phi) ** i * (m * n + n**2 + n * phi - 2 * n))
        * m ** (2.0 ** (-i - 1) * (phi + a2) ** i * (-m * n - n**2 + n * phi + 2 * n))
    )
    return s1, s2


def _printed_sums_wheel(n, m, i) -> tuple:
    zeta = math.sqrt(6 * (m - 1) * n + (m - 1) ** 2 + n**2)
    a2 = m + n
    eta = (zeta + a2 + 1) ** i
    omega = (-zeta + a2 + 1) ** i
    s1 = (2.0 ** (-i - 1) / (zeta * n)) * (
        zeta * (2 ** (i + 1) + (n - 1) * (eta + omega))
        + (omega - eta) * (m * (n - 1) - n * (n + 4) + 1)
    )
    s2 = (2.0 ** (-i - 1) / (zeta * n * (m - 1))) * (
        2.0 ** (-i - 1) * (zeta * 2 ** (i + 1) * (m * (i * n + n - 1) - (i + 3) * n + 1))
        + (eta - omega)
        * ((3 * m - 5) * n**2 + (m - 6) * (m - 1) * n - (m - 1) ** 2)
        - zeta * (eta + omega) * (m * (n - 1) - 3 * n + 1)
    )
    return s1, s2


def _sequences() -> list:
    C, W, P = Family.CYCLE, Family.WHEEL, FractalParams
    p_cyc, p_whl = P(C, 3, 2), P(W, 4, 2)

    def fixture(kind, p, upto, source, published):
        return _on(f"sequences/{kind}-fixture", p, "recurrence",
                   lambda: getattr(sequences.size_sequences(p, upto), kind),
                   source, lambda: published, stage=False)

    def recurrences(p):
        def decoupled():
            spec = sequences.RecurrenceSpec.for_params(p)
            out = [spec.u0, spec.u1]
            for _ in range(2, 13):
                out.append(spec.a * out[-1] + spec.b * out[-2])
            return tuple(out)

        @cache
        def coupled():
            return sequences.size_sequences(p, 12).u

        return [
            _on("sequences/coupled-vs-decoupled", p, "coupled-recurrence", coupled,
                "decoupled-recurrence", decoupled, stage=False),
            Check(f"sequences/binet-vs-recurrence/{_tag(p, False)}", _pstr(p, False) + " j<=12",
                  "binet-exact", lambda: tuple(sequences.binet_vertex(p, j) for j in range(13)),
                  "recurrence", coupled),
        ]

    def entropy_closed(p, tol, limit=None):
        return _on("sequences/entropy-closed", p, "closed-form",
                   lambda: sequences.entropy_closed(p),
                   "limit", limit or (lambda: sequences.entropy_limit(p).value),
                   compare=_within(tol), stage=False)

    def printed(p, i, printed_form):
        @cache
        def exact_sums():
            *_, (s1, s2, _, _) = sequences._exponent_sums(p, i)
            return s1, s2

        printed_sums = cache(printed_form)
        tag, pstr = f"{_tag(p, False)}-i{i}", _pstr(p.with_stage(i))
        return [
            Check(f"sequences/printed-sum-plain/{tag}", pstr,
                  "printed-form", lambda: printed_sums()[0],
                  "exact-accumulation", lambda: float(exact_sums()[0]), compare=_within(1e-9)),
            Check(f"sequences/printed-sum-weighted/{tag}", pstr,
                  "printed-form", lambda: printed_sums()[1],
                  "exact-accumulation", lambda: float(exact_sums()[1]), compare=INFO,
                  note="weighted-sum closed form as printed does not evaluate to the sum; "
                  "exponents always come from exact accumulation"),
        ]

    # both conventions of the cycle limit come from one recurrence pass
    limits = cache(lambda: sequences.entropy_estimates(p_cyc))
    wheel_limit = cache(lambda: sequences.entropy_limit(p_whl))
    return [
        fixture("u", p_cyc, 5, "published-list", (1, 3, 12, 51, 219, 942)),
        fixture("u", p_whl, 4, "published-list", (1, 5, 33, 221, 1481)),
        fixture("e", p_cyc, 3, "published-values", (0, 3, 15, 66)),
        *(check for p in (p_cyc, p_whl, P(C, 5, 3), P(W, 6, 4))
          for check in recurrences(p)),
        Check("sequences/binet-fixed-constants/cycle-3-2", _pstr(p_cyc, False) + " j<=8",
              "fixed-constants",
              lambda: tuple(sequences.binet_vertex_fixed_constants(p_cyc, j).as_exact_int()
                            for j in range(9)),
              "recurrence", lambda: sequences.size_sequences(p_cyc, 8).u),
        Check("sequences/binet-fixed-constants/wheel-4-2", _pstr(p_whl, False) + " j=0",
              "seed-value", lambda: 1.0, "fixed-constants",
              lambda: sequences.binet_vertex_fixed_constants(p_whl, 0).to_float(),
              compare=_within(1e-9)),
        _on("sequences/entropy-published-offset", p_cyc, "limit", lambda: limits()[0].value,
            "published", lambda: 1.70465, compare=_within(1e-4), stage=False),
        _on("sequences/entropy-published-same", p_cyc, "limit", lambda: limits()[1].value,
            "published", lambda: 0.396176, compare=_within(1e-4), stage=False),
        _on("sequences/entropy-convention-ratio", p_cyc,
            "offset/same", lambda: limits()[0].value / limits()[1].value, "dominant-root",
            lambda: sequences.RecurrenceSpec.for_params(p_cyc).roots()[0].to_float(),
            compare=_within(1e-6), stage=False),
        *(entropy_closed(P(C, n, m), 1e-6)
          for n, m in [(3, 2), (4, 2), (5, 2), (6, 2), (4, 3), (5, 3), (6, 3)]),
        _on("sequences/entropy-convergence", p_whl, "last-step-delta",
            lambda: abs(wheel_limit().delta), "zero", lambda: 0.0, compare=_within(1e-9),
            stage=False),
        entropy_closed(p_whl, 1e-3, lambda: wheel_limit().value),
        *printed(p_cyc, 2, lambda: _printed_sums_cycle(3, 2, 2)),
        *printed(p_whl, 2, lambda: _printed_sums_wheel(4, 2, 2)),
    ]


def _clustering() -> list:
    C, W, P = Family.CYCLE, Family.WHEEL, FractalParams

    def scan(p):
        return cache(lambda: clustering.average_clustering(construct.build(p)).average)

    def closed(p, direct, kind="direct-vs-closed", **options):
        return _on(f"clustering/{kind}", p, "direct-scan", direct,
                   "closed-form", lambda: clustering.clustering_closed(p), **options)

    def published(p, kind, source, expected=None):
        """closed(p), and the direct scan against ``expected``: by default
        the value the paper states for p."""
        direct = scan(p)
        value = PUBLISHED_CLUSTERING[(p.family, p.n, p.m, p.i)] if expected is None else expected
        return [closed(p, direct),
                _on(f"clustering/{kind}", p, "direct-scan", direct, source, lambda: value)]

    def degree_census(p):
        return _on("clustering/degree-census", p, "built-histogram",
                   lambda: sorted(graph.degree_histogram(construct.build(p)).items()),
                   "predicted-histogram",
                   lambda: sorted(clustering.degree_census_predicted(p).items()))

    p_ex = P(C, 3, 2, 2)
    grid = [(W, 4, 2, 2), (W, 5, 3, 1), (C, 3, 3, 1), (C, 3, 3, 2)]
    return [
        *published(P(C, 3, 2, 1), "direct-vs-expected", "frozen-fixture"),
        *published(p_ex, "direct-vs-expected", "frozen-fixture", Fraction(257, 510)),
        *published(P(W, 4, 2, 0), "direct-vs-expected", "frozen-fixture"),
        # the worked stage-2 example's inline arithmetic vs the formula value
        _on("clustering/example-arithmetic", p_ex, "closed-form",
            lambda: clustering.clustering_closed(p_ex),
            "published-inline", lambda: PUBLISHED_CLUSTERING[(C, 3, 2, 2)]),
        *published(P(W, 5, 2, 1), "published-average", "published-value"),
        *(_on("clustering/triangle-free-zero", p, "direct-scan", scan(p), "zero",
              lambda: Fraction(0)) for p in [P(C, n, 2, i) for n, i in
                                             [(4, 1), (5, 1), (4, 2), (5, 2)]]),
        *(closed(p, scan(p), "closed-form") for p in (P(W, 3, 2, 0), P(W, 3, 2, 1))),
        *(closed(p, scan(p)) for p in (P(*q) for q in grid)),
        closed(P(W, 6, 2, 1), scan(P(W, 6, 2, 1)), level=FULL),
        *(degree_census(P(*q))
          for q in [(C, 3, 2, 1), (C, 4, 3, 2), (W, 5, 2, 1), (W, 4, 2, 2), (W, 3, 2, 1)]),
    ]


def registry() -> list:
    """Every check at every level, grouped by module.  Nothing is computed
    until a route is called."""
    return [*_arith(), *_graph(), *_construct(), *_spanning(), *_sequences(), *_clustering()]


def verify_suite(level: str = FULL) -> DiscrepancyReport:
    """Run every cross-check of the registry; mismatches are recorded, never
    raised.

    Level "quick" leaves out the larger graphs of the oracle grid, two block
    censuses and one clustering case; "full" runs every check, which takes
    well under a second, and is the report ``tests/test_claims.py`` reads.
    """
    if level not in (FULL, QUICK):
        raise ValueError(f"unknown level {level!r}")
    start = time.perf_counter()
    chosen = [c for c in registry() if level == FULL or c.level == QUICK]
    results = [run_check(c) for c in chosen]
    return DiscrepancyReport(level, results, time.perf_counter() - start)
