"""Cross-check harness: every invariant computed two ways, both recorded.

Each check compares an authoritative route (usually direct computation on
a built graph) against an independent route (closed form, block product,
published fixture).  Mismatches never abort the run.  Known disagreements
of the published closed forms with direct enumeration live in an
allowlist with the exact expected values on both sides: those downgrade
to "informational", while any new mismatch keeps the suite red.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
import time
from dataclasses import dataclass, field
from fractions import Fraction

from . import construct, clustering, sequences, spanning
from .exact import FactoredCount, bareiss_determinant, factored_expand, factored_log
from .graph import (
    Graph,
    VertexRole,
    blocks,
    degree_histogram,
    laplacian_minor,
    to_edgelist_text,
)
from .params import Family, FractalParams

MATCH = "match"
MISMATCH = "mismatch"
INFORMATIONAL = "informational"


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
    seconds: float = 0.0

    def to_json(self) -> dict:
        return {
            "id": self.check_id,
            "params": self.params,
            "method_a": {"name": self.method_a, "value": self.value_a},
            "method_b": {"name": self.method_b, "value": self.value_b},
            "verdict": self.verdict,
            "difference": self.difference,
            "note": self.note,
            "seconds": round(self.seconds, 6),
        }


@dataclass
class DiscrepancyReport:
    level: str
    checks: list = field(default_factory=list)

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
    if isinstance(value, float):
        return f"{value:.12g}"
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, FactoredCount):
        return str(value)
    return str(value)


class _Suite:
    def __init__(self, level: str):
        self.report = DiscrepancyReport(level)
        self._t0 = None

    def _record(self, result: CheckResult) -> None:
        allowed = ALLOWLIST.get(result.check_id)
        if (
            result.verdict == MISMATCH
            and allowed is not None
            and allowed.value_a == result.value_a
            and allowed.value_b == result.value_b
        ):
            result.verdict = INFORMATIONAL
            result.note = allowed.reason
        self.report.checks.append(result)

    def start(self):
        self._t0 = time.perf_counter()

    def _elapsed(self) -> float:
        dt = time.perf_counter() - self._t0 if self._t0 else 0.0
        self._t0 = None
        return dt

    def exact(self, check_id, params, name_a, value_a, name_b, value_b, note=""):
        same = value_a == value_b
        diff = ""
        if not same:
            try:
                diff = _fmt(value_a - value_b)
            except TypeError:
                diff = "(structural)"
        self._record(
            CheckResult(
                check_id, params, name_a, _fmt(value_a), name_b, _fmt(value_b),
                MATCH if same else MISMATCH, diff, note, self._elapsed(),
            )
        )

    def close(self, check_id, params, name_a, value_a, name_b, value_b, tol, note=""):
        diff = value_a - value_b
        verdict = MATCH if abs(diff) <= tol else MISMATCH
        self._record(
            CheckResult(
                check_id, params, name_a, _fmt(value_a), name_b, _fmt(value_b),
                verdict, "" if verdict == MATCH else _fmt(diff), note, self._elapsed(),
            )
        )

    def info(self, check_id, params, name_a, value_a, name_b, value_b, note=""):
        try:
            diff = _fmt(value_a - value_b)
        except TypeError:
            diff = ""
        self._record(
            CheckResult(
                check_id, params, name_a, _fmt(value_a), name_b, _fmt(value_b),
                INFORMATIONAL, diff, note, self._elapsed(),
            )
        )


def _random_connected_graph(rng: random.Random, max_n: int = 8, min_extra: int = 0) -> Graph:
    n = rng.randint(max(2, min_extra + 2), max_n)
    g = Graph()
    for _ in range(n):
        g.add_vertex(VertexRole.ORIGINAL_BASE, 0)
    for v in range(1, n):
        g.add_edge(v, rng.randrange(v))
    added = 0
    for _ in range(4 * n):
        if added >= rng.randint(min_extra, n):
            break
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v and not g.has_edge(u, v):
            g.add_edge(u, v)
            added += 1
    return g.freeze()


def _naive_determinant(matrix) -> int:
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
        total += (-1) ** col * matrix[0][col] * _naive_determinant(minor)
    return total


def _pstr(family, n, m, i=None) -> str:
    fam = family.value if isinstance(family, Family) else str(family)
    return f"{fam} n={n} m={m}" + (f" i={i}" if i is not None else "")


def _block_multiset(g: Graph) -> dict:
    out = {}
    for b in blocks(g):
        out[b.signature] = out.get(b.signature, 0) + 1
    return out


def _multiset_str(ms: dict) -> str:
    return "; ".join(f"{k}x{v}" for k, v in sorted(ms.items()))


# ---------------------------------------------------------------------------
# check groups


def _checks_arith(s: _Suite):
    rng = random.Random(20240811)
    got, want = [], []
    for _ in range(8):
        order = rng.randint(1, 5)
        mat = [[rng.randint(-9, 9) for _ in range(order)] for _ in range(order)]
        got.append(bareiss_determinant(mat))
        want.append(_naive_determinant(mat))
    s.start()
    s.exact(
        "arith/bareiss-vs-naive", "8 seeded random matrices, order<=5",
        "bareiss", ",".join(map(str, got)), "cofactor-expansion", ",".join(map(str, want)),
    )

    a = FactoredCount({3: 4, 2: 1})
    b = FactoredCount({45: 6, 2: 4})
    s.start()
    s.exact(
        "arith/factored-multiplicative", "{3:4,2:1} * {45:6,2:4}",
        "expand(merge)", factored_expand(a * b),
        "expand*expand", factored_expand(a) * factored_expand(b),
    )

    c = FactoredCount({3: 67, 2: 21})
    s.start()
    s.close(
        "arith/factored-log", "{3:67,2:21}",
        "sum-of-logs", factored_log(c),
        "log-of-expansion", math.log(factored_expand(c)),
        tol=1e-9 * factored_log(c),
    )

    table2 = {1: {3: 4, 2: 1}, 2: {3: 16, 2: 5}, 3: {3: 67, 2: 21}, 4: {3: 286, 2: 88}}
    for i, factors in table2.items():
        s.start()
        s.exact(
            f"arith/tau-closed-fixture/cycle-3-2-{i}", _pstr(Family.CYCLE, 3, 2, i),
            "closed-form", spanning.tau_closed(FractalParams(Family.CYCLE, 3, 2, i)),
            "published-table", FactoredCount(factors),
        )
    for i, factors in {1: {45: 6, 2: 4}, 2: {45: 39, 2: 28}, 3: {45: 260, 2: 184}}.items():
        s.start()
        s.exact(
            f"arith/tau-closed-fixture/wheel-4-2-{i}", _pstr(Family.WHEEL, 4, 2, i),
            "closed-form", spanning.tau_closed(FractalParams(Family.WHEEL, 4, 2, i)),
            "published-example", FactoredCount(factors),
        )


def _checks_graph(s: _Suite):
    g = construct.build(FractalParams(Family.CYCLE, 3, 2, 2))
    s.start()
    s.exact(
        "graph/degree-sum", _pstr(Family.CYCLE, 3, 2, 2),
        "sum-of-degrees", sum(d * c for d, c in degree_histogram(g).items()),
        "twice-edge-count", 2 * g.edge_count,
    )
    s.start()
    s.exact(
        "graph/blocks-edge-partition", _pstr(Family.CYCLE, 3, 2, 2),
        "sum-of-block-edges", sum(len(b.edges) for b in blocks(g)),
        "edge-count", g.edge_count,
    )

    w5 = construct.base(Family.WHEEL, 5)
    dets = sorted({bareiss_determinant(laplacian_minor(w5, v)) for v in range(6)})
    s.start()
    s.exact(
        "graph/omitted-vertex-independence", "wheel n=5, all 6 minors",
        "distinct-minor-determinants", ",".join(map(str, dets)),
        "single-value", str(spanning.tau_wheel_base(5)),
    )


def _checks_construct(s: _Suite, level: str):
    for family, n, m, i in [
        (Family.CYCLE, 3, 2, 1), (Family.CYCLE, 3, 2, 2),
        (Family.WHEEL, 4, 2, 1), (Family.WHEEL, 4, 2, 2),
    ]:
        p = FractalParams(family, n, m, i)
        g = construct.build(p)
        seq = sequences.size_sequences(p, i + 1)
        s.start()
        s.exact(
            f"construct/size-law/{family.value}-{n}-{m}-{i}", _pstr(family, n, m, i),
            "built-graph", (g.vertex_count, g.edge_count),
            "recurrence", (seq.u[i + 1], seq.e[i + 1]),
        )

    rng = random.Random(20240812)
    g = _random_connected_graph(rng)
    for m in (2, 3):
        sub = construct.ept(g, m)
        s.start()
        s.exact(
            f"construct/ept-law/m{m}", f"seeded random graph, m={m}",
            "subdivided-counts", (sub.vertex_count, sub.edge_count),
            "formula", (g.vertex_count + (m - 1) * g.edge_count, m * g.edge_count),
        )

    census_params = [
        (Family.CYCLE, 3, 2, 1), (Family.CYCLE, 3, 2, 2),
        (Family.CYCLE, 4, 2, 2), (Family.CYCLE, 3, 3, 2),
        (Family.WHEEL, 4, 2, 2), (Family.WHEEL, 5, 2, 1),
    ]
    if level == "full":
        census_params += [(Family.CYCLE, 3, 2, 3), (Family.WHEEL, 3, 2, 2)]
    for family, n, m, i in census_params:
        p = FractalParams(family, n, m, i)
        g = construct.build(p)
        s.start()
        s.exact(
            f"construct/block-census/{family.value}-{n}-{m}-{i}", _pstr(family, n, m, i),
            "structural-blocks", _multiset_str(_block_multiset(g)),
            "predicted-multiset", _multiset_str(construct.predicted_block_multiset(p)),
        )
        s.start()
        s.exact(
            f"construct/census-unfold/{family.value}-{n}-{m}-{i}", _pstr(family, n, m, i),
            "census-unfolded", _multiset_str(construct.unfold_census_block_multiset(p)),
            "predicted-multiset", _multiset_str(construct.predicted_block_multiset(p)),
        )

    # stated per-stage copy counts: agree with structure at m=2, omit a
    # factor (m-1) otherwise
    for family, n, m, i, t in [(Family.CYCLE, 3, 2, 2, 0), (Family.CYCLE, 3, 3, 2, 0)]:
        p = FractalParams(family, n, m, i)
        structural = construct.copy_census(p).stage_counts[t]
        stated = n * m ** (i - t - 2)
        s.start()
        s.exact(
            f"construct/census-stated-count/{family.value}-{n}-{m}-{i}",
            _pstr(family, n, m, i) + f" stage t={t}",
            "structural-count", structural, "stated-count", stated,
        )

    p = FractalParams(Family.WHEEL, 4, 2, 1)
    first = hashlib.sha256(to_edgelist_text(construct.build(p)).encode()).hexdigest()[:16]
    second = hashlib.sha256(to_edgelist_text(construct.build(p)).encode()).hexdigest()[:16]
    s.start()
    s.exact(
        "construct/determinism", _pstr(Family.WHEEL, 4, 2, 1),
        "edge-list-digest-first-build", first,
        "edge-list-digest-second-build", second,
    )


def _checks_spanning(s: _Suite, level: str):
    grid = [(Family.CYCLE, n, m, i) for n in (3, 4) for m in (2, 3) for i in (1, 2)]
    grid += [(Family.WHEEL, 4, 2, 1), (Family.WHEEL, 3, 2, 1), (Family.WHEEL, 5, 2, 1)]
    if level == "full":
        grid += [(Family.CYCLE, n, m, i) for n in (5, 6) for m in (2, 3) for i in (1, 2)]
        grid += [(Family.CYCLE, 3, 2, 3), (Family.WHEEL, 4, 2, 2)]
    for family, n, m, i in grid:
        p = FractalParams(family, n, m, i)
        g = construct.build(p)
        closed = factored_expand(spanning.tau_closed(p))
        s.start()
        oracle = spanning.tau_oracle(g)
        s.exact(
            f"spanning/closed-vs-oracle/{family.value}-{n}-{m}-{i}", _pstr(family, n, m, i),
            "closed-form", closed, "matrix-tree", oracle,
        )
        s.start()
        s.exact(
            f"spanning/oracle-vs-blocks/{family.value}-{n}-{m}-{i}", _pstr(family, n, m, i),
            "matrix-tree", oracle, "block-product", spanning.tau_blocks(g),
        )

    rng = random.Random(20240813)
    lhs, rhs = [], []
    for _ in range(5):
        g = _random_connected_graph(rng, min_extra=2)
        m = rng.choice((2, 3))
        lhs.append(spanning.tau_oracle(construct.ept(g, m)))
        rank = g.edge_count - g.vertex_count + 1
        rhs.append(m**rank * spanning.tau_oracle(g))
    s.start()
    s.exact(
        "spanning/subdivision-identity", "5 seeded random graphs",
        "tau-of-subdivision", ",".join(map(str, lhs)),
        "m^rank*tau", ",".join(map(str, rhs)),
    )

    lhs, rhs = [], []
    for _ in range(5):
        g = _random_connected_graph(rng)
        family = rng.choice((Family.CYCLE, Family.WHEEL))
        n = rng.randint(3, 5)
        hosts = rng.sample(range(g.vertex_count), rng.randint(1, g.vertex_count))
        lhs.append(spanning.tau_oracle(construct.glv(g, family, n, hosts)))
        per_copy = n if family is Family.CYCLE else spanning.tau_wheel_base(n)
        rhs.append(spanning.tau_oracle(g) * per_copy ** len(hosts))
    s.start()
    s.exact(
        "spanning/attachment-identity", "5 seeded random graphs",
        "tau-after-attachments", ",".join(map(str, lhs)),
        "tau*base^hosts", ",".join(map(str, rhs)),
    )

    s.start()
    s.exact(
        "spanning/lucas-fibonacci-identity", "n <= 50",
        "L_2n-2", ",".join(str(spanning.lucas_number(2 * n) - 2) for n in range(3, 51)),
        "F_2n+2-F_2n-2-2",
        ",".join(
            str(spanning.fibonacci_number(2 * n + 2) - spanning.fibonacci_number(2 * n - 2) - 2)
            for n in range(3, 51)
        ),
    )

    golden = (1 + math.sqrt(5)) / 2
    worst = max(
        abs(golden ** (2 * n) + golden ** (-2 * n) * math.cos(2 * math.pi * n) - 2
            - spanning.tau_wheel_base(n)) / spanning.tau_wheel_base(n)
        for n in range(3, 31)
    )
    s.start()
    s.close(
        "spanning/golden-ratio-form", "n <= 30",
        "worst-relative-error", worst, "zero", 0.0, tol=1e-9,
    )

    w4 = construct.base(Family.WHEEL, 4)
    s.start()
    s.exact(
        "spanning/central-prose-step/wheel-4-2", "once-subdivided wheel, n=4 m=2",
        "matrix-tree", spanning.tau_oracle(construct.ept(w4, 2)),
        "stated-m^n", 2**4,
    )


def _checks_sequences(s: _Suite):
    p_cyc = FractalParams(Family.CYCLE, 3, 2)
    p_whl = FractalParams(Family.WHEEL, 4, 2)
    s.start()
    s.exact(
        "sequences/u-fixture/cycle-3-2", _pstr(Family.CYCLE, 3, 2),
        "recurrence", sequences.size_sequences(p_cyc, 5).u,
        "published-list", (1, 3, 12, 51, 219, 942),
    )
    s.start()
    s.exact(
        "sequences/u-fixture/wheel-4-2", _pstr(Family.WHEEL, 4, 2),
        "recurrence", sequences.size_sequences(p_whl, 4).u,
        "published-list", (1, 5, 33, 221, 1481),
    )
    s.start()
    s.exact(
        "sequences/e-fixture/cycle-3-2", _pstr(Family.CYCLE, 3, 2),
        "recurrence", sequences.size_sequences(p_cyc, 3).e,
        "published-values", (0, 3, 15, 66),
    )

    for p in (p_cyc, p_whl, FractalParams(Family.CYCLE, 5, 3), FractalParams(Family.WHEEL, 6, 4)):
        spec = sequences.RecurrenceSpec.for_params(p)
        u = sequences.size_sequences(p, 12).u
        decoupled = list(u[:2])
        for j in range(2, 13):
            decoupled.append(spec.a * decoupled[-1] + spec.b * decoupled[-2])
        s.start()
        s.exact(
            f"sequences/coupled-vs-decoupled/{p.family.value}-{p.n}-{p.m}",
            _pstr(p.family, p.n, p.m),
            "coupled-recurrence", u, "decoupled-recurrence", tuple(decoupled),
        )
        s.start()
        s.exact(
            f"sequences/binet-vs-recurrence/{p.family.value}-{p.n}-{p.m}",
            _pstr(p.family, p.n, p.m) + " j<=12",
            "binet-exact", tuple(sequences.binet_vertex(p, j) for j in range(13)),
            "recurrence", u,
        )

    s.start()
    s.exact(
        "sequences/binet-fixed-constants/cycle-3-2", _pstr(Family.CYCLE, 3, 2) + " j<=8",
        "fixed-constants",
        tuple(sequences.binet_vertex_fixed_constants(p_cyc, j).as_exact_int() for j in range(9)),
        "recurrence", sequences.size_sequences(p_cyc, 8).u,
    )
    s.start()
    s.close(
        "sequences/binet-fixed-constants/wheel-4-2", _pstr(Family.WHEEL, 4, 2) + " j=0",
        "seed-value", 1.0,
        "fixed-constants", sequences.binet_vertex_fixed_constants(p_whl, 0).to_float(),
        tol=1e-9,
    )

    off = sequences.entropy_limit(p_cyc, 60, sequences.EntropyConvention.OFFSET_STAGE)
    same = sequences.entropy_limit(p_cyc, 60, sequences.EntropyConvention.SAME_STAGE)
    s.start()
    s.close(
        "sequences/entropy-published-offset/cycle-3-2", _pstr(Family.CYCLE, 3, 2),
        "limit", off.value, "published", 1.70465, tol=1e-4,
    )
    s.start()
    s.close(
        "sequences/entropy-published-same/cycle-3-2", _pstr(Family.CYCLE, 3, 2),
        "limit", same.value, "published", 0.396176, tol=1e-4,
    )
    spec = sequences.RecurrenceSpec.for_params(p_cyc)
    s.start()
    s.close(
        "sequences/entropy-convention-ratio/cycle-3-2", _pstr(Family.CYCLE, 3, 2),
        "offset/same", off.value / same.value,
        "dominant-root", spec.roots()[0].to_float(), tol=1e-6,
    )

    for n, m in [(3, 2), (4, 2), (5, 2), (6, 2), (4, 3), (5, 3), (6, 3)]:
        p = FractalParams(Family.CYCLE, n, m)
        s.start()
        s.close(
            f"sequences/entropy-closed/cycle-{n}-{m}", _pstr(Family.CYCLE, n, m),
            "closed-form", sequences.entropy_closed(p),
            "limit", sequences.entropy_limit(p).value, tol=1e-6,
        )

    wheel_limit = sequences.entropy_limit(p_whl, 60)
    s.start()
    s.close(
        "sequences/entropy-convergence/wheel-4-2", _pstr(Family.WHEEL, 4, 2),
        "last-step-delta", abs(wheel_limit.delta), "zero", 0.0, tol=1e-9,
    )
    s.start()
    s.close(
        "sequences/entropy-closed/wheel-4-2", _pstr(Family.WHEEL, 4, 2),
        "closed-form", sequences.entropy_closed(p_whl),
        "limit", wheel_limit.value, tol=1e-3,
        )

    _checks_printed_exponent_sums(s)


def _checks_printed_exponent_sums(s: _Suite):
    # The explicit closed forms of the two exponent sums, evaluated
    # verbatim as a reporting curiosity.  The plain-sum forms check out;
    # the weighted-sum forms are garbled in print, so the library always
    # accumulates the exponents exactly and these entries only record the
    # comparison.
    n, m, i = 3, 2, 2
    *_, (s1_exact, s2_exact, _, _) = sequences._exponent_sums(
        FractalParams(Family.CYCLE, n, m), i
    )
    phi = math.sqrt(-4 * n + (m + n) ** 2)
    a2 = m + n
    s1_printed = 2.0**-i * (
        -n * (a2 - phi) ** i + n * (phi + a2) ** i + 2**i * phi
    ) / phi
    s.start()
    s.close(
        "sequences/printed-sum-plain/cycle-3-2-i2", _pstr(Family.CYCLE, n, m, i),
        "printed-form", s1_printed, "exact-accumulation", float(s1_exact), tol=1e-9,
    )
    s2_printed = (
        (1 / ((m - 1) * phi))
        * m ** (phi * (i * m - i - n))
        * m ** (2.0 ** (-i - 1) * (a2 - phi) ** i * (m * n + n**2 + n * phi - 2 * n))
        * m ** (2.0 ** (-i - 1) * (phi + a2) ** i * (-m * n - n**2 + n * phi + 2 * n))
    )
    s.start()
    s.info(
        "sequences/printed-sum-weighted/cycle-3-2-i2", _pstr(Family.CYCLE, n, m, i),
        "printed-form", s2_printed, "exact-accumulation", float(s2_exact),
        note="weighted-sum closed form as printed does not evaluate to the sum; "
        "exponents always come from exact accumulation",
    )

    n, m, i = 4, 2, 2
    *_, (s1_exact, s2_exact, _, _) = sequences._exponent_sums(
        FractalParams(Family.WHEEL, n, m), i
    )
    zeta = math.sqrt(6 * (m - 1) * n + (m - 1) ** 2 + n**2)
    a2 = m + n
    eta = (zeta + a2 + 1) ** i
    omega = (-zeta + a2 + 1) ** i
    s1_printed = (2.0 ** (-i - 1) / (zeta * n)) * (
        zeta * (2 ** (i + 1) + (n - 1) * (eta + omega))
        + (omega - eta) * (m * (n - 1) - n * (n + 4) + 1)
    )
    s.start()
    s.close(
        "sequences/printed-sum-plain/wheel-4-2-i2", _pstr(Family.WHEEL, n, m, i),
        "printed-form", s1_printed, "exact-accumulation", float(s1_exact), tol=1e-9,
    )
    s2_printed = (2.0 ** (-i - 1) / (zeta * n * (m - 1))) * (
        2.0 ** (-i - 1) * (zeta * 2 ** (i + 1) * (m * (i * n + n - 1) - (i + 3) * n + 1))
        + (eta - omega)
        * ((3 * m - 5) * n**2 + (m - 6) * (m - 1) * n - (m - 1) ** 2)
        - zeta * (eta + omega) * (m * (n - 1) - 3 * n + 1)
    )
    s.start()
    s.info(
        "sequences/printed-sum-weighted/wheel-4-2-i2", _pstr(Family.WHEEL, n, m, i),
        "printed-form", s2_printed, "exact-accumulation", float(s2_exact),
        note="weighted-sum closed form as printed does not evaluate to the sum; "
        "exponents always come from exact accumulation",
    )


def _checks_clustering(s: _Suite, level: str):
    fixtures = [
        (Family.CYCLE, 3, 2, 1, Fraction(13, 24)),
        (Family.CYCLE, 3, 2, 2, Fraction(257, 510)),
        (Family.WHEEL, 4, 2, 0, Fraction(2, 3)),
    ]
    for family, n, m, i, expected in fixtures:
        p = FractalParams(family, n, m, i)
        direct = clustering.average_clustering(construct.build(p)).average
        s.start()
        s.exact(
            f"clustering/direct-vs-closed/{family.value}-{n}-{m}-{i}", _pstr(family, n, m, i),
            "direct-scan", direct, "closed-form", clustering.clustering_closed(p),
        )
        s.start()
        s.exact(
            f"clustering/direct-vs-expected/{family.value}-{n}-{m}-{i}", _pstr(family, n, m, i),
            "direct-scan", direct, "frozen-fixture", expected,
        )

    # the worked stage-2 example's inline arithmetic vs the formula value
    s.start()
    s.exact(
        "clustering/example-arithmetic/cycle-3-2-2", _pstr(Family.CYCLE, 3, 2, 2),
        "closed-form", clustering.clustering_closed(FractalParams(Family.CYCLE, 3, 2, 2)),
        "published-inline", Fraction(137, 510),
    )

    p = FractalParams(Family.WHEEL, 5, 2, 1)
    direct = clustering.average_clustering(construct.build(p)).average
    s.start()
    s.exact(
        "clustering/direct-vs-closed/wheel-5-2-1", _pstr(Family.WHEEL, 5, 2, 1),
        "direct-scan", direct, "closed-form", clustering.clustering_closed(p),
    )
    s.start()
    s.exact(
        "clustering/published-average/wheel-5-2-1", _pstr(Family.WHEEL, 5, 2, 1),
        "direct-scan", direct, "published-value", Fraction(815, 1932),
    )

    for n, i in [(4, 1), (5, 1), (4, 2), (5, 2)]:
        p = FractalParams(Family.CYCLE, n, 2, i)
        s.start()
        s.exact(
            f"clustering/triangle-free-zero/cycle-{n}-2-{i}", _pstr(Family.CYCLE, n, 2, i),
            "direct-scan", clustering.average_clustering(construct.build(p)).average,
            "zero", Fraction(0),
        )

    for n, m, i in [(3, 2, 0), (3, 2, 1)]:
        p = FractalParams(Family.WHEEL, n, m, i)
        s.start()
        s.exact(
            f"clustering/closed-form/wheel-{n}-{m}-{i}", _pstr(Family.WHEEL, n, m, i),
            "direct-scan", clustering.average_clustering(construct.build(p)).average,
            "closed-form", clustering.clustering_closed(p),
        )

    grid = [(Family.WHEEL, 4, 2, 2), (Family.WHEEL, 5, 3, 1), (Family.CYCLE, 3, 3, 1),
            (Family.CYCLE, 3, 3, 2)]
    if level == "full":
        grid.append((Family.WHEEL, 6, 2, 1))
    for family, n, m, i in grid:
        p = FractalParams(family, n, m, i)
        s.start()
        s.exact(
            f"clustering/direct-vs-closed/{family.value}-{n}-{m}-{i}", _pstr(family, n, m, i),
            "direct-scan", clustering.average_clustering(construct.build(p)).average,
            "closed-form", clustering.clustering_closed(p),
        )

    for family, n, m, i in [
        (Family.CYCLE, 3, 2, 1), (Family.CYCLE, 4, 3, 2),
        (Family.WHEEL, 5, 2, 1), (Family.WHEEL, 4, 2, 2), (Family.WHEEL, 3, 2, 1),
    ]:
        p = FractalParams(family, n, m, i)
        s.start()
        s.exact(
            f"clustering/degree-census/{family.value}-{n}-{m}-{i}", _pstr(family, n, m, i),
            "built-histogram", sorted(degree_histogram(construct.build(p)).items()),
            "predicted-histogram", sorted(clustering.degree_census_predicted(p).items()),
        )


def verify_suite(level: str = "full") -> DiscrepancyReport:
    """Run every cross-check; mismatches are recorded, never raised.

    level "quick" trims the oracle-equivalence grid to small graphs;
    "full" runs the whole acceptance surface (tens of seconds).
    """
    if level not in ("full", "quick"):
        raise ValueError(f"unknown level {level!r}")
    s = _Suite(level)
    _checks_arith(s)
    _checks_graph(s)
    _checks_construct(s, level)
    _checks_spanning(s, level)
    _checks_sequences(s)
    _checks_clustering(s, level)
    return s.report
