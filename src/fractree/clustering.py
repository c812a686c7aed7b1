"""Clustering coefficients: exact rational, direct and closed-form.

The direct scan over a built graph is the authoritative value; the
closed-form predictions are evaluated verbatim with exact rationals so
any disagreement is an exact fraction, never float noise.  The scan
tallies every vertex by (links among its neighbours, degree) in one
loop: a degree-2 vertex costs one tuple lookup and one of two counters,
closed or open; a vertex of any other degree costs one set probe for
each degree-2 neighbour and a set intersection for every other
neighbour (see :func:`_link_classes`).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from math import comb

from .graph import Graph
from .params import Family, FractalParams
from .sequences import size_sequences


def _link_classes(adj) -> dict:
    """Count the vertices by (links among their neighbours, degree).

    One loop visits every vertex.  A degree-2 vertex with ends a and b
    has one link if b is in N(a), else none: it adds 1 to the closed or
    the open count, which enter as the classes (1, 2) and (0, 2) only
    when nonzero, so no class has a zero count.  A vertex v of any other
    degree sums, over its neighbours w, how many of w's neighbours are
    also v's; each link is seen from both its ends.  A degree-2
    neighbour w has N(w) = {v, x}, and a simple graph has no loop (v is
    not in N(v)), so its share is exactly [x in N(v)]: one probe of v's
    set, where an intersection would build a new set.  Any other
    neighbour keeps the intersection, which probes v's set in C once
    per entry of w's tuple; a Python loop over a hub's tuple would be
    slower.  With no loop, a vertex of degree 0 or 1 finds no link and
    counts as (0, k).
    """
    classes = {}
    closed = opened = 0
    for v, nb in enumerate(adj):
        if len(nb) == 2:  # most vertices: path interiors and fresh rims
            a, b = nb
            if b in adj[a]:
                closed += 1
            else:
                opened += 1
            continue
        members = set(nb)
        links = 0
        for w in nb:
            other = adj[w]
            if len(other) == 2:
                links += (other[1] if other[0] == v else other[0]) in members
            else:
                links += len(members.intersection(other))
        key = (links // 2, len(nb))
        classes[key] = classes.get(key, 0) + 1
    classes[1, 2] = closed
    classes[0, 2] = opened
    return {key: c for key, c in classes.items() if c}


def _coefficient(links: int, k: int) -> Fraction:
    return Fraction(2 * links, k * (k - 1)) if k > 1 else Fraction(0)


@dataclass(frozen=True)
class ClusteringReport:
    """Histogram of coefficient values plus their exact average."""

    classes: dict
    average: Fraction
    vertex_count: int

    def to_json(self, closed_form: Fraction) -> dict:
        """The classes and average beside ``closed_form``, the prediction
        they are checked against, and whether it matches."""
        return {
            "classes": [
                {"coefficient": str(c), "count": k}
                for c, k in sorted(self.classes.items())
            ],
            "average": str(self.average),
            "closed_form": str(closed_form),
            "match": closed_form == self.average,
        }


def average_clustering(g: Graph) -> ClusteringReport:
    """Exact average of the local coefficients over all vertices.

    Vertices are tallied by (links, degree) first, so one ``Fraction`` is
    made per distinct pair rather than per vertex.
    """
    counts = Counter()
    for (links, k), c in _link_classes(g.adjacency).items():
        counts[_coefficient(links, k)] += c
    total = sum((c * k for c, k in counts.items()), Fraction(0))
    avg = total / g.vertex_count if g.vertex_count else Fraction(0)
    return ClusteringReport(dict(counts), avg, g.vertex_count)


def clustering_closed(params: FractalParams) -> Fraction:
    """Closed-form average clustering prediction for a stage-i graph.

    Cycle family: 0 for n >= 4 (triangle-free); for n = 3 the stage
    formula sums the per-age coefficient classes (the base triangle is
    handled directly).  Wheel family: the base-wheel formula at i = 0,
    else the five-term class census.  Verified against the direct scan by
    the cross-check harness, never assumed.
    """
    n, m, i = params.n, params.m, params.i
    if params.family is Family.CYCLE:
        if n >= 4:
            return Fraction(0)
        if i == 0:
            return Fraction(1)  # C_3 is a triangle
        u = size_sequences(params, i + 1).u
        total = Fraction(3, comb(2 * (i + 1), 2))
        for j in range(1, i):
            total += Fraction(u[j + 1] - u[j], comb(2 * (i - j + 1), 2))
        total += 2 * u[i]
        return total / u[i + 1]
    if i == 0:
        return Fraction(1, n + 1) * (Fraction(2 * n, 3) + Fraction(2, n - 1))
    seq = size_sequences(params, i + 1)
    u, e = seq.u, seq.e
    sigma1 = Fraction(2 * n, comb(3 * (i + 1), 2))
    sigma2 = Fraction(n * u[i], comb(n, 2))
    sigma3 = sum(
        (Fraction(2 * (n - 1) * u[i - j], comb(3 * (j + 1), 2)) for j in range(i)),
        Fraction(0),
    )
    sigma4 = sum(
        (Fraction(2 * u[i - j], comb(3 * j + n, 2)) for j in range(1, i + 1)),
        Fraction(0),
    )
    sigma5 = sum(
        (Fraction(2 * (m - 1) * e[i - j], comb(3 * j + 2, 2)) for j in range(1, i)),
        Fraction(0),
    )
    return (sigma1 + sigma2 + sigma3 + sigma4 + sigma5) / u[i + 1]


def degree_census_predicted(params: FractalParams) -> dict:
    """Predicted degree histogram of the stage-i graph.

    Every vertex gains one fresh attachment per later round (+2 for the
    cycle family, +3 for wheels), and edge subdivision never changes a
    degree, so a vertex born in round b has aged i-b rounds.
    """
    n, m, i = params.n, params.m, params.i
    seq = size_sequences(params, i)
    u, e = seq.u, seq.e
    hist = Counter()
    if params.family is Family.CYCLE:
        hist[2 + 2 * i] += n
        for b in range(1, i + 1):
            born = (n - 1) * u[b] + (m - 1) * e[b]
            hist[2 + 2 * (i - b)] += born
    else:
        hist[3 + 3 * i] += n
        hist[n + 3 * i] += 1
        for b in range(1, i + 1):
            age = i - b
            hist[2 + 3 * age] += (m - 1) * e[b]
            hist[3 + 3 * age] += (n - 1) * u[b]
            hist[n + 3 * age] += u[b]
    return dict(hist)
