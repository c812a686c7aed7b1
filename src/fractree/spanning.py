"""Three independent spanning-tree counters.

* ``tau_closed``   -- explicit factored formula from the size sequences
                      (the per-copy base count and its Lucas numbers are
                      in :mod:`~fractree.sequences`)
* ``tau_oracle``   -- Kirchhoff: exact determinant of a Laplacian minor
* ``tau_blocks``   -- product over biconnected blocks (tree counts multiply
                      across cut vertices)

A disagreement between any two isolates a bug: blocks wrong means the
construction is off, determinant wrong means the arithmetic is off.

Both graph routes take the determinant by sparse exact elimination of the
reduced Laplacian straight from adjacency lists.  Most vertices of these
graphs are path interiors of degree 2: each maximal chain of them, as
:func:`~fractree.graph.chains` walks it, is eliminated in closed form, as
one edge of conductance 1/(k+1) and a factor k+1, and the vertices of
other degrees that remain are eliminated in greedy
minimum-degree order, which keeps fill near zero on these planar graphs.
Entries are reduced integer (numerator, denominator) pairs, not
``Fraction`` objects.  The block product eliminates each distinct shape of
:func:`~fractree.graph.block_shapes` once, where the shape keys are
documented.  The dense fraction-free route
(:func:`~fractree.exact.bareiss_determinant` of
:func:`~fractree.graph.laplacian_minor`) stays as the reference it is
checked against.

The kernel is also the connectivity test: a disconnected graph's reduced
Laplacian is singular, and its elimination raises
:class:`DisconnectedGraphError`.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from math import gcd

from .errors import DisconnectedGraphError, SizeCapError
from .exact import FactoredCount, short_count_str
from .graph import Graph, block_shapes, chains, edge_adjacency, shape_edges
from .params import FractalParams
from .sequences import _exponent_sums_of, _recurrence_coefficients, _tau_terms

DEFAULT_ORACLE_MAX_VERTICES = 25_000


def tau_closed(params: FractalParams) -> FactoredCount:
    """Factored spanning-tree count for a stage-i family member.

    base^S1 * m^(mult*S2) with (base, mult) of
    :func:`~fractree.sequences._tau_terms`: n^S1 * m^S2 for a cycle,
    (L_{2n}-2)^S1 * m^(n*S2) for a wheel.  The exponent sums S1(i) and
    S2(i) come exactly, in closed form, from three consecutive vertex
    counts (:func:`~fractree.sequences._exponent_sums_of`).
    """
    *_, (s1, s2, _, _) = _exponent_sums_of(
        *_recurrence_coefficients(params.family, params.n, params.m), params.i)
    base, mult = _tau_terms(params.family, params.n)
    return FactoredCount({base: s1}) * FactoredCount({params.m: mult * s2})


def _add_pair(row: dict, key, n: int, d: int) -> None:
    """``row[key] += n/d``, kept a reduced pair with a positive denominator."""
    t = row.get(key)
    if t is not None:
        tn, td = t
        n, d = tn * d + n * td, td * d
        c = gcd(n, d)
        if c != 1:
            n //= c
            d //= c
    row[key] = (n, d)


def _reduced_laplacian_determinant(adj) -> int:
    """Determinant of the Laplacian of a simple graph with the row and
    column of its first vertex removed.

    ``adj`` maps each vertex to its neighbours.  Every maximal chain
    x - c1 - ... - ck - y of degree-2 vertices, with x and y of another
    degree or the dropped vertex, is eliminated first, in closed form, in
    the order :func:`~fractree.graph.chains` yields them with the dropped
    vertex as the first end.  Edges between two such ends (k = 0) are
    entered in the rows as they are built, as integers.  The
    pivots of c1..ck are 2, 3/2, ..., (k+1)/k, so the chain contributes the
    factor k+1, and eliminating it leaves one edge x - y of conductance
    1/(k+1): resistances in series add.  Parallel chains and edges between
    the same two vertices add their conductances.  A chain from x back to x
    leaves a loop, and a loop adds nothing to a Laplacian (its +c on the
    diagonal and -c off it fall on the same entry), so such a chain
    contributes its factor alone.  A degree-2 vertex that no chain reaches
    lies on a cycle that is a whole component away from the dropped vertex:
    the minor is singular, and :class:`DisconnectedGraphError` is raised, as
    for a zero pivot.

    The reduced Laplacian on the remaining vertices is kept as dict rows
    and eliminated one vertex at a time, always the one with the fewest
    nonzeros left (ties by vertex), taken from a heap whose stale entries
    are skipped.  Elimination keeps the rows symmetric, so a pivot row
    doubles as its column.  Arithmetic is exact: every entry is a reduced
    ``(numerator, denominator)`` pair of ints with a positive denominator,
    updated with ``math.gcd``.  The determinant is the chain factors times
    the product of the pivot numerators over the product of the pivot
    denominators, which must divide exactly.  The matrix is positive
    semidefinite, so its exact elimination meets a zero pivot, the sign of
    a disconnected graph, before any negative one; a negative pivot or a
    fractional product is a fault of this kernel: :class:`ArithmeticError`.
    """
    if not adj:
        return 1
    dropped = next(iter(adj))
    rows = {}
    for v, nbrs in adj.items():
        if v != dropped and len(nbrs) != 2:
            ends = [w for w in nbrs if w == dropped or len(adj[w]) != 2]
            rows[v] = row = dict.fromkeys((w for w in ends if w != dropped), (-1, 1))
            row[v] = (len(ends), 1)
    factor = 1
    reached = 1 + len(rows)
    for x, y, inner in chains(adj, (dropped, *rows)):
        if not inner:
            continue  # the rows hold the edges between two ends already
        length = len(inner) + 1
        factor *= length
        reached += len(inner)
        if x != y:
            for u, z in ((x, y), (y, x)):
                row = rows.get(u)
                if row is not None:
                    _add_pair(row, u, 1, length)
                    if z != dropped:
                        _add_pair(row, z, -1, length)
    if reached != len(adj):
        raise DisconnectedGraphError("disconnected: a cycle component misses the dropped vertex")
    heap = [(len(row), v) for v, row in rows.items()]
    heapify(heap)
    num = den = 1
    while heap:
        size, v = heappop(heap)
        row = rows.get(v)
        if row is None or len(row) != size:
            continue
        del rows[v]
        pn, pd = row.pop(v)
        # zero only on a disconnected graph, and never negative
        if pn <= 0:
            if pn == 0:
                raise DisconnectedGraphError(f"disconnected: zero pivot at vertex {v}")
            raise ArithmeticError(f"negative pivot {pn}/{pd} at vertex {v}")
        num *= pn
        den *= pd
        for w, (an, ad) in row.items():
            target = rows[w]
            del target[v]
            # the multiplier a / pivot, reduced; its denominator is > 0
            fn, fd = an * pd, ad * pn
            c = gcd(fn, fd)
            if c != 1:
                fn //= c
                fd //= c
            for x, (bn, bd) in row.items():
                # target[x] -= f * b
                un, ud = fn * bn, fd * bd
                t = target.get(x)
                if t is None:
                    un = -un
                else:
                    tn, td = t
                    un, ud = tn * ud - un * td, td * ud
                c = gcd(un, ud)
                target[x] = (un // c, ud // c) if c != 1 else (un, ud)
            heappush(heap, (len(target), w))
    det, rest = divmod(factor * num, den)
    if rest:
        raise ArithmeticError("the pivot product is not an integer")
    return det


def check_oracle_cap(vertex_count: int) -> None:
    """Refuse a determinant over more than :data:`DEFAULT_ORACLE_MAX_VERTICES`
    vertices with :class:`SizeCapError`."""
    if vertex_count > DEFAULT_ORACLE_MAX_VERTICES:
        raise SizeCapError(
            f"{short_count_str(vertex_count)} vertices exceeds the determinant cap "
            f"of {DEFAULT_ORACLE_MAX_VERTICES}"
        )


def tau_oracle(g: Graph) -> int:
    """Exact spanning-tree count via the matrix-tree theorem.

    The vertex cap (:func:`check_oracle_cap`) is checked first; the
    elimination itself refuses a disconnected graph.
    """
    check_oracle_cap(g.vertex_count)
    return _reduced_laplacian_determinant(dict(enumerate(g.adjacency)))


def tau_blocks(g: Graph) -> int:
    """Spanning-tree count as the product over biconnected blocks.

    Blocks are not classified: each distinct shape of
    :func:`~fractree.graph.block_shapes` is eliminated once and raised to
    the number of blocks that have it.
    """
    result = 1
    for key, count in block_shapes(g).items():
        result *= _reduced_laplacian_determinant(edge_adjacency(shape_edges(key))) ** count
    return result
