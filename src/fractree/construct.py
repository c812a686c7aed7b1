"""Growth operations and staged construction of both graph families.

A stage-i graph is produced from the base graph (a cycle C_n or a wheel
W_n) by i rounds of: (1) replace every edge with a path of m edges, then
(2) attach a fresh copy of the base graph at every vertex that existed
before step (1).  A wheel attaches by one of its rim vertices, so the
host gains degree 3; a cycle attaches by one cycle vertex (host gains 2).

Vertex ids are assigned in a fixed documented order (path interiors in
ascending edge order, then fresh copies in ascending host order, rim
before hub) so that repeated builds are byte-identical.

:func:`build` makes each round straight into the layout that
:meth:`Graph.from_layout <fractree.graph.Graph.from_layout>` takes as it
is: one pass over the old vertices writes the paths and the old
vertices' tuples, then every fresh copy is written one copy position at
a time.  :func:`base`, :func:`ept` and :func:`glv` instead collect role
codes, births and edges one edge at a time and hand them to the
validating :meth:`Graph.from_edges <fractree.graph.Graph.from_edges>`;
:func:`ept` and :func:`glv` are the reference that :func:`build` must
reproduce id for id.
"""

from __future__ import annotations

import os
from array import array
from dataclasses import dataclass
from itertools import islice
from operator import itemgetter

from .errors import BadParameterError, InvalidVertexSetError, SizeCapError
from .exact import short_count_str
from .graph import ROLE_CODE, Graph, VertexRole
from .params import Family, FractalParams
from .sequences import check_steps, size_sequences, vertex_count

DEFAULT_MAX_VERTICES = 10**6
MAX_VERTICES_ENV = "FRACTREE_MAX_VERTICES"


def _max_vertices() -> int:
    """The build cap: ``FRACTREE_MAX_VERTICES`` if set, else the default."""
    value = os.environ.get(MAX_VERTICES_ENV)
    if not value:
        return DEFAULT_MAX_VERTICES
    try:
        parsed = int(value)
    except ValueError:
        parsed = 0
    if parsed < 1:
        raise BadParameterError(f"{MAX_VERTICES_ENV} must be a positive integer, got {value!r}")
    return parsed


def base(family: Family, n: int) -> Graph:
    """The stage-0 graph: C_n, or W_n (rim cycle plus hub with n spokes)."""
    if not isinstance(n, int) or n < 3:
        raise BadParameterError(f"base graph needs n >= 3, got {n!r}")
    family = Family(family)
    roles = bytearray([ROLE_CODE[VertexRole.ORIGINAL_BASE]]) * n
    # one int object per id, as in every built graph
    rim = list(range(n))
    edges = list(zip(rim, rim[1:] + rim[:1]))
    if family is Family.WHEEL:
        roles.append(ROLE_CODE[VertexRole.BASE_HUB])
        edges += [(n, v) for v in rim]
    return Graph.from_edges(roles, array("i", [0]) * len(roles), edges)


def _vertex_lists(g: Graph, birth: int | None):
    """g's role codes and births as growable copies, and a function that
    appends one vertex of a given role code, born at ``birth`` (by default
    one stage after g's latest), and returns its id."""
    roles = bytearray(g._roles)
    births = array("i", g._births)
    if birth is None:
        birth = max(births, default=0) + 1

    def new_vertex(code: int) -> int:
        roles.append(code)
        births.append(birth)
        return len(roles) - 1

    return roles, births, new_vertex


def ept(g: Graph, m: int, birth: int | None = None) -> Graph:
    """Replace every edge with a path of length m (m-1 new interior vertices).

    Original vertex ids are preserved; interior ids are appended in
    ascending edge order, walking each path from its smaller endpoint.
    """
    if not isinstance(m, int) or m < 2:
        raise BadParameterError(f"path length m must be >= 2, got {m!r}")
    roles, births, new_vertex = _vertex_lists(g, birth)
    edges = []
    for u, v in g.edges():
        prev = u
        for _ in range(m - 1):
            w = new_vertex(_PATH_INTERIOR)
            edges.append((prev, w))
            prev = w
        edges.append((prev, v))
    return Graph.from_edges(roles, births, edges)


def glv(g: Graph, family: Family, n: int, eligible, birth: int | None = None) -> Graph:
    """Attach a fresh base graph at each eligible vertex.

    The host plays one cycle vertex of a fresh C_n, or one rim vertex of a
    fresh W_n.  Fresh ids are appended per host in ascending host order:
    rim vertices in rim-cycle order starting next to the host, hub last.
    """
    if not isinstance(n, int) or n < 3:
        raise BadParameterError(f"attachment needs n >= 3, got {n!r}")
    family = Family(family)
    eligible = list(eligible)
    outside = [v for v in eligible if not (type(v) is int and 0 <= v < g.vertex_count)]
    if outside:
        raise InvalidVertexSetError(f"eligible vertices {outside} not within graph")
    roles, births, new_vertex = _vertex_lists(g, birth)
    edges = list(g.edges())
    for host in sorted(set(eligible)):
        cycle = [host] + [new_vertex(_FRESH_RIM) for _ in range(n - 1)]
        edges += [(cycle[k], cycle[(k + 1) % n]) for k in range(n)]
        if family is Family.WHEEL:
            hub = new_vertex(_FRESH_HUB)
            edges += [(hub, v) for v in cycle]
    return Graph.from_edges(roles, births, edges)


def build(params: FractalParams) -> Graph:
    """Construct the stage-i graph for the given parameters.

    The predicted vertex count, reached by index doubling, is checked
    against the cap before any construction happens.  The cap is
    :data:`DEFAULT_MAX_VERTICES` (10^6), or the positive integer in the
    ``FRACTREE_MAX_VERTICES`` environment variable if that is set; any
    other value there raises :class:`BadParameterError`.  A stage whose
    count would pass :data:`~fractree.sequences.MAX_RECURRENCE_BITS` is
    refused by its float estimate first, with
    :class:`~fractree.errors.OverflowCapError`, so the exact count is never
    stepped that far.
    """
    cap = _max_vertices()
    check_steps(params, params.i + 1, f"stage {short_count_str(params.i)}")
    vertices = vertex_count(params, params.i + 1)
    if vertices > cap:
        raise SizeCapError(
            f"stage {params.i} graph would have {short_count_str(vertices)} vertices, "
            f"cap is {cap}"
        )
    g = _build_staged(params)
    if g.vertex_count != vertices:
        raise RuntimeError(
            f"stage {params.i} graph was built with {g.vertex_count} vertices, "
            f"not the predicted {vertices}"
        )
    return g


_PATH_INTERIOR = ROLE_CODE[VertexRole.PATH_INTERIOR]
_FRESH_RIM = ROLE_CODE[VertexRole.FRESH_RIM]
_FRESH_HUB = ROLE_CODE[VertexRole.FRESH_HUB]


def _build_staged(params: FractalParams) -> Graph:
    """Every round of ``ept`` then ``glv`` as one pass over the old vertices,
    then one bulk write per copy position.

    An old vertex keeps its id but none of its neighbours: each of its
    edges becomes a path and it hosts a fresh copy.  Walking the edges in
    ascending (u, v) order hands out the interior ids in ascending order,
    so every old vertex's new neighbours come out sorted: first its path
    ends, then its copy's first and last rim (and hub).  A round's size is
    known before it starts, so its copies are numbered from the end of its
    ``edge_count * (m - 1)`` path interiors, ``size`` ids per host in host
    order, and the adjacency list is grown once per round.

    The pass writes the paths and each old vertex's final tuple, whose
    last ids are its copy's ends.  Copy position j of every host then sits
    at ``cid0 + j``, ``cid0 + j + size``, ..., so :func:`_write_copies`
    writes the copies' tuples one position at a time, each position as
    one extended-slice assignment over all hosts.

    Each vertex id is one ``int`` object, shared by every tuple that names
    it.  A new id is made once, as it is numbered, and put into each tuple
    that names it; a copy's ends are made in their host's tuple and read
    back from it.  An old id with an older neighbour is read back from the
    tuple of its first new neighbour, the end of the path from its
    smallest old neighbour; one with none, such as 0, starts every path it
    ends, so the pass's own int names it.  No table of all ids is kept,
    because a list of every id would add a pointer per vertex to the
    build's peak.

    A round holds little besides the graph it makes: ``grown[u]``, u's
    list of new neighbours, becomes u's tuple in place of its old tuple,
    and the slot then holds u's id, so ``grown`` ends the pass as the
    list of hosts that the copies read.
    """
    n, m = params.n, params.m
    wheel = params.family is Family.WHEEL
    g = base(params.family, n)
    roles = bytearray(g._roles)
    births = array("i", g._births)
    adj = list(g.adjacency)
    edge_count = g.edge_count
    copy_roles = bytes([_FRESH_RIM]) * (n - 1) + (bytes([_FRESH_HUB]) if wheel else b"")
    size = len(copy_roles)
    last = n - 2  # the last rim's copy position; the hub's is n - 1
    # where an old id sits in the tuple of the path end next to it:
    # (w, u) when that end is the path's one interior, else (u, p)
    side = 1 if m == 2 else 0
    for stage in range(1, params.i + 1):
        old = len(adj)
        nxt = old  # the next path interior
        cid0 = cid = old + edge_count * (m - 1)  # the first copy's first id
        adj += [None] * (cid - old + old * size)
        grown = [[] for _ in range(old)]
        for u in range(old):
            nb = adj[u]
            ends = grown[u]
            if ends:
                u = adj[ends[0]][side]
            grown[u] = u  # the list becomes u's tuple; the slot keeps its id
            for v in nb:
                if v > u:
                    # the path u - nxt - ... - v
                    ends.append(nxt)
                    if m == 2:
                        adj[nxt] = (u, v)
                        grown[v].append(nxt)
                        nxt += 1
                    else:
                        end = _write_path(adj, u, nxt, m - 1, v)
                        grown[v].append(end)
                        nxt = end + 1
            ends += (cid, cid + last, cid + last + 1) if wheel else (cid, cid + last)
            adj[u] = tuple(ends)
            cid += size
        _write_copies(adj, grown, cid0, size, last, wheel)
        del grown  # not held while the next round's lists are made
        roles += bytes([_PATH_INTERIOR]) * (nxt - old)
        roles += copy_roles * old
        births += array("i", [stage]) * (cid - old)
        edge_count = m * edge_count + old * (2 * n if wheel else n)
    return Graph.from_layout(roles, births, adj, edge_count, params)


def _write_copies(adj, hosts: list, cid0: int, size: int, last: int, wheel: bool) -> None:
    """Write the tuples of every host's copy, one copy position at a time.

    ``hosts[k]`` is old vertex k's id.  Its copy holds ids ``cid0 + k *
    size`` onwards: rim positions 0..``last`` in cycle order from the host,
    then the hub for wheels.  The end rims and the hub are read back from
    the hosts' tuples, which end with them; each middle rim position's ids
    are made once, as a list.  Each rim is joined to the rims (or the
    host) before and after it, and to the hub; the hub to the host and
    every rim.  A host is older than its copy, so every tuple comes out
    sorted, as :func:`glv` would make it.
    """
    old = len(hosts)
    stop = cid0 + old * size
    middles = [list(range(cid0 + j, stop, size)) for j in range(1, last)]

    def from_end(k: int):
        """The k-th id from the end of every host's tuple, in host order."""
        return map(itemgetter(-k), islice(adj, old))

    def rims(j: int):
        """The ids at rim position j of every copy, in host order."""
        if j == 0:
            return from_end(2 + wheel)
        if j == last:
            return from_end(1 + wheel)
        return middles[j - 1]

    for j in range(last + 1):
        if j == 0:
            cols = [hosts, rims(1)]
        elif j == last:
            cols = [hosts, rims(j - 1)]
        else:
            cols = [rims(j - 1), rims(j + 1)]
        if wheel:
            cols.append(from_end(1))
        adj[cid0 + j:stop:size] = zip(*cols)
    if wheel:
        adj[cid0 + last + 1:stop:size] = zip(hosts, *map(rims, range(last + 1)))


def _write_path(adj, a, first: int, count: int, b) -> int:
    """Write the tuples of the path a - first - ... - last - b through
    ``count`` >= 2 new ids from ``first``, and return ``last``.  a and b
    are older, so every tuple comes out sorted; each new id is made once
    and shared by both tuples that name it.  It writes the paths of
    ``m > 2``; the copies are written by :func:`_write_copies`."""
    prev, cur = a, first
    for w in range(first + 1, first + count):
        adj[cur] = (prev, w)
        prev, cur = cur, w
    adj[cur] = (b, prev)
    return cur


@dataclass(frozen=True)
class CopyCensus:
    """Predicted self-similar composition of a stage-i graph.

    ``stage_counts[t]`` is the number of embedded stage-t copies for
    t < i; ``central`` is the block signature of the central graph (the
    base graph after i edge-path rounds, :func:`_base_signature`).
    """

    stage_counts: dict
    central: tuple


def copy_census(params: FractalParams) -> CopyCensus:
    """Copy counts per stage plus the central-graph descriptor.

    The count of stage-t copies is driven by the number of unattached
    path-interior vertices of the central graph two rounds back: c(m-1)
    m^(i-t-2) of them for t <= i-2, where c is the base edge count per
    original vertex slot (n for cycles, 2n for wheels), and n (cycle) or
    n+1 (wheel) top-level copies at t = i-1.
    """
    n, m, i = params.n, params.m, params.i
    if i < 1:
        raise BadParameterError("copy census needs stage i >= 1")
    counts = {}
    if params.family is Family.CYCLE:
        counts[i - 1] = n
        edge_rate = n
    else:
        counts[i - 1] = n + 1
        edge_rate = 2 * n
    for t in range(i - 2, -1, -1):
        counts[t] = edge_rate * (m - 1) * m ** (i - t - 2)
    return CopyCensus(counts, _base_signature(params, i))


def _base_signature(params: FractalParams, k: int) -> tuple:
    """The block signature of the base graph after k edge-path rounds: a
    cycle of length n*m^k, or a wheel on n rim vertices with uniform path
    length m^k."""
    if params.family is Family.CYCLE:
        return ("cycle", params.n * params.m**k)
    return ("wheel", params.n, params.m**k)


def predicted_block_multiset(params: FractalParams) -> dict:
    """Expected multiset of block signatures for the built stage-i graph.

    The age-k layer contributes u_{i-k} copies of the base graph after k
    edge-path rounds (:func:`_base_signature`).
    """
    i = params.i
    u = size_sequences(params, i).u
    out = {}
    for k in range(i + 1):
        key = _base_signature(params, k)
        out[key] = out.get(key, 0) + u[i - k]
    return out


def unfold_census_block_multiset(params: FractalParams) -> dict:
    """Expand the copy census into a full block multiset, one stage at a
    time: stage s holds its central block plus the multisets of the lower
    stages its census counts, so each stage is unfolded once.

    Independent cross-check route: must agree with
    :func:`predicted_block_multiset` and with the structural decomposition
    of the built graph.
    """
    stages = [{_base_signature(params, 0): 1}]
    for s in range(1, params.i + 1):
        census = copy_census(params.with_stage(s))
        out = {census.central: 1}
        for t, count in census.stage_counts.items():
            for key, mult in stages[t].items():
                out[key] = out.get(key, 0) + count * mult
        stages.append(out)
    return stages[params.i]
