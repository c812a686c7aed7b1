"""Undirected simple graphs with vertex provenance and exact queries.

Vertices carry a role (how the growth process created them) and a birth
stage.  Adjacency is kept as sorted neighbor tuples so every iteration
order, and hence every export, is deterministic.
"""

from __future__ import annotations

import json
from array import array
from collections import Counter
from dataclasses import dataclass
from enum import Enum
from functools import cache
from itertools import chain, islice
from typing import Iterable, Iterator, Optional

from .errors import DisconnectedGraphError, InvalidVertexError
from .params import FractalParams


class VertexRole(str, Enum):
    ORIGINAL_BASE = "original_base"
    PATH_INTERIOR = "path_interior"
    FRESH_RIM = "fresh_rim"
    FRESH_HUB = "fresh_hub"
    BASE_HUB = "base_hub"


# A graph stores each vertex's role as a one-byte code: its index here.
ROLES = tuple(VertexRole)
ROLE_CODE = {role: code for code, role in enumerate(ROLES)}


class Graph:
    """Simple undirected graph, immutable from the start.

    Vertex ids are dense 0..n-1 in creation order.  The layout is compact:
    a ``bytearray`` of role codes (indices into :data:`ROLES`), an
    ``array`` of birth stages, and one sorted neighbour tuple per vertex.

    There is one way in, validated or trusted: :meth:`from_edges` checks
    an edge list before it builds anything, and :meth:`from_layout` takes
    finished neighbour tuples as they are.  Vertex ids are plain ``int``s;
    a ``bool`` is refused wherever a vertex is taken.
    """

    __slots__ = ("_roles", "_births", "_adj", "_edge_count", "_params")

    def __init__(self):
        raise TypeError("make a Graph with Graph.from_edges or Graph.from_layout")

    @classmethod
    def from_edges(cls, roles: bytearray, births: array, edges) -> "Graph":
        """A graph over ``edges``, with the vertex lists of :meth:`from_layout`
        and no family parameters.

        An endpoint that is not a plain ``int`` (a ``bool`` is refused) in
        ``range(len(roles))`` raises :class:`InvalidVertexError`; a
        self-loop, or an edge given twice in either orientation, raises
        ``ValueError``.
        """
        n = len(roles)
        adj = [set() for _ in range(n)]
        count = 0
        for u, v in edges:
            if not (type(u) is int and type(v) is int and 0 <= u < n and 0 <= v < n):
                raise InvalidVertexError(f"edge ({u!r},{v!r}) references a missing vertex")
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            if v in adj[u]:
                raise ValueError(f"duplicate edge ({u},{v})")
            adj[u].add(v)
            adj[v].add(u)
            count += 1
        return cls.from_layout(roles, births, [tuple(sorted(nb)) for nb in adj], count)

    @classmethod
    def from_layout(
        cls, roles: bytearray, births: array, adjacency, edge_count: int,
        params: Optional[FractalParams] = None,
    ) -> "Graph":
        """A graph over finished lists, taken as they are.

        ``adjacency[v]`` must be the ascending tuple of v's neighbours,
        symmetric and loop-free, with ``edge_count`` edges in all; only the
        lengths are checked.
        """
        if not len(roles) == len(births) == len(adjacency):
            raise ValueError("roles, births and adjacency differ in length")
        g = cls.__new__(cls)
        g._roles = roles
        g._births = births
        g._adj = tuple(adjacency)
        g._edge_count = edge_count
        g._params = params
        return g

    @property
    def params(self) -> Optional[FractalParams]:
        """The family parameters the graph was built for, if any; read-only."""
        return self._params

    @property
    def vertex_count(self) -> int:
        return len(self._adj)

    @property
    def edge_count(self) -> int:
        return self._edge_count

    @property
    def adjacency(self) -> tuple:
        """Every vertex's sorted neighbour tuple, indexed by vertex id."""
        return self._adj

    def neighbors(self, v: int) -> tuple:
        self._check_vertex(v)
        return self._adj[v]

    def degree(self, v: int) -> int:
        self._check_vertex(v)
        return len(self._adj[v])

    def edges(self) -> Iterator[tuple]:
        """All edges as (u, v) with u < v, ascending lexicographic."""
        for u, nb in enumerate(self._adj):
            for v in nb:
                if v > u:
                    yield (u, v)

    def _check_vertex(self, v: int) -> None:
        if type(v) is not int or not 0 <= v < len(self._adj):
            raise InvalidVertexError(f"vertex {v!r} not in graph")


def plain_graph(n: int, edges) -> Graph:
    """n ``ORIGINAL_BASE`` vertices born at stage 0, joined by ``edges``."""
    return Graph.from_edges(bytearray([ROLE_CODE[VertexRole.ORIGINAL_BASE]]) * n,
                            array("i", [0]) * n, edges)


def degree_histogram(g: Graph) -> dict:
    """Map degree -> number of vertices with that degree."""
    return dict(Counter(map(len, g._adj)))


def laplacian_minor(g: Graph, omit: int):
    """Laplacian L = D - A with the row and column of ``omit`` removed."""
    g._check_vertex(omit)
    ids = [v for v in range(g.vertex_count) if v != omit]
    index = {v: k for k, v in enumerate(ids)}
    n = len(ids)
    rows = [[0] * n for _ in range(n)]
    for k, v in enumerate(ids):
        rows[k][k] = g.degree(v)
        for w in g.neighbors(v):
            if w != omit:
                rows[k][index[w]] = -1
    return rows


@dataclass(frozen=True)
class Block:
    """One biconnected component and its structural signature.

    ``signature`` is ("cycle", length) for a plain cycle block,
    ("wheel", n, path_length) for a wheel on n rim vertices whose every
    edge has been replaced by a path of ``path_length`` edges
    (path_length 1 = the plain wheel), and ("other",) for anything else.
    """

    vertices: tuple
    edges: tuple
    signature: tuple


def blocks(g: Graph) -> list:
    """Biconnected components of a connected graph, classified.

    Every edge lands in exactly one block; blocks are returned sorted by
    their smallest edge for determinism.  Blocks with one
    :func:`block_shapes` key are classified once.
    """
    out = []
    classify = cache(_classify_block)
    for head, members in _block_walk(g):
        ids = [head, *members]
        pairs = tuple(_block_edges(g._adj, head, members))
        edges = tuple(sorted((ids[a], ids[b]) if ids[a] < ids[b] else (ids[b], ids[a])
                             for a, b in pairs))
        # a block with as many edges as vertices is a cycle, as in block_census
        out.append(Block(tuple(sorted(ids)), edges, ("cycle", len(ids))
                         if len(edges) == len(ids) else classify(pairs)))
    return sorted(out, key=lambda b: b.edges[0])


def block_shapes(g: Graph) -> Counter:
    """Number of biconnected blocks of each exact shape, keyed by shape.

    All cycles of one length are isomorphic, so a cycle's key is its
    length.  ``free[x]`` is x's degree less its edges in closed blocks
    headed at x, and a block closes after every block headed at one of its
    members.  So it is a cycle exactly when its members' ``free`` add up to
    2 each: none has fewer in a biconnected block, and a bridge's one
    member has 1.  Any other block's key is its :func:`_block_edges`, so
    equal keys mean the same labelled graph.  Isomorphic blocks may still
    get different keys, which costs time but not exactness.
    """
    free = list(map(len, g._adj))
    shapes = Counter()
    for head, members in _block_walk(g):
        if sum(map(free.__getitem__, members)) == 2 * len(members):
            shapes[len(members) + 1] += 1
            free[head] -= 2
        else:
            pairs = _block_edges(g._adj, head, members)
            shapes[tuple(pairs)] += 1
            free[head] -= sum(not a for a, _ in pairs)
    return shapes


def shape_edges(key) -> tuple:
    """One block with the :func:`block_shapes` key ``key``, as its edges."""
    if isinstance(key, int):
        return tuple((k, (k + 1) % key) for k in range(key))
    return key


def block_census(g: Graph) -> dict:
    """Number of blocks of each signature.

    One representative of each :func:`block_shapes` key is classified, and
    the counts of keys with equal signatures are added up.
    """
    out = {}
    for key, count in block_shapes(g).items():
        signature = ("cycle", key) if isinstance(key, int) else _classify_block(key)
        out[signature] = out.get(signature, 0) + count
    return out


def format_block_census(census: dict) -> str:
    """A signature -> count census as ``"<signature>x<count>; ..."``, sorted."""
    return "; ".join(f"{k}x{v}" for k, v in sorted(census.items()))


def _block_walk(g: Graph) -> Iterator[tuple]:
    """Yield ``(head, members)`` of every biconnected component as it
    closes, in post-order: blocks headed at a member close before the
    member's own block.  A disconnected graph raises
    :class:`DisconnectedGraphError` once every block of the part reached
    from vertex 0 has been yielded.

    Iterative Hopcroft-Tarjan, so large graphs cannot exhaust the
    recursion limit.  It keeps a stack of vertices rather than edges: when a child
    v closes a block under its parent u, u is its head and the vertices
    found since v, in discovery order, are its members.  The edge back to a
    vertex's parent may lower its low to the parent's discovery time,
    which changes no ``low(v) >= disc[u]`` test, so it is not skipped.

    ``disc`` is the walk's only list of n, and it holds a distinct time
    only for open vertices.  A frame takes the timer's value as it opens
    and gives it up once its close tests have read it; chain vertices
    never hold one.  Both then hold one shared mark, n + 1: one int object
    however many vertices hold it, and above every time.  Past "visited",
    a closed or chain vertex's number is read only to lower a low, and a
    time of its own would not have lowered it either: no back edge ends
    inside a chain, and a closed vertex next to an open one is its
    descendant, found after it.  The timer still counts chain vertices, so
    frame times, the ``timer <= n`` connectivity test and the yielded
    stream are those of a walk that kept every time.  A vertex's low, its
    place in ``pending`` and the length of the chain that led to it matter
    only while it is open, so they sit on the path stack beside it, one
    entry per open vertex, and go as it closes.  Streaming keeps no list
    of all blocks: a consumer that drops each block before the next holds
    little besides ``disc``.

    Degree-2 vertices get no frame of their own.  From v, the walk follows
    a chain v - c1 - ... - ck - x of unvisited degree-2 vertices in one
    loop, counting c1..ck on the timer as a frame-by-frame walk would, and
    stops at the first x that is visited or not of degree 2.  Both edges of
    each ci are tree edges, so no back edge ends inside a chain:
    - if x is visited it is v or an ancestor of v; x = v closes the chain
      as a block headed at v, and otherwise disc[x] lowers v's low;
    - if x is new it becomes v's child, with chain length k.  When x
      closes, low(x) >= disc[x] makes a block headed at ck and then one
      bridge per chain edge, innermost first; otherwise the chain acts as
      a single tree edge from v to x.  The test is written against
      disc[x] because it reads "nothing below x reaches above x": ck's
      mark does not lower low(x), and ck's time, disc[x] - 1, is no
      frame's, so ``low(x) >= disc[x] - 1`` would be the same test.
    """
    adj = g._adj
    n = len(adj)
    if n <= 1:
        return

    disc = [0] * n  # discovery time from 1 while open; 0 while unvisited
    mark = n + 1  # every vertex neither open nor unvisited
    pending = []
    # the open vertices, root first, each with its low, its place in
    # `pending` and the number of chain vertices just before that place
    path = [0]
    iters = [iter(adj[0])]
    lows = [1]
    depths = [0]
    chains = [0]

    disc[0] = 1
    timer = 2
    while path:
        v = path[-1]
        for w in iters[-1]:
            if not disc[w]:
                c = 0
                if len(adj[w]) == 2:
                    start = len(pending)
                    prev = v
                    while True:
                        disc[w] = mark
                        timer += 1
                        pending.append(w)
                        a, b = adj[w]
                        x = b if a == prev else a
                        if disc[x] or len(adj[x]) != 2:
                            break
                        prev, w = w, x
                    if disc[x]:
                        if x == v:
                            yield v, pending[start:]
                            del pending[start:]
                        elif disc[x] < lows[-1]:
                            lows[-1] = disc[x]
                        continue
                    w = x
                    c = len(pending) - start
                disc[w] = timer
                lows.append(timer)
                timer += 1
                depths.append(len(pending))
                chains.append(c)
                pending.append(w)
                path.append(w)
                iters.append(iter(adj[w]))
                break
            if disc[w] < lows[-1]:
                lows[-1] = disc[w]
        else:
            path.pop()
            iters.pop()
            low = lows.pop()
            k = depths.pop()
            c = chains.pop()
            if path:
                u = path[-1]
                if c and low >= disc[v]:
                    # a block headed at ck, then the bridges of u - c1 - ... - ck
                    line = [u, *pending[k - c:k]]
                    yield line[-1], pending[k:]
                    for j in range(c, 0, -1):
                        yield line[j - 1], [line[j]]
                    del pending[k - c:]
                elif low >= disc[u]:
                    yield u, pending[k - c:]
                    del pending[k - c:]
                elif low < lows[-1]:
                    lows[-1] = low
            disc[v] = mark
    if timer <= n:
        raise DisconnectedGraphError("block decomposition requires a connected graph")


def edge_adjacency(edges) -> dict:
    """Each endpoint of ``edges`` mapped to the list of its neighbours, in
    edge order."""
    adj = {}
    for u, v in edges:
        adj.setdefault(u, []).append(v)
        adj.setdefault(v, []).append(u)
    return adj


def chains(adj, ends) -> Iterator[tuple]:
    """Yield ``(x, y, inner)`` once for each maximal chain x - c1 - ... - ck - y.

    ``adj`` maps each vertex to its neighbours, and ``ends`` is a
    collection of distinct vertices that holds every vertex whose degree is
    not 2; it may hold vertices of degree 2 too.  x and y are ends, and the inner vertices
    ``[c1, ..., ck]`` have degree 2 and are not ends.  An edge between two
    ends is a chain with no inner vertex, and a chain from x back to x has
    y = x.  A cycle of degree-2 vertices that no end reaches yields nothing.

    Chains come from the ends in the order of ``ends``, each from the
    first of its ends and that end's first edge into it, in adjacency
    order.  Only the ends and each chain's last vertex are remembered: a
    chain can be entered again only through its other end's edge, which
    leads to that vertex first.
    """
    stops = set(ends)
    done = set()
    for x in ends:
        done.add(x)
        for w in adj[x]:
            if w in done:
                continue
            inner = []
            prev = x
            while w not in stops:
                inner.append(w)
                a, b = adj[w]
                prev, w = w, (b if a == prev else a)
            done.add(prev)
            yield x, w, inner


def _block_edges(adj, head, members) -> list:
    """A block's edges as label pairs (a, b), a < b, with the head labelled
    0 and the members 1, 2, ... in order: for each member b, its
    neighbours a < b in adjacency order.  Two blocks share at most one
    vertex, so the edges among a block's vertices are exactly its edges.
    """
    label = {x: k for k, x in enumerate((head, *members))}
    return [(a, b) for b, x in enumerate(members, 1) for y in adj[x] if (a := label.get(y, b)) < b]


def _classify_block(edges) -> tuple:
    """The :class:`Block` signature of one biconnected block that is not a
    cycle, given as its edge list.

    Both callers send cycles elsewhere: :func:`blocks` names a block a
    cycle when it has as many edges as vertices, and :func:`block_census`
    passes only the keys :func:`block_shapes` did not find to be cycles.
    Such a block is a bridge or has k >= 2 branch vertices (degree >= 3)
    joined by chains of degree-2 vertices, which :func:`chains` yields
    with the branch vertices as ends.  Contracting every chain to one
    edge keeps the block 2-connected (Whitney, 1932), so no chain returns
    to its own start.  The block is a subdivided wheel exactly when every
    chain has the same length p, no chain is a loop and no two join the
    same pair of branch vertices, k >= 4 and the contracted degrees,
    sorted, are ``[3] * (k - 1) + [k - 1]``; it is then
    ``("wheel", k - 1, p)``:

    - in a simple graph on k vertices, a vertex of degree k - 1 (the hub)
      is adjacent to all the others;
    - so every other vertex has exactly two neighbours besides the hub,
      and the rim they make is 2-regular;
    - a rim of two or more cycles would make the hub a cut vertex of the
      2-connected contraction, so the rim is one cycle;
    - for k = 4 every degree is 3, which gives K_4 = W_3.

    With no loop and no pair twice, each chain at a branch vertex leaves
    by its own edge for another branch vertex, so a branch vertex's
    contracted degree is its degree.
    """
    adj = edge_adjacency(edges)
    branch = [v for v, nb in adj.items() if len(nb) >= 3]
    found = [((x, y) if x < y else (y, x), len(inner) + 1) for x, y, inner in chains(adj, branch)]
    pairs = {pair for pair, _ in found if pair[0] != pair[1]}  # a loop counts as a repeat
    lengths = {length for _, length in found}
    degrees = sorted(len(adj[v]) for v in branch)
    k = len(branch)
    if (len(pairs) == len(found) and len(lengths) == 1 and k >= 4
            and degrees == [3] * (k - 1) + [k - 1]):
        return ("wheel", k - 1, lengths.pop())
    return ("other",)


# An export is made in chunks of at least _CHUNK_CHARS characters (the last
# may be shorter), each joined from parts of _PART_ITEMS lines or entries,
# so that writing one takes one large write and holding one stays small.
_CHUNK_CHARS = 1 << 16
_PART_ITEMS = 1 << 10


def _chunked(items: Iterator[str]) -> Iterator[str]:
    """The strings of ``items``, joined into chunks of _CHUNK_CHARS or more."""
    parts = []
    size = 0
    while part := "".join(islice(items, _PART_ITEMS)):
        parts.append(part)
        size += len(part)
        if size >= _CHUNK_CHARS:
            yield "".join(parts)
            parts = []
            size = 0
    if parts:
        yield "".join(parts)


def edgelist_chunks(g: Graph) -> Iterator[str]:
    """:func:`to_edgelist_text` in chunks, for writing as they are made.

    It walks the adjacency once, in one generator that yields every line.
    """
    return _chunked(f"{u} {v}\n" for u, nb in enumerate(g._adj) for v in nb if v > u)


def to_edgelist_text(g: Graph) -> str:
    """One "u v" line per edge, u < v, ascending lexicographic."""
    return "".join(edgelist_chunks(g))


def _json_header(g: Graph) -> dict:
    p = g.params
    return {
        "family": p.family.value if p else None,
        "n": p.n if p else None,
        "m": p.m if p else None,
        "i": p.i if p else None,
    }


def to_json_dict(g: Graph) -> dict:
    role_names = [role.value for role in ROLES]
    return {
        **_json_header(g),
        "vertices": [
            {"id": v, "role": role_names[code], "birth": birth}
            for v, (code, birth) in enumerate(zip(g._roles, g._births))
        ],
        "edges": [[u, v] for u, v in g.edges()],
    }


def json_chunks(g: Graph) -> Iterator[str]:
    """``json.dumps(to_json_dict(g), indent=2) + "\\n"`` in chunks, for
    writing as they are made.

    With ``indent`` set, CPython's ``json`` runs its pure-Python encoder,
    so the vertex and edge entries are written here in the same layout.
    The edge entries come from one walk over the adjacency, in one
    generator that yields them all.
    """
    head = json.dumps(_json_header(g), indent=2)[:-2]  # drop the closing "\n}"
    roles = [json.dumps(role.value) for role in ROLES]
    vertices = (
        f',\n    {{\n      "id": {v},\n      "role": {roles[code]},\n      "birth": {birth}\n    }}'
        for v, code, birth in zip(range(len(g._adj)), g._roles, g._births)
    )
    edges = (f",\n    [\n      {u},\n      {v}\n    ]"
             for u, nb in enumerate(g._adj) for v in nb if v > u)
    return _chunked(chain([head, ',\n  "vertices": '], _json_list(vertices),
                          [',\n  "edges": '], _json_list(edges), ["\n}\n"]))


def _json_list(items: Iterator[str]) -> Iterable[str]:
    """A JSON list of entries that each begin with their "," separator."""
    first = next(items, None)
    if first is None:
        return ["[]"]
    return chain(["[", first[1:]], items, ["\n  ]"])


_DOT_COLORS = {
    VertexRole.ORIGINAL_BASE: "black",
    VertexRole.PATH_INTERIOR: "gray",
    VertexRole.FRESH_RIM: "blue",
    VertexRole.FRESH_HUB: "red",
    VertexRole.BASE_HUB: "darkred",
}


def dot_chunks(g: Graph) -> Iterator[str]:
    """:func:`to_dot` in chunks, for writing as they are made.

    The edge lines come from one walk over the adjacency, in one
    generator that yields them all.
    """
    colors = [_DOT_COLORS[role] for role in ROLES]
    vertices = (
        f'  {v} [color={colors[code]}, label="{v}", birth={birth}];\n'
        for v, code, birth in zip(range(len(g._adj)), g._roles, g._births)
    )
    edges = (f"  {u} -- {v};\n" for u, nb in enumerate(g._adj) for v in nb if v > u)
    return _chunked(chain(["graph G {\n"], vertices, edges, ["}\n"]))


def to_dot(g: Graph) -> str:
    """The graph in Graphviz DOT as ``graph G { ... }``, each vertex
    coloured by its role."""
    return "".join(dot_chunks(g))
