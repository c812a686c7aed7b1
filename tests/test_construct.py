import ast
import re
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fractree import construct
from fractree.clustering import degree_census_predicted
from fractree.construct import (
    base,
    build,
    copy_census,
    ept,
    glv,
    predicted_block_multiset,
    unfold_census_block_multiset,
)
from fractree.errors import (
    BadParameterError,
    InvalidVertexSetError,
    OverflowCapError,
    SizeCapError,
)
from fractree.graph import (
    ROLE_CODE,
    ROLES,
    Graph,
    VertexRole,
    block_census,
    blocks,
    degree_histogram,
    dot_chunks,
    edgelist_chunks,
    json_chunks,
    plain_graph,
    to_edgelist_text,
)
from fractree.params import Family, FractalParams
from fractree.sequences import size_sequences, vertex_count
from fractree.verify import random_connected_graph


class TestParams:
    def test_validation(self):
        with pytest.raises(BadParameterError):
            FractalParams(Family.CYCLE, 2, 2, 0)
        with pytest.raises(BadParameterError):
            FractalParams(Family.CYCLE, 3, 1, 0)
        with pytest.raises(BadParameterError):
            FractalParams(Family.CYCLE, 3, 2, -1)
        with pytest.raises(ValueError):
            FractalParams("hexagon", 3, 2, 0)

    @pytest.mark.parametrize("field", ["n", "m", "i"])
    @pytest.mark.parametrize("flag", [True, False])
    def test_bool_refused(self, field, flag):
        values = {"n": 3, "m": 2, "i": 1, field: flag}
        with pytest.raises(BadParameterError):
            FractalParams(Family.CYCLE, **values)

    def test_family_coercion(self):
        assert FractalParams("cycle", 3, 2).family is Family.CYCLE


class TestBase:
    def test_cycle(self):
        g = base(Family.CYCLE, 4)
        assert (g.vertex_count, g.edge_count) == (4, 4)
        assert g._roles == bytearray([ROLE_CODE[VertexRole.ORIGINAL_BASE]]) * 4

    def test_wheel(self):
        g = base(Family.WHEEL, 4)
        assert (g.vertex_count, g.edge_count) == (5, 8)
        assert g._roles[4] == ROLE_CODE[VertexRole.BASE_HUB]
        assert g.degree(4) == 4

    def test_three_wheel_is_complete(self):
        g = base(Family.WHEEL, 3)
        assert (g.vertex_count, g.edge_count) == (4, 6)
        assert g.adjacency == tuple(tuple(w for w in range(4) if w != v) for v in range(4))

    def test_bad_n(self):
        with pytest.raises(BadParameterError):
            base(Family.CYCLE, 2)


class TestEpt:
    def test_square_doubles(self):
        g = ept(base(Family.CYCLE, 4), 2)
        assert (g.vertex_count, g.edge_count) == (8, 8)
        assert [b.signature for b in blocks(g)] == [("cycle", 8)]

    def test_edge_to_path(self):
        g = ept(plain_graph(2, [(0, 1)]), 3)
        assert (g.vertex_count, g.edge_count) == (4, 3)
        assert degree_histogram(g) == {1: 2, 2: 2}

    def test_iterated_triangle(self):
        g = base(Family.CYCLE, 3)
        for _ in range(3):
            g = ept(g, 2)
        assert [b.signature for b in blocks(g)] == [("cycle", 24)]

    def test_roles_and_ids_preserved(self):
        w = base(Family.WHEEL, 4)
        g = ept(w, 2)
        assert g._roles[:5] == w._roles
        assert set(g._roles[5:]) == {ROLE_CODE[VertexRole.PATH_INTERIOR]}

    def test_size_law_on_random_graphs(self, rng):
        for _ in range(30):
            g = random_connected_graph(rng, max_n=10)
            m = rng.choice((2, 3, 4))
            sub = ept(g, m)
            assert sub.vertex_count == g.vertex_count + (m - 1) * g.edge_count
            assert sub.edge_count == m * g.edge_count

    def test_bad_m(self):
        with pytest.raises(BadParameterError):
            ept(base(Family.CYCLE, 3), 1)


class TestGlv:
    def test_bad_n(self):
        with pytest.raises(BadParameterError):
            glv(base(Family.CYCLE, 3), Family.CYCLE, 2, [0])

    def test_figure_growth(self):
        # each host is identified with one vertex of its fresh copy, so an
        # attachment adds n-1 vertices and n edges
        g = glv(base(Family.CYCLE, 4), Family.CYCLE, 4, range(4))
        assert (g.vertex_count, g.edge_count) == (16, 20)
        assert sorted(b.signature for b in blocks(g)) == [("cycle", 4)] * 5
        assert all(g.degree(v) == 4 for v in range(4))

    def test_seed_vertex_grows_base(self):
        g = glv(plain_graph(1, []), Family.CYCLE, 5, [0])
        assert (g.vertex_count, g.edge_count) == (5, 5)
        assert [b.signature for b in blocks(g)] == [("cycle", 5)]

    def test_default_birth_is_next_stage(self):
        g = build(FractalParams(Family.CYCLE, 3, 2, 1))  # births 0 and 1
        sub = ept(g, 2)
        assert set(sub._births[g.vertex_count:]) == {2}
        grown = glv(g, Family.CYCLE, 3, [0])
        assert grown._births[g.vertex_count] == 2

    def test_wheel_attachment_degrees(self):
        w = ept(base(Family.WHEEL, 4), 2)
        g = glv(w, Family.WHEEL, 4, range(5))
        assert g.vertex_count == 33
        # host rim vertices: degree 3 before (path ends), +3 from the copy
        assert g.degree(0) == 6
        # host hub: degree 4 before, +3
        assert g.degree(4) == 7

    def test_attached_copies_are_blocks(self, rng):
        for _ in range(10):
            g = random_connected_graph(rng, max_n=7)
            hosts = sorted(rng.sample(range(g.vertex_count), rng.randint(1, g.vertex_count)))
            before = len(blocks(g))
            family = rng.choice((Family.CYCLE, Family.WHEEL))
            out = glv(g, family, 4, hosts)
            sigs = [b.signature for b in blocks(out)]
            expected = ("cycle", 4) if family is Family.CYCLE else ("wheel", 4, 1)
            assert sigs.count(expected) >= len(hosts)
            assert len(sigs) == before + len(hosts)

    def test_bad_vertex_set(self):
        with pytest.raises(InvalidVertexSetError):
            glv(base(Family.CYCLE, 3), Family.CYCLE, 3, [7])
        with pytest.raises(InvalidVertexSetError):
            glv(base(Family.CYCLE, 3), Family.CYCLE, 3, [-1])

    @pytest.mark.parametrize("hosts", [[0.5], ["0"], [0, "1"]], ids=["float", "str", "mixed"])
    def test_non_int_host(self, hosts):
        with pytest.raises(InvalidVertexSetError):
            glv(base(Family.CYCLE, 3), Family.CYCLE, 3, hosts)

    @pytest.mark.parametrize("hosts", [[True], [False, 0], [0, False], [2, True]])
    def test_bool_host(self, hosts):
        with pytest.raises(InvalidVertexSetError):
            glv(base(Family.CYCLE, 3), Family.CYCLE, 3, hosts)


class TestBuild:
    @pytest.mark.parametrize(
        "family,n,m,i,nv,ne",
        [
            (Family.CYCLE, 3, 2, 0, 3, 3),
            (Family.CYCLE, 3, 2, 1, 12, 15),
            (Family.CYCLE, 3, 2, 2, 51, 66),
            (Family.WHEEL, 4, 2, 1, 33, 56),
            (Family.WHEEL, 4, 2, 2, 221, 376),
        ],
    )
    def test_published_sizes(self, family, n, m, i, nv, ne):
        g = build(FractalParams(family, n, m, i))
        assert (g.vertex_count, g.edge_count) == (nv, ne)

    def test_wrong_size_raises(self, monkeypatch):
        # the build checks its graph against the predicted vertex count
        monkeypatch.setattr(construct, "_build_staged", lambda p: base(p.family, p.n))
        with pytest.raises(RuntimeError, match="not the predicted 12"):
            build(FractalParams(Family.CYCLE, 3, 2, 1))

    def test_sizes_match_sequences_grid(self):
        for family in Family:
            for n in (3, 4, 5, 6):
                for m in (2, 3):
                    for i in (0, 1, 2, 3):
                        p = FractalParams(family, n, m, i)
                        seq = size_sequences(p, i + 1)
                        if seq.u[i + 1] > 3000:
                            continue
                        g = build(p)
                        assert g.vertex_count == seq.u[i + 1]
                        assert g.edge_count == seq.e[i + 1]

    def test_attachments_skip_fresh_interiors(self):
        # path interiors created in the same round receive no copy yet
        g = build(FractalParams(Family.CYCLE, 3, 2, 1))
        interior = ROLE_CODE[VertexRole.PATH_INTERIOR]
        interiors = [v for v, code in enumerate(g._roles) if code == interior]
        assert len(interiors) == 3
        assert all(g.degree(v) == 2 for v in interiors)

    def test_roles_only_in_wheel(self):
        g = build(FractalParams(Family.CYCLE, 4, 2, 2))
        roles = {ROLES[code] for code in g._roles}
        assert VertexRole.FRESH_HUB not in roles and VertexRole.BASE_HUB not in roles
        g = build(FractalParams(Family.WHEEL, 4, 2, 1))
        roles = {ROLES[code] for code in g._roles}
        assert VertexRole.FRESH_HUB in roles and VertexRole.BASE_HUB in roles

    def test_birth_stages(self):
        g = build(FractalParams(Family.CYCLE, 3, 2, 2))
        births = sorted(set(g._births))
        assert births == [0, 1, 2]

    def test_stage_zero_is_base(self):
        assert to_edgelist_text(build(FractalParams(Family.WHEEL, 5, 2, 0))) == to_edgelist_text(
            base(Family.WHEEL, 5)
        )

    def test_deterministic(self):
        p = FractalParams(Family.CYCLE, 4, 3, 2)
        first = build(p)
        second = build(p)
        assert to_edgelist_text(first) == to_edgelist_text(second)
        assert first._roles == second._roles

    def test_size_cap(self):
        with pytest.raises(SizeCapError):
            build(FractalParams(Family.CYCLE, 3, 2, 9))
        with pytest.raises(SizeCapError):
            build(FractalParams(Family.WHEEL, 4, 2, 7))

    def test_deep_stage_refused_before_any_work(self, monkeypatch):
        # the float estimate refuses a stage whose exact count would take
        # seconds to step (0.67 s at i = 10^6, 7 s at 4 * 10^6)
        def no_work(*args):
            raise AssertionError("the exact vertex count was stepped")

        monkeypatch.setattr(construct, "vertex_count", no_work)
        t0 = time.perf_counter()
        with pytest.raises(OverflowCapError, match=r"^stage 10000000 would step vertex counts "
                           r"to about 2\.105e\+07 bits, past the 65536-bit cap$"):
            build(FractalParams(Family.CYCLE, 3, 2, 10**7))
        assert time.perf_counter() - t0 < 0.1

    def test_size_cap_env_override(self, monkeypatch):
        monkeypatch.setenv("FRACTREE_MAX_VERTICES", "10")
        with pytest.raises(SizeCapError):
            build(FractalParams(Family.CYCLE, 3, 2, 1))
        monkeypatch.setenv("FRACTREE_MAX_VERTICES", "100")
        assert build(FractalParams(Family.CYCLE, 3, 2, 1)).vertex_count == 12

    @pytest.mark.parametrize("value", ["abc", "0", "-1", "1.5"])
    def test_bad_cap_env_rejected(self, monkeypatch, value):
        monkeypatch.setenv("FRACTREE_MAX_VERTICES", value)
        with pytest.raises(BadParameterError):
            build(FractalParams(Family.CYCLE, 3, 2, 1))

    def test_build_cap_is_the_only_environment_variable(self):
        # the package adds no setting outside its parameters but this cap
        package = Path(construct.__file__).parent
        reads = [(path.name, line.strip()) for path in sorted(package.glob("*.py"))
                 for line in path.read_text().splitlines()
                 if re.search(r"\b(environ|environb|getenv|getenvb)\b", line)]
        assert reads == [("construct.py", "value = os.environ.get(MAX_VERTICES_ENV)")]
        assert construct.MAX_VERTICES_ENV == "FRACTREE_MAX_VERTICES"

    def test_every_import_is_at_module_level(self):
        # an import inside a function hides a cycle between modules
        package = Path(construct.__file__).parent
        local = []
        for path in sorted(package.glob("*.py")):
            tree = ast.parse(path.read_text(), filename=path.name)
            for fn in ast.walk(tree):
                if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    local += [(path.name, node.lineno) for node in ast.walk(fn)
                              if isinstance(node, (ast.Import, ast.ImportFrom))]
        assert local == []

    def test_no_assert_in_the_package(self):
        # `python -O` drops an assert: a check in the package raises instead
        package = Path(construct.__file__).parent
        asserts = [(path.name, node.lineno) for path in sorted(package.glob("*.py"))
                   for node in ast.walk(ast.parse(path.read_text(), filename=path.name))
                   if isinstance(node, ast.Assert)]
        assert asserts == []

    def test_one_chain_walker_and_one_adjacency_builder(self):
        # a step along a degree-2 chain unpacks an adjacency entry
        # (`a, b = adj[w]`): only graph.chains and the block walk take one;
        # and only graph.edge_adjacency makes neighbour lists from an edge
        # list (`adj.setdefault(u, []).append(v)`)
        package = Path(construct.__file__).parent
        steps, builders = set(), set()
        for path in sorted(package.glob("*.py")):
            tree = ast.parse(path.read_text(), filename=path.name)
            for fn in ast.walk(tree):
                if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    continue
                for node in ast.walk(fn):
                    if (isinstance(node, ast.Assign) and isinstance(node.value, ast.Subscript)
                            and isinstance(node.targets[0], ast.Tuple)
                            and len(node.targets[0].elts) == 2):
                        steps.add(f"{path.stem}.{fn.name}")
                    if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                            and node.func.attr == "append"
                            and isinstance(node.func.value, ast.Call)
                            and isinstance(node.func.value.func, ast.Attribute)
                            and node.func.value.func.attr == "setdefault"):
                        builders.add(f"{path.stem}.{fn.name}")
        assert sorted(steps) == ["graph._block_walk", "graph.chains"]
        assert sorted(builders) == ["graph.edge_adjacency"]

    def test_every_name_is_used(self):
        # the package keeps only what it runs: each top-level function and
        # class, and each public method, is named somewhere outside its own
        # definition; a re-export from __init__ does not count
        exempt = {
            "cli._Parser.print_help",  # argparse calls it
            "graph.to_dot",  # only the benchmark's tracer wraps it
        }
        package = Path(construct.__file__).parent
        trees = {path.stem: ast.parse(path.read_text(), filename=path.name)
                 for path in sorted(package.glob("*.py")) if path.name != "__init__.py"}
        uses = {}
        for tree in trees.values():
            for node in ast.walk(tree):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    uses.setdefault(node.id, []).append(node)
                elif isinstance(node, ast.Attribute):
                    uses.setdefault(node.attr, []).append(node)
        definitions = []
        for module, tree in trees.items():
            for node in tree.body:
                if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                    definitions.append((f"{module}.{node.name}", node))
                if isinstance(node, ast.ClassDef):
                    definitions += [(f"{module}.{node.name}.{item.name}", item) for item in node.body
                                    if isinstance(item, ast.FunctionDef)
                                    and not item.name.startswith("_")]
        unused = []
        for qualified, node in definitions:
            inside = set(map(id, ast.walk(node)))
            if not any(id(use) not in inside for use in uses.get(node.name, [])):
                unused.append(qualified)
        assert sorted(unused) == sorted(exempt)


def _composed(p):
    """The reference composition: base, then ept and glv once per stage."""
    g = base(p.family, p.n)
    for stage in range(1, p.i + 1):
        hosts = range(g.vertex_count)
        g = glv(ept(g, p.m, birth=stage), p.family, p.n, hosts, birth=stage)
    return Graph.from_layout(g._roles, g._births, g.adjacency, g.edge_count, params=p)


_ONE_PASS_GRID = [
    FractalParams(family, n, m, i)
    for family in Family
    for n in range(3, 7)
    for m in range(2, 5)
    for i in range(4)
    if size_sequences(FractalParams(family, n, m, i), i + 1).u[i + 1] <= 20_000
]


class TestOnePassBuild:
    @pytest.mark.parametrize(
        "p", _ONE_PASS_GRID, ids=lambda p: f"{p.family.value}-{p.n}-{p.m}-{p.i}"
    )
    def test_equals_reference_composition(self, p):
        fast, ref = build(p), _composed(p)
        assert fast.adjacency == ref.adjacency
        assert fast.edge_count == ref.edge_count
        assert fast._roles == ref._roles
        assert fast._births == ref._births
        for chunks in (edgelist_chunks, json_chunks, dot_chunks):
            assert "".join(chunks(fast)) == "".join(chunks(ref))


@st.composite
def _drawn_points(draw):
    """(family, n <= 10, m <= 6, i) whose stage-i graph has at most 5,000
    vertices."""
    p = FractalParams(draw(st.sampled_from(Family)), draw(st.integers(3, 10)),
                      draw(st.integers(2, 6)))
    top = 0
    while vertex_count(p, top + 2) <= 5_000:
        top += 1
    return p.with_stage(draw(st.sampled_from(range(top + 1))))


def _assert_one_int_per_id(g):
    """Every tuple that names an id holds the same int object."""
    first = {}
    for nb in g.adjacency:
        for v in nb:
            assert first.setdefault(v, v) is v


@given(_drawn_points())
@settings(max_examples=200, deadline=None)
def test_drawn_build_matches_every_route(p):
    g, ref = build(p), _composed(p)
    assert g.adjacency == ref.adjacency
    assert (g._roles, g._births, g.edge_count) == (ref._roles, ref._births, ref.edge_count)
    _assert_one_int_per_id(g)
    assert degree_histogram(g) == degree_census_predicted(p)
    assert block_census(g) == predicted_block_multiset(p)


@pytest.mark.parametrize("p", [FractalParams(Family.CYCLE, 3, 2, 6),
                               FractalParams(Family.WHEEL, 4, 2, 4),
                               FractalParams(Family.CYCLE, 3, 3, 5),
                               FractalParams(Family.WHEEL, 8, 2, 3),
                               FractalParams(Family.CYCLE, 6, 2, 4)],
                         ids=lambda p: f"{p.family.value}-{p.n}-{p.m}-{p.i}")
class TestBuildMemory:
    def test_peak_within_the_graph_it_returns(self, p, traced):
        # each stage is freed as the next is built, so the build holds
        # little beyond the finished graph at any moment
        g, retained, peak = traced(build, p)
        assert g.vertex_count > 9000
        assert peak <= 1.10 * retained

    def test_retained_bytes_per_vertex(self, p, traced):
        # measured 105.9 B per vertex at cycle-3-2-6, 112.2 at wheel-4-2-4
        # and 104.6 at cycle-3-3-5, against 143.2, 156.9 and 140.8 with an
        # int object per tuple entry; the bound is the largest plus 5%.
        # The wide copies read 114.1 at wheel-8-2-3 and 103.7 at cycle-6-2-4
        g, retained, _ = traced(build, p)
        assert retained <= 118 * g.vertex_count


@pytest.mark.parametrize("p", [FractalParams(Family.CYCLE, 3, 2, 5),
                               FractalParams(Family.CYCLE, 4, 3, 4),
                               FractalParams(Family.WHEEL, 4, 2, 4),
                               FractalParams(Family.WHEEL, 3, 3, 4),
                               FractalParams(Family.WHEEL, 300, 2, 1),
                               FractalParams(Family.CYCLE, 300, 2, 1),
                               FractalParams(Family.WHEEL, 9, 2, 2)],
                         ids=lambda p: f"{p.family.value}-{p.n}-{p.m}-{p.i}")
def test_one_int_object_per_vertex_id(p):
    # each graph's last round has old ids past the small-int cache, and so
    # does the base graph at n = 300; n = 300 and n = 9 give each copy
    # many middle rims
    _assert_one_int_per_id(build(p))


class TestCensus:
    def test_cycle_stage_two(self):
        census = copy_census(FractalParams(Family.CYCLE, 3, 2, 2))
        assert census.stage_counts == {1: 3, 0: 3}
        assert census.central == ("cycle", 12)

    def test_wheel_stage_two(self):
        census = copy_census(FractalParams(Family.WHEEL, 4, 2, 2))
        assert census.stage_counts == {1: 5, 0: 8}
        assert census.central == ("wheel", 4, 4)

    def test_single_round(self):
        census = copy_census(FractalParams(Family.CYCLE, 5, 3, 1))
        assert census.stage_counts == {0: 5}
        assert census.central == ("cycle", 15)

    def test_needs_stage(self):
        with pytest.raises(BadParameterError):
            copy_census(FractalParams(Family.CYCLE, 3, 2, 0))

    @pytest.mark.parametrize(
        "family,n,m,i",
        [
            (Family.CYCLE, 3, 2, 1),
            (Family.CYCLE, 3, 2, 2),
            (Family.CYCLE, 3, 2, 3),
            (Family.CYCLE, 4, 2, 2),
            (Family.CYCLE, 5, 2, 2),
            (Family.CYCLE, 3, 3, 2),
            (Family.CYCLE, 4, 3, 2),
            (Family.WHEEL, 3, 2, 2),
            (Family.WHEEL, 4, 2, 1),
            (Family.WHEEL, 4, 2, 2),
            (Family.WHEEL, 5, 2, 1),
            (Family.WHEEL, 4, 3, 1),
        ],
    )
    def test_blocks_match_prediction(self, family, n, m, i):
        p = FractalParams(family, n, m, i)
        assert block_census(build(p)) == predicted_block_multiset(p)

    def test_census_unfolds_to_prediction(self):
        for p in (
            FractalParams(Family.CYCLE, 3, 2, 3),
            FractalParams(Family.CYCLE, 3, 3, 3),
            FractalParams(Family.WHEEL, 4, 2, 3),
            FractalParams(Family.WHEEL, 5, 3, 2),
        ):
            assert unfold_census_block_multiset(p) == predicted_block_multiset(p)

    def test_census_unfolds_deep_stages(self, monkeypatch):
        # each stage's census is read once; recursing into every lower
        # stage doubled the cost per stage (1.7 s at wheel-4-2-18)
        read = []

        def counted(p):
            read.append(p.i)
            assert len(read) <= 50, "a stage's census was read twice"
            return copy_census(p)

        monkeypatch.setattr(construct, "copy_census", counted)
        t0 = time.perf_counter()
        for p in (FractalParams(Family.WHEEL, 4, 2, 50), FractalParams(Family.CYCLE, 5, 3, 50)):
            read.clear()
            assert unfold_census_block_multiset(p) == predicted_block_multiset(p)
        assert time.perf_counter() - t0 < 0.5

    def test_multiplicities_are_vertex_counts(self):
        # age-k blocks appear once per vertex of the stage-(i-k) graph
        p = FractalParams(Family.CYCLE, 3, 2, 2)
        u = size_sequences(p, 2).u
        ms = block_census(build(p))
        assert ms == {("cycle", 3): u[2], ("cycle", 6): u[1], ("cycle", 12): u[0]}
