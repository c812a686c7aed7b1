"""Shared fixtures."""

import gc
import os
import random
import tracemalloc
from pathlib import Path

import pytest

from fractree.graph import Graph, plain_graph
from fractree.verify import verify_suite


@pytest.fixture(scope="session", autouse=True)
def source_on_subprocess_path():
    """Let ``python -m fractree`` subprocesses import the package under
    test from src/, as the test process does, with no install."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("PYTHONPATH", os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        yield


@pytest.fixture
def rng():
    return random.Random(987654321)


@pytest.fixture(scope="session")
def full_report():
    return verify_suite("full")


def _traced(call, *args):
    """call(*args), with the bytes still held once it returns and its peak."""
    gc.collect()
    tracemalloc.start()
    try:
        out = call(*args)
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return out, retained, peak


@pytest.fixture
def traced():
    """:func:`_traced`: ``traced(call, *args)`` under tracemalloc."""
    return _traced


def _biconnected_piece(rng) -> list:
    """Edges of a random Hamiltonian cycle plus chords on 3-7 vertices."""
    n = rng.randint(3, 7)
    edges = {(k, k + 1) for k in range(n - 1)} | {(0, n - 1)}
    for _ in range(rng.randint(0, n)):
        u, v = sorted(rng.sample(range(n), 2))
        edges.add((u, v))
    return sorted(edges)


def _glued_copies(rng, pieces: list, copies: int) -> Graph:
    """Randomly relabelled copies of ``pieces`` glued at cut vertices into
    one connected graph with shuffled vertex ids."""
    edges = []
    size = 1
    for _ in range(copies):
        piece = rng.choice(pieces)
        n = 1 + max(v for e in piece for v in e)
        order = list(range(n))
        rng.shuffle(order)
        # the piece's first vertex in shuffled order lands on an existing one
        ids = {order[0]: rng.randrange(size)}
        for k in order[1:]:
            ids[k] = size
            size += 1
        edges += [(ids[u], ids[v]) for u, v in piece]
    perm = list(range(size))
    rng.shuffle(perm)
    return plain_graph(size, [(perm[u], perm[v]) for u, v in edges])


@pytest.fixture
def glued_graphs(rng):
    """Ten graphs, each 8-30 relabelled copies of three random biconnected
    pieces and a bridge, so most shapes repeat under new vertex ids."""
    graphs = []
    for _ in range(10):
        pieces = [_biconnected_piece(rng) for _ in range(3)] + [[(0, 1)]]
        graphs.append(_glued_copies(rng, pieces, rng.randint(8, 30)))
    return graphs
