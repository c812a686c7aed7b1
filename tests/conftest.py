"""Shared helpers: independent oracles and random graph generation."""

import random

import pytest

from fractree.graph import Graph, VertexRole


def naive_determinant(matrix):
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


def random_connected_graph(
    rng: random.Random, max_n: int = 10, min_extra: int = 0, min_n: int = 2, density: int = 1
) -> Graph:
    """Random spanning tree plus up to ``density * n`` random extra edges;
    always connected."""
    n = rng.randint(max(min_n, min_extra + 2), max_n)
    g = Graph()
    for _ in range(n):
        g.add_vertex(VertexRole.ORIGINAL_BASE, 0)
    for v in range(1, n):
        g.add_edge(v, rng.randrange(v))
    added = 0
    target = rng.randint(min_extra, density * n)
    for _ in range(6 * density * n):
        if added >= target:
            break
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v and not g.has_edge(u, v):
            g.add_edge(u, v)
            added += 1
    return g.freeze()


@pytest.fixture
def rng():
    return random.Random(987654321)
