import math

import numpy as np
import pytest
from hypothesis import settings

from persets import engine, spaces
from persets.metric import DistanceMatrix, validate

# every property test draws the same examples on every run, and keeps no example database
settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")


def cloud_matrix_r3(rng, n, scale=1.0):
    """Distance matrix of n random points in R^3."""
    pts = rng.normal(size=(n, 3)) * scale
    d = np.linalg.norm(pts[:, None, :] - pts[None, :, :], axis=-1)
    np.fill_diagonal(d, 0.0)
    return DistanceMatrix(d)


def circle_matrix(rng, n, lam=math.pi):
    """Distance matrix of n uniform points on a geodesic circle of diameter lam."""
    theta = rng.uniform(0.0, 2.0 * math.pi, size=n)
    diff = np.abs(theta[:, None] - theta[None, :])
    d = np.minimum(diff, 2.0 * math.pi - diff) * (lam / math.pi)
    np.fill_diagonal(d, 0.0)
    return DistanceMatrix(d)


def tree_matrix(rng, n):
    """Distance matrix of n random points of a random weighted tree.

    Vertex v > 0 hangs off a uniform earlier vertex; path distances add.
    """
    parent = [int(rng.integers(0, v)) for v in range(1, n)]
    wt = rng.uniform(0.1, 2.0, size=n - 1)
    d = np.zeros((n, n))
    for v in range(1, n):
        p = parent[v - 1]
        for u in range(v):
            d[u, v] = d[v, u] = d[u, p] + wt[v - 1]
    return DistanceMatrix(d)


def circle_angles_matrix(angles, lam=math.pi):
    theta = np.asarray(angles, dtype=float)
    diff = np.abs(theta[:, None] - theta[None, :])
    d = np.minimum(diff, 2.0 * math.pi - diff) * (lam / math.pi)
    np.fill_diagonal(d, 0.0)
    return validate(d)


def draw(space, rng, count):
    """The (count, D) points of the ``sample_points`` stream of ``space``, concatenated (count >= 1)."""
    return np.concatenate(list(space.sample_points(rng, count)))


def tuple_matrix(dm, rows):
    """Distance matrix of the index tuple ``rows`` of ``dm``: repeats allowed, by the one point route."""
    return spaces.distance_matrix(engine.FiniteSpace(dm), np.asarray(rows)[:, None])


@pytest.fixture
def rng():
    return np.random.default_rng(20240823)
