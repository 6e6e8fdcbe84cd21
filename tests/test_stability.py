"""Stability of persistence sets, exactly, through the whole campaign.

Two matrices on the same N points with |d_X - d_Y| <= eps entrywise give
the same row-index tuples under one seed, and each tuple's diagram moves
by at most eps in bottleneck distance (VR stability).  For the kernel the
points are maxima and minima of matrix entries, so in floats too each
(t_b, t_d) moves by at most eps = max |d_X - d_Y| as computed, and a
tuple trivial on one side is within eps of the empty diagram on the
other: the Hausdorff-bottleneck of the two samples is at most eps, with
no rounding slack.

Any kernel built of maxima and minima of the entries meets that bound,
even one that makes every diagram empty; so the clouds lie near a circle
or a 2-sphere, where 4-tuples are often nontrivial, and the n = 4 samples
must hold points.
"""
import contextlib
import io
import json
import os
import tempfile
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from persets import cli, diagram_metrics, engine, metric, spaces

from reference import bottleneck_distance, vr_diagram, write_matrix_csv

clouds = st.fixed_dictionaries({
    "size": st.integers(8, 40),
    "dim": st.integers(2, 3),
    "eps": st.floats(1e-4, 0.2),
    "seed": st.integers(0, 2**32 - 1),
})


def two_spaces(size, dim, eps, seed):
    """Finite spaces of a cloud on the unit circle or 2-sphere and of a copy moved by at most eps/2
    per point, and the largest difference of their distances."""
    rng = np.random.default_rng(seed)
    x, step = rng.standard_normal((2, size, dim))
    x /= np.linalg.norm(x, axis=1, keepdims=True)
    y = x + step * (eps / 2 * rng.random((size, 1)) / np.linalg.norm(step, axis=1, keepdims=True))
    dx, dy = (metric.validate(np.linalg.norm(p[:, None, :] - p[None, :, :], axis=-1)) for p in (x, y))
    return engine.FiniteSpace(dx), engine.FiniteSpace(dy), float(np.abs(dx.entries - dy.entries).max())


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("n", [4, 6])
@settings(max_examples=5, deadline=None)
@given(cloud=clouds)
def test_kernel_samples_move_by_at_most_eps(n, workers, cloud):
    sx, sy, eps = two_spaces(**cloud)
    # 1024-tuple chunks of 300-tuple blocks: blocks end inside chunks, and two workers share four chunks
    with mock.patch.object(engine, "CHUNK", 1024), mock.patch.object(engine, "BLOCK", 300):
        a, b = (engine.sample_persistence_set(s, n, n // 2 - 1, 4000, seed=cloud["seed"], workers=workers)
                for s in (sx, sy))
    assert n == 6 or len(a.points) > 0
    d = diagram_metrics.hausdorff_bottleneck_points(a.points, b.points, empty_a=a.trivial_count > 0,
                                                    empty_b=b.trivial_count > 0)
    assert d <= eps


@settings(max_examples=2, deadline=None)
@given(cloud=clouds)
def test_oracle_diagrams_move_by_at_most_eps(cloud):
    sx, sy, eps = two_spaces(**cloud)
    kept = engine.kept_tuples(sx, engine.sample_persistence_set(sx, 5, 1, 1100, seed=cloud["seed"]))
    assert len(kept) > 0
    for tup in kept:  # two chunks of X's nontrivial tuples
        dgm_x, dgm_y = (vr_diagram(spaces.distance_matrix(s, tup), 1) for s in (sx, sy))
        assert bottleneck_distance(dgm_x, dgm_y) <= eps


@settings(max_examples=6, deadline=None)
@given(cloud=clouds)
def test_cli_compare_of_the_two_samples_is_at_most_eps(cloud):
    # the matrices go through their CSV files, the samples through theirs, and compare reads both back
    sx, sy, _ = two_spaces(**cloud)
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()) as out:
        x, y, a, b = (os.path.join(tmp, name) for name in ("X.csv", "Y.csv", "a.csv", "b.csv"))
        write_matrix_csv(sx.matrix, x)
        write_matrix_csv(sy.matrix, y)
        for space, sample in ((x, a), (y, b)):
            assert cli.main(["sample", "--space", space, "--tuples", str(1 << 14), "--seed", str(cloud["seed"]),
                             "--out", sample]) == 0
        assert cli.main(["compare", "--a", a, "--b", b]) == 0
        eps = float(np.abs(metric.read_matrix_csv(x).entries - metric.read_matrix_csv(y).entries).max())
    sampled_x, _, compared = (json.loads(line) for line in out.getvalue().splitlines())
    assert sampled_x["nontrivial"] > 0
    assert compared["hausdorff_bottleneck"] <= eps
