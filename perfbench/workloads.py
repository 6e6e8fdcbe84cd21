"""The four benchmark workloads: their inputs, operations and output checks.

A workload is a fixed sequence of operations that a user would run one
after another, each waiting for the previous one (a closed loop with one
client).  CLI operations go through ``persets.cli.main(argv)``; library
operations call public functions.  Every operation has an output check;
an operation fails when it raises, exits non-zero or fails its check.

Nothing here imports persets at module level: the parent process of the
benchmark never imports the program, only the child passes do.
"""
from __future__ import annotations

import contextlib
import io
import json
import math
import os
from dataclasses import dataclass
from typing import Any, Callable, Optional

import numpy as np

S1_TUPLES = 1 << 21
S2_TUPLES = 1 << 20
FANOUT_TUPLES = 1 << 21
BETTI_TUPLES = 1 << 20
FINITE_TUPLES = 1 << 20
FINITE_POINTS = 600

GLUED = "glued:3.5,4.5:alpha=0.5"
GLUED_LAMBDAS = (1.75, 2.25)
GLUED_REL_TOL = 0.02

# Closed-form GH lower bound between the s1 and s2-geodesic regions
# (README, acceptance criterion 9).  The sample bound of circle-gh sits
# below it because finite samples do not reach the region corners.  Over
# seeds 1-8 the gap was 0.0150-0.0253 (mean 0.0212, sd 0.0037; see
# README.md); the tolerance is the largest gap plus three sd.
REGION_GH = 0.2147
GH_TOL = 0.037


@dataclass(frozen=True)
class Op:
    """One timed operation: ``run(persets, ctx)`` and an untimed check.

    ``check(result, ctx)`` returns None when the output is right, else a
    one-line reason.  ``ctx`` carries results between operations.
    """

    name: str
    run: Callable[[Any, dict], Any]
    check: Callable[[Any, dict], Optional[str]]


@dataclass(frozen=True)
class Workload:
    name: str
    workers: int
    pass_s: float  # nominal seconds of one pass: set-up plus operations
    setup: Callable[[Any], Any]  # builds the workload's space(s)
    ops: Callable[[int, int], list]  # (seed, workers) -> [Op]
    make_inputs: Optional[Callable[[int, str], None]] = None  # (seed, workdir)

    def passes(self, seconds: float) -> int:
        """Passes that fit in ``seconds`` at the nominal pass time, at least 4.

        A fixed count, not a clock, so a seed's ``attempted`` and ``failed``
        repeat exactly from run to run.
        """
        return max(4, round(seconds / self.pass_s))


# ---------------------------------------------------------------------------
# CLI operations
# ---------------------------------------------------------------------------

def _cli(name, argv, check):
    def run(persets, ctx):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = persets.cli.main([str(a) for a in argv])
        text = buf.getvalue()
        ctx[name] = out = {"rc": rc, "stdout": text}
        lines = text.strip().splitlines()
        if lines:
            with contextlib.suppress(ValueError):
                out.update(json.loads(lines[-1]))
        return out

    def checked(out, ctx):
        if out["rc"] != 0:
            return f"exit code {out['rc']}"
        return check(out, ctx)

    return Op(name, run, checked)


def _fraction_near(expected, tuples):
    se = math.sqrt(expected * (1.0 - expected) / tuples)

    def check(out, ctx):
        if out.get("tuples") != tuples:
            return f"tuples {out.get('tuples')} != {tuples}"
        frac = out["nontrivial_fraction"]
        if abs(frac - expected) > 4.0 * se:
            return f"nontrivial fraction {frac:.6f} not within 4 SE ({se:.2e}) of {expected:.6f}"
        return None

    return check


def _tuples_are(tuples):
    def check(out, ctx):
        if out.get("tuples") != tuples:
            return f"tuples {out.get('tuples')} != {tuples}"
        return None

    return check


def _no_violations(sample_op):
    def check(out, ctx):
        if out.get("violations") != 0:
            return f"{out.get('violations')} region violations"
        expected = ctx.get(sample_op, {}).get("nontrivial")
        if out.get("points") != expected:
            return f"checked {out.get('points')} points, the sample has {expected}"
        return None

    return check


def _gh_near_region(out, ctx):
    gh = out.get("gh_lower_bound")
    if gh is None or abs(gh - REGION_GH) > GH_TOL:
        return f"sample GH bound {gh} not within {GH_TOL} of the region value {REGION_GH}"
    return None


def _sample_file_consistent(path, tuples):
    def check(out, ctx):
        if out.get("tuples") != tuples:
            return f"tuples {out.get('tuples')} != {tuples}"
        pts = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
        if len(pts) != out.get("nontrivial"):
            return f"{path} holds {len(pts)} points, stdout says {out.get('nontrivial')}"
        if len(pts) and not (np.all(pts[:, 0] < pts[:, 1]) and pts[:, 1].max() <= math.pi):
            return f"{path} holds points outside 0 <= t_b < t_d <= pi"
        return None

    return check


def _two_cycles(out, ctx):
    lams = sorted(c["lambda"] for c in out.get("cycles", []))
    if out.get("betti") != len(GLUED_LAMBDAS):
        return f"betti {out.get('betti')} != {len(GLUED_LAMBDAS)}, lambdas {lams}"
    for lam, want in zip(lams, GLUED_LAMBDAS):
        if abs(lam - want) > GLUED_REL_TOL * want:
            return f"lambda {lam:.4f} not within {GLUED_REL_TOL:.0%} of {want}"
    return None


def _circle_gh_ops(seed, workers):
    common = ["--n", 4, "--k", 1, "--workers", workers, "--seed", seed]
    return [
        _cli("sample-s1", ["sample", "--space", "s1", "--tuples", S1_TUPLES, *common,
                           "--out", "s1.csv", "--svg", "s1.svg", "--heatmap", "s1-heat.svg"],
             _fraction_near(1.0 / 9.0, S1_TUPLES)),
        _cli("sample-s2", ["sample", "--space", "sphere:m=2", "--tuples", S2_TUPLES, *common,
                           "--out", "s2.csv"],
             _tuples_are(S2_TUPLES)),
        _cli("oracle-check-s1", ["oracle-check", "--region", "s1", "--check", "s1.csv"],
             _no_violations("sample-s1")),
        _cli("oracle-check-s2", ["oracle-check", "--region", "s2-geodesic", "--check", "s2.csv"],
             _no_violations("sample-s2")),
        _cli("compare", ["compare", "--a", "s1.csv", "--b", "s2.csv"], _gh_near_region),
    ]


def _fanout_ops(seed, workers):
    return [
        _cli("sample-s2-n6", ["sample", "--space", "sphere:m=2", "--n", 6, "--k", 2,
                              "--tuples", FANOUT_TUPLES, "--workers", workers, "--seed", seed,
                              "--out", "s6.csv"],
             _sample_file_consistent("s6.csv", FANOUT_TUPLES)),
    ]


def _betti_ops(seed, workers):
    return [
        _cli("graph-betti", ["graph-betti", "--graph", GLUED, "--tuples", BETTI_TUPLES,
                             "--workers", workers, "--seed", seed],
             _two_cycles),
    ]


# ---------------------------------------------------------------------------
# Library operations on a generated finite dataset
# ---------------------------------------------------------------------------

FINITE_MATRIX = "cloud.csv"


def _finite_inputs(seed, workdir):
    """600 Gaussian points in R^3 from the seed; their distance matrix as CSV."""
    pts = np.random.default_rng(seed).standard_normal((FINITE_POINTS, 3))
    d = np.sqrt(((pts[:, None, :] - pts[None, :, :]) ** 2).sum(axis=-1))
    np.savetxt(os.path.join(workdir, FINITE_MATRIX), d, fmt="%.17g", delimiter=",")


def _finite_ops(seed, workers):
    def read(persets, ctx):
        ctx["matrix"] = persets.metric.read_matrix_csv(FINITE_MATRIX)
        return ctx["matrix"]

    def check_read(dm, ctx):
        return None if dm.n == FINITE_POINTS else f"read {dm.n} points, wrote {FINITE_POINTS}"

    def campaign(persets, ctx):
        space = persets.engine.FiniteSpace(ctx["matrix"])
        ctx["sample"] = persets.engine.sample_persistence_set(
            space, 4, 1, FINITE_TUPLES, seed, workers=workers)
        return ctx["sample"]

    def check_campaign(s, ctx):
        if s.tuples_drawn != FINITE_TUPLES or s.trivial_count + len(s.points) != FINITE_TUPLES:
            return f"{s.tuples_drawn} tuples, {s.trivial_count} trivial + {len(s.points)} points"
        if len(s.points) and not np.all(s.points[:, 0] < s.points[:, 1]):
            return "a nontrivial point has t_b >= t_d"
        return None

    def write(persets, ctx):
        persets.engine.write_sample(ctx["sample"], "finite.csv")

    def check_write(_, ctx):
        with open("finite.csv", encoding="utf-8") as fh:
            rows = sum(1 for _ in fh) - 1
        with open("finite.csv.json", encoding="utf-8") as fh:
            meta = json.load(fh)
        want = len(ctx["sample"].points)
        if rows != want or meta.get("tuples") != FINITE_TUPLES:
            return f"finite.csv holds {rows} rows for {want} points, sidecar tuples {meta.get('tuples')}"
        return None

    return [
        Op("read_matrix_csv", read, check_read),
        Op("sample_persistence_set", campaign, check_campaign),
        Op("write_sample", write, check_write),
    ]


def _spaces(*descriptors):
    def setup(persets):
        return [persets.spaces.parse_space(d) for d in descriptors]
    return setup


def _family(descriptor):
    def setup(persets):
        return persets.graphs.parse_family(descriptor)
    return setup


WORKLOADS = {
    w.name: w
    for w in (
        Workload("circle-gh", 1, 8.5, _spaces("s1", "sphere:m=2"), _circle_gh_ops),
        Workload("sphere-n6-fanout", 2, 5.0, _spaces("sphere:m=2"), _fanout_ops),
        Workload("glued-betti", 1, 3.3, _family(GLUED), _betti_ops),
        Workload("finite-dataset", 1, 3.9, lambda persets: None, _finite_ops,
                 _finite_inputs),
    )
}
