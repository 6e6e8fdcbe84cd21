"""persets: campaigns, oracle checks, comparisons and plots from the shell.

Exit codes: 0 success, 1 validation failure, 2 usage error.  All
randomness flows from --seed; identical invocations write bit-identical
CSV/JSON.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from . import engine, metric, spaces
from .errors import PersetsError, UnsupportedCombination


def _print_json(doc) -> None:
    """One line of strict JSON: a non-finite float (an amount past the float range) is null."""
    def finite(x):
        if isinstance(x, float):
            return x if math.isfinite(x) else None
        if isinstance(x, dict):
            return {k: finite(v) for k, v in x.items()}
        if isinstance(x, (list, tuple)):
            return [finite(v) for v in x]
        return x
    print(json.dumps(finite(doc), allow_nan=False))


def _bounded(kind, low, above=False, name=None):
    """An argparse type: a finite ``kind`` (int or float) >= low, or > low if
    ``above``; anything else is a usage error (exit 2) naming ``name``."""
    want = f"{'an integer' if kind is int else 'a finite number'} {'>' if above else '>='} {low}"

    def parse(text):
        try:
            value = kind(text)
        except ValueError:
            value = None
        if value is None or not low <= value < math.inf or (above and value == low):
            raise argparse.ArgumentTypeError(f"{name + ' ' if name else ''}must be {want}, got {text!r}")
        return value
    return parse


def _add_workers_arg(p):
    p.add_argument("--workers", type=_bounded(int, 1, name="workers (--workers or PERSETS_WORKERS)"),
                   default=os.environ.get("PERSETS_WORKERS") or "1")


def cmd_sample(args) -> int:
    space = engine.space_of(args.space)
    sample = engine.sample_persistence_set(space, args.n, args.k, args.tuples, args.seed, workers=args.workers)
    engine.write_sample(sample, args.out)
    if args.svg:
        engine.svg_scatter(sample.points, args.svg, angular=spaces.is_angular(space),
                           title=f"{sample.space}  n={args.n} k={args.k}")
    if args.heatmap:
        hist = engine.histogram(sample, args.bins, args.bins)
        engine.svg_heatmap(hist, args.heatmap, angular=spaces.is_angular(space),
                           title=f"{sample.space}  n={args.n} k={args.k}")
    _print_json({
        "tuples": sample.tuples_drawn,
        "nontrivial": int(len(sample.points)),
        "nontrivial_fraction": sample.nontrivial_fraction,
        "out": str(args.out),
    })
    return 0


def cmd_oracle_check(args) -> int:
    from . import regions
    region = regions.parse_region(args.region)
    points = metric.read_csv(args.check, engine.SAMPLE_HEADER)
    ok = regions.contains(region, points[:, 0], points[:, 1], tol=args.tol)
    if args.out:
        metric.write_csv(args.out, points, ok[:, None].astype(np.int64), header="t_b,t_d,inside")
    violations = int((~ok).sum())
    _print_json({"points": int(len(ok)), "violations": violations, "region": args.region})
    return 0 if violations == 0 else 1


def cmd_compare(args) -> int:
    from . import diagram_metrics, regions
    if args.region_a and args.region_b:
        result = diagram_metrics.compare_regions(
            regions.parse_region(args.region_a),
            regions.parse_region(args.region_b),
            step=args.step,
            interior_step=max(args.step, args.interior_step),
        )
    elif args.a and args.b:
        sa, sb = engine.read_sample(args.a), engine.read_sample(args.b)
        for path, s in ((args.a, sa), (args.b, sb)):
            if s.n != 2 * s.k + 2:  # rows are flattened multi-point diagrams
                raise UnsupportedCombination(f"{path}: compare needs one-point diagrams, n = 2k+2; "
                                             f"the sample has n={s.n}, k={s.k}")
        d = diagram_metrics.hausdorff_bottleneck_points(
            sa.points, sb.points, empty_a=sa.trivial_count > 0, empty_b=sb.trivial_count > 0
        )
        result = {"hausdorff_bottleneck": d, "gh_lower_bound": d / 2.0, "resolution": 0.0}
    else:
        print("compare needs --a/--b sample files or --region-a/--region-b", file=sys.stderr)
        return 2
    _print_json(result)
    return 0


def cmd_graph_betti(args) -> int:
    from . import graph_analysis
    sample = engine.sample_persistence_set(args.graph, 4, 1, args.tuples, args.seed, workers=args.workers)
    report = graph_analysis.detect_corners(sample, rel_tol=args.rel_tol, min_support=args.min_support)
    _print_json({
        "betti": report.estimated_betti,
        "cycles": [
            {"lambda": c.lam, "length": 2.0 * c.lam, "support": c.support, "caveat": c.caveat}
            for c in report.corners
        ],
        "truncated": report.truncated,
    })
    return 0


def cmd_density_check(args) -> int:
    from . import regions
    sample = engine.sample_persistence_set(
        spaces.CircleGeodesic(), 4, 1, args.tuples, args.seed, workers=args.workers
    )
    hist = engine.histogram(
        sample, args.bins, args.bins,
        range_b=(math.pi / 2.0, math.pi), range_d=(2.0 * math.pi / 3.0, math.pi),
    )
    err = engine.density_l1_error(hist, regions.circle_density)
    mass = regions.circle_density_mass()
    _print_json({"l1_error": err, "analytic_mass": mass, "expected_mass": 1.0 / 9.0})
    return 0 if err <= args.threshold else 1


def cmd_validate(args) -> int:
    try:
        if args.matrix.endswith(".json"):
            dm = metric.read_matrix_json(args.matrix)
        else:
            dm = metric.read_matrix_csv(args.matrix)
    except PersetsError as exc:
        listed = getattr(exc, "violations", [])
        _print_json({"valid": False, "error": str(exc),
                     "violations": [[k, list(i), a] for k, i, a in listed],
                     "violation_count": getattr(exc, "count", len(listed))})
        return 1
    st = metric.stats(dm)
    # a one-point space has separation inf: null
    _print_json({"valid": True, "n": dm.n, "diameter": st.diameter,
                 "radius": st.radius, "separation": st.separation})
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="persets", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sample", help="run a sampling campaign and write CSV/JSON/SVG")
    p.add_argument("--space", required=True, help='a model space ("s1", "sphere:m=2", "mk:kappa=-1:R=3.14159"), '
                   'a graph family ("glued:3.5,4.5:alpha=0.5"), a metric graph JSON file (a path ending in .json) '
                   'or a distance-matrix CSV (a path ending in .csv)')
    p.add_argument("--n", type=int, default=4)
    p.add_argument("--k", type=int, default=1, help="homology degree; n = 2k+2 is the fast principal path, "
                   f"other k+2 <= n <= {engine.MAX_POINTS} run the brute-force oracle")
    p.add_argument("--tuples", type=_bounded(int, 1), default=1_000_000, help="number of sampled n-tuples")
    p.add_argument("--seed", type=_bounded(int, 0), default=0)
    _add_workers_arg(p)
    p.add_argument("--out", default="sample.csv", help="CSV of nontrivial (t_b, t_d) points + <out>.json")
    p.add_argument("--svg", default=None, help="scatter plot output")
    p.add_argument("--heatmap", default=None, help="heatmap plot output")
    p.add_argument("--bins", type=_bounded(int, 1), default=100)
    p.set_defaults(fn=cmd_sample)

    p = sub.add_parser("oracle-check", help="test sample points against an analytic region")
    p.add_argument("--region", required=True, help='region, e.g. "s1", "s2-geodesic", "mk:kappa=-1"')
    p.add_argument("--check", required=True, help="sample CSV to test (no sidecar needed)")
    p.add_argument("--tol", type=_bounded(float, 0.0), default=1e-9)
    p.add_argument("--out", default=None, help="per-point boolean CSV")
    p.set_defaults(fn=cmd_oracle_check)

    p = sub.add_parser("compare", help="Hausdorff-bottleneck and GH lower bound")
    p.add_argument("--a", help="sample CSV A (its <csv>.json sidecar is required)")
    p.add_argument("--b", help="sample CSV B (its <csv>.json sidecar is required)")
    p.add_argument("--region-a", help="analytic region A")
    p.add_argument("--region-b", help="analytic region B")
    p.add_argument("--step", type=_bounded(float, 0.0, above=True), default=1e-3, help="boundary grid step")
    p.add_argument("--interior-step", type=_bounded(float, 0.0, above=True), default=5e-3)
    p.set_defaults(fn=cmd_compare)

    p = sub.add_parser("graph-betti", help="recover cycle count/lengths of a metric graph")
    p.add_argument("--graph", required=True, help="graph family or metric graph JSON file; "
                   "takes every --space form of sample")
    p.add_argument("--tuples", type=_bounded(int, 1), default=100_000)
    p.add_argument("--seed", type=_bounded(int, 0), default=0)
    _add_workers_arg(p)
    p.add_argument("--rel-tol", type=_bounded(float, 0.0, above=True), default=0.08)
    p.add_argument("--min-support", type=_bounded(int, 1), default=10)
    p.set_defaults(fn=cmd_graph_betti)

    p = sub.add_parser("density-check", help="L1 error of the circle campaign vs the exact density")
    p.add_argument("--tuples", type=_bounded(int, 1), default=1_000_000)
    p.add_argument("--seed", type=_bounded(int, 0), default=0)
    _add_workers_arg(p)
    p.add_argument("--bins", type=_bounded(int, 1), default=50)
    p.add_argument("--threshold", type=_bounded(float, 0.0), default=0.05)
    p.set_defaults(fn=cmd_density_check)

    p = sub.add_parser("validate", help="check a distance matrix file against the metric axioms")
    p.add_argument("matrix", help="CSV (rows of decimals) or JSON {n, d} file")
    p.set_defaults(fn=cmd_validate)

    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (PersetsError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
