"""One pass of a workload in a fresh interpreter; prints one JSON line.

Run by ``run.py`` with the checkout's ``src`` on PYTHONPATH and the
working directory set to the run's scratch directory::

    python3 perfbench/child.py --workload circle-gh --seed 1 --workers 1 --mode time

Modes:

* ``setup``: time ``import persets`` plus building the workload's space;
* ``time``: set-up, then the operation sequence with only the campaign
  calls timed (two clock reads and two ``getrusage`` calls per campaign);
* ``trace``: the operation sequence with every layer entry point wrapped
  (see tracing.py).

Output
checks and digests are computed after the operation sequence, outside
every timed interval.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import sys
import time


def _cpu():
    """User + system seconds of this process and its reaped children."""
    s = resource.getrusage(resource.RUSAGE_SELF)
    c = resource.getrusage(resource.RUSAGE_CHILDREN)
    return s.ru_utime + s.ru_stime + c.ru_utime + c.ru_stime


def _peak_rss_mb():
    """Peak resident set of this process or of its largest child (Linux: KiB)."""
    s = resource.getrusage(resource.RUSAGE_SELF)
    c = resource.getrusage(resource.RUSAGE_CHILDREN)
    return max(s.ru_maxrss, c.ru_maxrss) / 1024.0


def _time_campaigns(engine, stats):
    orig = engine.sample_persistence_set

    def timed(*args, **kwargs):
        cpu0, t0 = _cpu(), time.perf_counter()
        result = orig(*args, **kwargs)
        stats["campaign_s"] += time.perf_counter() - t0
        stats["campaign_cpu_s"] += _cpu() - cpu0
        stats["tuples"] += result.tuples_drawn
        return result

    engine.sample_persistence_set = timed


def _digests(outputs):
    """sha256 of every file in the working directory and of each op's stdout."""
    out = {}
    for name in sorted(os.listdir(".")):
        h = hashlib.sha256()
        with open(name, "rb") as fh:
            for block in iter(lambda: fh.read(1 << 20), b""):
                h.update(block)
        out[f"file:{name}"] = h.hexdigest()
    for name, result in outputs:
        if isinstance(result, dict) and "stdout" in result:
            out[f"stdout:{name}"] = hashlib.sha256(result["stdout"].encode()).hexdigest()
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--workers", type=int, required=True)
    ap.add_argument("--mode", choices=("setup", "time", "trace"), required=True)
    args = ap.parse_args(argv)

    t0 = time.perf_counter()
    import persets
    import persets.cli

    import tracing
    import workloads

    wl = workloads.WORKLOADS[args.workload]

    stats = {"campaign_s": 0.0, "campaign_cpu_s": 0.0, "tuples": 0}
    tracer = None
    if args.mode == "trace":
        tracer = tracing.Tracer()
        tracing.install(tracer, persets)
    else:
        _time_campaigns(persets.engine, stats)
    wl.setup(persets)
    setup_s = time.perf_counter() - t0
    report = {"setup_s": setup_s, "persets_file": os.path.abspath(persets.__file__)}
    if args.mode == "setup":
        print(json.dumps(report))
        return 0

    ops = wl.ops(args.seed, args.workers)
    ctx, outputs = {}, []
    wall_s = cpu_s = 0.0
    for op in ops:
        cpu0, t0 = _cpu(), time.perf_counter()
        try:
            outputs.append((op.name, op.run(persets, ctx)))
        except Exception as exc:  # an operation that raises counts as failed
            outputs.append((op.name, exc))
        wall_s += time.perf_counter() - t0
        cpu_s += _cpu() - cpu0
    peak = _peak_rss_mb()

    failures = {}
    for op, (name, result) in zip(ops, outputs):
        if isinstance(result, Exception):
            failures[name] = f"raised {type(result).__name__}: {result}"
            continue
        try:
            reason = op.check(result, ctx)
        except Exception as exc:  # a check that cannot read the output fails it
            reason = f"check raised {type(exc).__name__}: {exc}"
        if reason:
            failures[name] = reason

    report.update({
        "wall_s": wall_s,
        "cpu_s": cpu_s,
        "peak_rss_mb": peak,
        "attempted": len(ops),
        "failures": failures,
        "digests": _digests(outputs),
        **stats,
    })
    if tracer is not None:
        summary = tracer.summary()
        report.update({
            "layers": tracing.layer_metrics(summary, tracer.counts),
            "counts": dict(tracer.counts),
            "span_summary": summary,
            "spans": tracer.spans,
            "missing": tracer.missing,
        })
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
