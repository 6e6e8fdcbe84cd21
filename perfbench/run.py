"""persets benchmark: run one workload and print its metrics as JSON.

Run from the root of a persets checkout::

    python3 perfbench/run.py --workload circle-gh --seed 1 --seconds 20 --trace 0

``--trace 0`` repeats the workload's operation sequence, each time in a
fresh interpreter, as many times as fit in ``--seconds`` at the workload's
nominal pass time (at least four), and reports the medians of the
end-to-end metrics.  ``--trace 1`` runs
one untraced pass, a second one at one worker if the workload uses more,
and two traced passes at one worker, and reports the per-layer metrics;
its spans go to ``.perfbench/traces/``.  The last line of standard output
is one JSON object: ``correct``, ``attempted``, ``failed``, ``metrics``.
See README.md for the workloads and metric definitions.
"""
from __future__ import annotations

import argparse
import importlib.metadata
import json
import multiprocessing
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
STATE = os.path.join(ROOT, ".perfbench")

MIN_SETUPS = 10
IMPORT_SAMPLES = 3
TRACED_PASSES = 2
DEADLINE_S = 170.0  # every run must end within 180 s

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "tuples_per_s": "tuples/s",
                    "cpu_s": "s", "peak_rss_mb": "MB"}


class BenchError(Exception):
    """The benchmark could not measure: a pass crashed or timed out."""


def _env():
    env = {k: v for k, v in os.environ.items() if k not in ("PERSETS_WORKERS", "PYTHONPATH")}
    env["PYTHONPATH"] = SRC
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
        env[var] = "1"
    return env


def _run(cmd, cwd, deadline):
    """Run a process group to completion before ``deadline``; kill it after."""
    proc = subprocess.Popen(cmd, cwd=cwd, env=_env(), stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise BenchError(f"{' '.join(cmd[1:3])} did not finish before the deadline") from None
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    if proc.returncode != 0:
        raise BenchError(f"{' '.join(cmd)} exited {proc.returncode}:\n{err}")
    return out, err


def _pass(wl, seed, workers, mode, workdir, deadline):
    cmd = [sys.executable, os.path.join(HERE, "child.py"), "--workload", wl.name,
           "--seed", str(seed), "--workers", str(workers), "--mode", mode]
    out, err = _run(cmd, workdir, deadline)
    sys.stderr.write(err)
    result = json.loads(out.strip().splitlines()[-1])
    if os.path.commonpath([result["persets_file"], SRC]) != SRC:
        raise BenchError(f"imported persets from {result['persets_file']}, not from {SRC}")
    for name, reason in result.get("failures", {}).items():
        print(f"{wl.name} {mode} pass: {name} failed: {reason}", file=sys.stderr)
    return result


def _import_seconds(workdir, deadline):
    """Cumulative ``-X importtime`` seconds of persets and scipy.spatial."""
    _, err = _run([sys.executable, "-X", "importtime", "-c", "import persets"], workdir, deadline)
    cumulative = {}
    for line in err.splitlines():
        if line.startswith("import time:") and "|" in line:
            _, cum, name = line.split("|")
            if cum.strip().isdigit():
                cumulative[name.strip()] = int(cum) / 1e6
    return cumulative.get("persets", 0.0), cumulative.get("scipy.spatial", 0.0)


def measure(wl, seed, seconds, workdir, deadline):
    """Closed loop: ``wl.passes(seconds)`` operation sequences back to back.

    The pass count depends only on ``seconds``, never on the clock, so that
    ``attempted`` and ``failed`` repeat exactly for a given seed.
    """
    count = wl.passes(seconds)
    # set-up-only passes fill in up to MIN_SETUPS set-ups; they are spread
    # between the timed passes so that they sample the whole run
    missing = max(0, MIN_SETUPS - count)
    passes, setups = [], []
    for i in range(count):
        longest = max((p["setup_s"] + p["wall_s"] for p in passes), default=0.0)
        if time.monotonic() + 2 * longest > deadline:
            raise BenchError(f"{wl.name}: {i} of {count} passes done and the next "
                             "would pass the deadline; lower --seconds")
        passes.append(_pass(wl, seed, wl.workers, "time", workdir, deadline))
        setups.append(passes[-1]["setup_s"])
        setups += [_pass(wl, seed, wl.workers, "setup", workdir, deadline)["setup_s"]
                   for _ in range(missing // count + (i < missing % count))]
    if not all(p["campaign_s"] > 0 for p in passes):
        raise BenchError("engine.sample_persistence_set was never called; tuples_per_s is undefined")
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median([p["wall_s"] for p in passes]),
        "tuples_per_s": statistics.median([p["tuples"] / p["campaign_s"] for p in passes]),
        "cpu_s": statistics.median([p["cpu_s"] for p in passes]),
        "peak_rss_mb": statistics.median([p["peak_rss_mb"] for p in passes]),
    }
    correct = all(p["digests"] == passes[0]["digests"] for p in passes)
    if not correct:
        print(f"{wl.name}: outputs differ between repeated passes of seed {seed}", file=sys.stderr)
    print(f"{wl.name}: {len(passes)} passes, {len(setups)} set-ups, wall_s "
          f"{[round(p['wall_s'], 3) for p in passes]}", file=sys.stderr)
    return correct, passes, {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in metrics.items()}


def _layer_unit(name):
    if name.endswith("_s"):
        return "s"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith(("_fraction", "_utilization")):
        return "ratio"
    if ".bytes_" in name:
        return "bytes"
    return "count"


def trace(wl, seed, workdir, deadline):
    """Untraced and traced passes; per-layer metrics and the trace file."""
    imports = [_import_seconds(workdir, deadline) for _ in range(IMPORT_SAMPLES)]
    untraced = _pass(wl, seed, wl.workers, "time", workdir, deadline)
    base = untraced if wl.workers == 1 else _pass(wl, seed, 1, "time", workdir, deadline)
    traced = [_pass(wl, seed, 1, "trace", workdir, deadline) for _ in range(TRACED_PASSES)]
    passes = [untraced] + ([base] if base is not untraced else []) + traced

    layers = dict(traced[0]["layers"])
    for key in layers:
        if key.endswith("_s"):
            layers[key] = statistics.fmean(t["layers"][key] for t in traced)
    layers["engine.worker_utilization"] = (
        untraced["campaign_cpu_s"] / (untraced["campaign_s"] * wl.workers)
        if untraced["campaign_s"] else 0.0)
    layers["trace.overhead_s"] = statistics.fmean(t["wall_s"] for t in traced) - base["wall_s"]
    layers["import.persets_s"] = statistics.median([i[0] for i in imports])
    layers["import.scipy_spatial_s"] = statistics.median([i[1] for i in imports])

    same_digests = all(p["digests"] == untraced["digests"] for p in passes)
    counts = [{k: v for k, v in t["layers"].items() if not k.endswith("_s")} for t in traced]
    same_counts = all(c == counts[0] for c in counts)
    if not same_digests:
        print(f"{wl.name}: traced, untraced or 1-vs-{wl.workers}-worker outputs differ",
              file=sys.stderr)
    if not same_counts:
        print(f"{wl.name}: count metrics differ between traced passes", file=sys.stderr)
    if traced[0]["missing"]:
        print(f"{wl.name}: entry points not found: {traced[0]['missing']}", file=sys.stderr)

    os.makedirs(os.path.join(STATE, "traces"), exist_ok=True)
    path = os.path.join(STATE, "traces", f"{wl.name}-seed{seed}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({
            "workload": wl.name,
            "seed": seed,
            "environment": {
                "python": platform.python_version(),
                "numpy": importlib.metadata.version("numpy"),
                "scipy": importlib.metadata.version("scipy"),
                "nproc": os.cpu_count(),
                "start_method": multiprocessing.get_start_method(),
            },
            "untraced_wall_s": {"workers": wl.workers, "value": untraced["wall_s"],
                                "at_1_worker": base["wall_s"]},
            "traced_wall_s": [t["wall_s"] for t in traced],
            "digests": untraced["digests"],
            "missing_entry_points": traced[0]["missing"],
            "layers": layers,
            "passes": [{"span_summary": t["span_summary"], "counts": t["counts"],
                        "spans": t["spans"]} for t in traced],
        }, fh, indent=1)
    print(f"{wl.name}: trace written to {os.path.relpath(path, ROOT)}", file=sys.stderr)
    metrics = {k: {"value": v, "unit": _layer_unit(k)} for k, v in sorted(layers.items())}
    return same_digests and same_counts, passes, metrics


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be >= 0")
    if not os.path.isfile(os.path.join(SRC, "persets", "__init__.py")):
        print(f"error: no persets sources under {SRC}; run from the root of a persets checkout",
              file=sys.stderr)
        return 2

    # a terminated run still stops its passes (see _run)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    wl = workloads.WORKLOADS[args.workload]
    deadline = time.monotonic() + DEADLINE_S
    workdir = os.path.join(STATE, "work", f"{wl.name}-{args.seed}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        if wl.make_inputs is not None:
            wl.make_inputs(args.seed, workdir)
        if args.trace:
            correct, passes, metrics = trace(wl, args.seed, workdir, deadline)
        else:
            correct, passes, metrics = measure(wl, args.seed, args.seconds, workdir, deadline)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps({
        "correct": correct,
        "attempted": sum(p["attempted"] for p in passes),
        "failed": sum(len(p["failures"]) for p in passes),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
