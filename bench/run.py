"""Benchmark runner for `biaxial`.

    python3 bench/run.py --workload finetune_ref --seed 1 --seconds 20 --trace 0

Run from anywhere inside a checkout; the program is imported from the
checkout's `src/`. One process runs one workload (see workloads.py):

1. Import numpy, scipy and `biaxial` (timed).
2. Set up `SETUP_REPEATS` times: build the unit-0 inputs and take one
   warm-up training step (cli_pipeline only prepares its work directory).
   set-up time = import + the median repetition. Warm-up steps are thus
   charged to set-up and excluded from step timing.
3. Run units of work until `--seconds` would be exceeded (at least
   `min_units`), each with inputs made from the seed and the unit index.

With `--trace 0` the result holds the end-to-end metrics, measured with
only the stage probes installed. With `--trace 1` it holds the per-layer
metrics: unit 0 runs twice untraced and once traced, all three must agree
bitwise (losses, parameters, artifacts), and the traced wall time minus
the second untraced one is reported as the tracing overhead (the first
unit after set-up runs slower). Further traced units run while time
remains; per-layer times are seconds per unit.

The last stdout line is the JSON result; the line before it is the
environment record with per-unit details (set-up repetitions, unit wall
times, and the quality readouts: validation loss and AUCs). Correctness
problems set `"correct": false`; `failed` counts sampler-skipped batches
and grid cells missing from the results, against `attempted` training
steps, forward-only calls and requested grid cells.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import signal
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
SETUP_REPEATS = 3

END_TO_END_UNITS = {
    "setup_s": "s", "wall_s": "s", "step_s_p50": "s",
    "train_samples_per_s": "1/s", "eval_samples_per_s": "1/s", "peak_rss_mb": "MB",
}


def _git_commit(root: Path) -> str | None:
    """HEAD of the checkout, read from .git without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _src_digest(root: Path) -> str:
    h = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        h.update(str(path.relative_to(root)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def _environment(args, workloads) -> dict:
    import numpy as np
    import scipy

    try:
        from biaxial import _malloc
        malloc_tune = _malloc.tune()
    except ImportError:
        malloc_tune = None

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "config": blas.get("openblas configuration")},
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "python": platform.python_version(),
        "numpy": np.__version__, "scipy": scipy.__version__,
        "malloc_tune": malloc_tune,
        "machine": platform.machine(),
        "git_commit": _git_commit(ROOT),
        "src_sha256": _src_digest(ROOT),
        "setup_repeats": SETUP_REPEATS,
        "warmup_steps": SETUP_REPEATS * workloads.WORKLOADS[args.workload].warmup_steps,
        "warmup_in": "setup_s; not in step_s_p50 or train_samples_per_s",
    }


def _run(args, wl, probe):
    """Set up, then run units until the time is used; see the module doc."""
    setup = []
    for rep in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        wl.setup(rep)
        setup.append(time.perf_counter() - t0)

    refs, ref_wall = [], None
    if args.trace:
        # The first unit after set-up runs slower, so the untraced
        # reference is the second of two untraced runs of unit 0.
        for _ in range(2):
            t0 = time.perf_counter()
            refs.append(wl.run(wl.inputs(0)))
            ref_wall = time.perf_counter() - t0
        probe.start_tracing()
    probe.reset()

    outcomes, walls = [], []
    min_units = 1 if args.trace else wl.min_units
    start = time.perf_counter()
    while True:
        inputs = wl.inputs(len(walls))
        t0 = time.perf_counter()
        outcomes.append(wl.run(inputs))
        walls.append(time.perf_counter() - t0)
        elapsed = time.perf_counter() - start
        if len(walls) >= min_units and elapsed + statistics.mean(walls) > args.seconds:
            break
    return setup, outcomes, walls, refs, ref_wall


def measure(args, workloads, probes, import_s: float) -> tuple[dict, dict]:
    """Run one workload; returns (result, detail for the record)."""
    workdir = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    try:
        with probes.Probe() as probe:
            wl = workloads.WORKLOADS[args.workload](args.seed, str(workdir), probe)
            setup, outcomes, walls, refs, ref_wall = _run(args, wl, probe)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            workdir.parent.rmdir()

    problems = [f"unit {i}: {p}" for i, out in enumerate(outcomes) for p in out.problems]
    # Probabilities must be valid. Exactly 0 or 1 is accepted: float64
    # sigmoid rounds to 1.0 above a logit of ~37. Such saturated outputs
    # are counted in the per-layer metrics.saturated_frac.
    if probe.counts["probs_invalid"]:
        problems.append(f"{probe.counts['probs_invalid']} predicted probabilities "
                        f"are NaN or outside [0, 1]")
    first = outcomes[0]
    if any((r.fingerprint, r.val_loss) != (first.fingerprint, first.val_loss) for r in refs):
        problems.append("traced and untraced runs of unit 0 differ")

    if args.trace:
        metrics = probe.per_layer(len(outcomes))
        metrics["bench.trace_overhead_s"] = walls[0] - ref_wall
        # quality readouts of unit 0; AUC is 0 where nothing is classified
        metrics["metrics.val_loss"] = first.val_loss
        metrics["metrics.auc_roc"] = 0.0 if math.isnan(first.auc_roc) else first.auc_roc
        metrics["metrics.auc_pr"] = 0.0 if math.isnan(first.auc_pr) else first.auc_pr
        units = {name: probes.layer_unit(name) for name in metrics}
    else:
        metrics = probe.end_to_end()
        metrics["setup_s"] = import_s + statistics.median(setup)
        metrics["wall_s"] = statistics.median(walls)
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        units = END_TO_END_UNITS
    for name, value in metrics.items():
        if not math.isfinite(value):
            problems.append(f"metric {name} is {value}")
            metrics[name] = 0.0

    c = probe.counts
    result = {
        "correct": not problems,
        "attempted": (len(probe.step_s) + c["sampler.exhausted"] + c["eval_calls"]
                      + sum(o.requested for o in outcomes)),
        "failed": c["sampler.exhausted"] + sum(o.missing for o in outcomes),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in sorted(metrics.items())},
    }
    detail = {"import_s": import_s, "setup_s": setup, "unit_wall_s": walls,
              "val_loss": [o.val_loss for o in outcomes],
              "auc_roc": [None if math.isnan(o.auc_roc) else o.auc_roc for o in outcomes],
              "auc_pr": [None if math.isnan(o.auc_pr) else o.auc_pr for o in outcomes],
              "unpatched": probe.unpatched, "problems": problems}
    return result, detail


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["finetune_ref", "pretrain_long", "cli_pipeline"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # a plain kill still runs the clean-up in `finally` blocks
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not (ROOT / "src" / "biaxial" / "__init__.py").is_file():
        print(f"error: no biaxial sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    # Pin the BLAS pool to the core count before numpy loads, so the
    # record states it; OpenBLAS would pick the same by default.
    os.environ.setdefault("OPENBLAS_NUM_THREADS", str(os.cpu_count()))
    sys.dont_write_bytecode = True
    sys.path[:0] = [str(ROOT / "src"), str(BENCH_DIR)]

    t0 = time.perf_counter()
    import numpy  # noqa: F401
    import scipy.special  # noqa: F401

    import probes
    import workloads
    import_s = time.perf_counter() - t0

    result, detail = measure(args, workloads, probes, import_s)
    print(json.dumps({"env": _environment(args, workloads), "detail": detail}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
