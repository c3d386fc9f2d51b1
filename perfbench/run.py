#!/usr/bin/env python3
"""FastCap reproduction benchmark: one workload per invocation.

Run from the repository root::

    python3 perfbench/run.py --workload fig9-exact-fleet --seed 1 \\
        --seconds 25 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` wraps the
program's layers (see ``layers.py``) and prints the per-layer metrics.
The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  The exit code is 0 only
when every operation and correctness check passed.  See README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from hostspeed import HostSpeed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: Everything the benchmark writes: kernel build cache, result caches,
#: temporary files, span dumps and the work counters of earlier runs.
WORK = ROOT / ".bench_build" / "perfbench"
WORKLOADS = (
    "fig9-exact-fleet",
    "fig10-relaxed-n64",
    "service-closed-loop",
    "eventsim-validation",
)
#: Timed set-ups per run; the reported set-up time is their median.
SETUP_REPEATS = 5

END_TO_END = [
    ("setup_s", "s"),
    ("epochs_per_s", "1/s"),
    ("step_p95_ms", "ms"),
    ("peak_rss_mb", "MB"),
    ("success_rate", "ratio"),
    ("sim_degradation_avg", "ratio"),
    ("sim_degradation_worst", "ratio"),
    ("sim_outlier_gap", "ratio"),
    ("sim_overshoot_max", "ratio"),
]


def configure_environment() -> None:
    """Pin the kernel backend, its build cache, temp files and BLAS."""
    (WORK / "tmp").mkdir(parents=True, exist_ok=True)
    os.environ["FASTCAP_KERNEL_CACHE"] = str(WORK / "kernel-cache")
    os.environ["FASTCAP_MVA_KERNEL"] = "cc"
    os.environ["TMPDIR"] = str(WORK / "tmp")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(ROOT / "src"))


def percentile(values, q: float) -> float:
    """Nearest-rank percentile (``q`` in (0, 1])."""
    ordered = sorted(values)
    return ordered[max(math.ceil(q * len(ordered)) - 1, 0)]


def setup_probe(workload: str, seed: int) -> None:
    """One set-up: imports, kernel warm-up, first simulator build."""
    from cases import CASES
    from repro.queueing.kernels import warmup

    warmup()
    CASES[workload](seed, WORK).first_build()


def time_setups(workload: str, seed: int) -> list:
    """Seconds of fresh-interpreter set-ups, timed from outside and
    normalized to the reference host's speed (the host is probed before
    and after each one).

    While the benchmark's own kernel cache is empty, one untimed set-up
    compiles the kernel first, so no timed set-up compiles.
    """
    cmd = [
        sys.executable,
        str(Path(__file__).resolve()),
        "--setup-probe",
        "--workload",
        workload,
        "--seed",
        str(seed),
    ]
    if not any((WORK / "kernel-cache").glob("*.so")):
        subprocess.run(cmd, cwd=ROOT, check=True)
    speed = HostSpeed(clock=time.perf_counter)  # the set-up runs in a child
    for _ in range(SETUP_REPEATS):
        # No timeout: with one, the wait polls in up-to-50 ms sleeps and
        # quantizes the measurement.
        subprocess.run(cmd, cwd=ROOT, check=True)
        speed.close()
    return [wall / slowness for wall, slowness in speed.stretches]


def source_digest() -> str:
    """Content hash of the program and benchmark sources."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")) + sorted(HERE.glob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def provenance(digest: str) -> dict:
    import numpy as np
    from repro.queueing.kernels import default_kernel_name, kernel_available

    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
        )
        commit = done.stdout.strip() or commit
    return {
        "kernel_backend": default_kernel_name(),
        "numba_available": kernel_available("numba"),
        "cc_available": kernel_available("cc"),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "git_commit": commit,
        "source_digest": digest,
    }


def measure(case, seconds: float, tracer):
    """Repeat the case while the next repetition would end nearer to
    ``seconds`` than the last one did, so the window averages ``seconds``."""
    from layers import work_counters

    reps, counters = [], []
    start = time.perf_counter()
    while True:
        before = work_counters(tracer) if tracer else {}
        rep = case.rep(tracer)
        if tracer:
            after = work_counters(tracer)
            counters.append({k: after[k] - before[k] for k in after})
        reps.append(rep)
        elapsed = time.perf_counter() - start
        if elapsed + rep.seconds / 2 > seconds:
            return reps, counters


def compare_counters(path: Path, counters: dict, record: bool) -> tuple:
    """Work counters must repeat exactly across runs of the same code.

    ``path`` names the seed and the source digest, so a run compares
    only against earlier runs of identical code on identical inputs.
    The first run records its counters when ``record`` (it passed every
    other check).
    """
    if path.exists():
        earlier = json.loads(path.read_text())
        return earlier == counters, f"earlier run: {earlier}"
    if record:
        path.write_text(json.dumps(counters, sort_keys=True))
    return True, "first run with this seed"


def run(args) -> int:
    from cases import CampaignCase, CASES, Checks
    from layers import PER_LAYER, install, per_layer_metrics, work_counters
    from tracing import Tracer

    digest = source_digest()
    setup_times = time_setups(args.workload, args.seed)
    case = CASES[args.workload](args.seed, WORK)
    setup_probe(args.workload, args.seed)  # this process's own set-up

    tracer = None
    reference = None
    if args.trace:
        tracer = Tracer()
        install(tracer)
        if isinstance(case, CampaignCase):
            # Untraced, for the hash comparison; its wall time (probes
            # included) stands against the traced repetitions' wall times.
            reference_start = time.perf_counter()
            reference = case.rep()
            reference_wall = time.perf_counter() - reference_start
        tracer.enabled = True
    started = time.perf_counter()
    reps, counters = measure(case, args.seconds, tracer)
    wall = time.perf_counter() - started
    if tracer:
        tracer.enabled = False
        replay_before = work_counters(tracer)

    checks = Checks()
    digests = {rep.digest for rep in reps}
    checks.check(
        "every repetition produced the same results",
        len(digests) == 1 and "" not in digests,
    )
    if reference is not None:
        checks.check(
            "traced and untraced results hash identically",
            reference.digest == reps[0].digest,
        )
    if counters:
        checks.check(
            "work counters repeat across repetitions",
            all(c == counters[0] for c in counters),
        )
    case.checks(checks, tracer)
    if tracer:
        after = work_counters(tracer)
        run_counters = dict(counters[0])
        for key in after:
            run_counters[key] += after[key] - replay_before[key]
        ok, detail = compare_counters(
            WORK / f"counters-{args.workload}-seed{args.seed}-{digest}.json",
            run_counters,
            record=checks.failed == 0 and not any(r.failed for r in reps),
        )
        checks.check("work counters repeat across runs", ok, detail)

    attempted = sum(r.attempted for r in reps) + len(checks.results)
    failed = sum(r.failed for r in reps) + checks.failed
    seconds = sum(r.seconds for r in reps)
    normalized = sum(r.normalized_seconds for r in reps)
    epochs = sum(r.epochs for r in reps)

    if tracer:
        tracer.dump(str(WORK / f"trace-{args.workload}-seed{args.seed}.json"))
        # Traced campaign repetitions keep no epoch clock, so only the
        # service's step requests count here.
        steps = sum(len(r.steps_ms) for r in reps)
        values = per_layer_metrics(tracer, len(reps), epochs, seconds, steps)
        units = dict(PER_LAYER)
        tracer.remove()
    else:
        steps_ms = [v for r in reps for v in r.steps_ms]
        values = {
            "setup_s": statistics.median(setup_times),
            "epochs_per_s": epochs / normalized,
            "step_p95_ms": percentile(steps_ms, 0.95),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "success_rate": 1.0 - failed / attempted,
        }
        values.update(case.sim_metrics())
        units = dict(END_TO_END)

    for name, ok, detail in checks.results:
        print(f"check {'ok  ' if ok else 'FAIL'} {name} {detail}".rstrip())
    print(
        f"{len(reps)} repetitions, {epochs} simulated epochs in {seconds:.3f} s; "
        f"{sum(len(r.steps_ms) for r in reps)} step samples"
    )
    if not tracer:
        # Printed, not gated: see README.md "Why step_p95_ms and not p99".
        print(
            f"  step_p50_ms {statistics.median(steps_ms):.6g} ms, "
            f"step_p99_ms {percentile(steps_ms, 0.99):.6g} ms "
            f"({len(steps_ms)} samples)"
        )
        print(
            f"  host slowness {seconds / normalized:.3f} (1 = reference); "
            f"epochs per CPU second {epochs / seconds:.6g}, "
            f"per wall-clock second {epochs / wall:.6g}"
        )
    elif reference is not None:
        traced = statistics.median(r.seconds for r in reps)
        print(
            f"tracing overhead: untraced repetition {reference_wall:.3f} s, "
            f"traced median {traced:.3f} s ({traced / reference_wall - 1:+.1%})"
        )
    print("provenance " + json.dumps(provenance(digest), sort_keys=True))
    metrics = {}
    for name, unit in units.items():
        metrics[name] = {"value": values[name], "unit": unit}
        print(f"  {name:32s} {values[name]:.6g} {unit}")
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 0 if failed == 0 else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no program sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    configure_environment()
    if args.setup_probe:
        setup_probe(args.workload, args.seed)
        return 0
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
