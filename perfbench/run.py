#!/usr/bin/env python3
"""rotlab benchmark: Monte-Carlo throughput, batched spot checks and the
analytic headline path, with a traced per-module breakdown.

Run from the root of a checkout:

    python3 perfbench/run.py --workload {mc-single,mc-batched,analysis} \
        --seed N --seconds S --trace {0,1}

The library is imported from the checkout's ``src/`` directory and called
in-process through its public API, in one process and one thread.  With
``--trace 0`` the run measures set-up time (the median of several fresh
process starts) and then times passes for ``--seconds`` seconds; with
``--trace 1`` it alternates untraced and traced passes and reports the
per-module call counts, self times, ratios, tracing overhead and micro rows.

Every output is checked (see ``workloads.py``).  Human-readable metric
lines, then one JSON line with the run manifest and the report, then the
result line ``{"correct", "attempted", "failed", "metrics"}`` go to stdout.
"""

import os

# One BLAS/OpenMP thread, set before numpy is imported: each workload runs
# on a single core.
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SETUP_PROBES = 9
HOST_PROBES_PER_SIDE = 5
PROBE_TIMEOUT_S = 60


def load_rotlab():
    """Import rotlab from this checkout's sources, and from nowhere else."""
    package_dir = ROOT / "src" / "rotlab"
    if not (package_dir / "__init__.py").is_file():
        raise SystemExit(f"error: no rotlab sources at {package_dir}; run from a rotlab checkout")
    sys.path.insert(0, str(ROOT / "src"))
    import rotlab

    if Path(rotlab.__file__).resolve().parent != package_dir.resolve():
        raise SystemExit(f"error: imported rotlab from {rotlab.__file__}, not {package_dir}")
    return rotlab


def git_commit():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def probe_setup(args, workloads, checks):
    """Seconds from process start until a fresh process is ready for its
    first timed pass, once per probe, as (raw, scaled to the nominal host).

    The child measures itself against the spawn time on the system-wide
    monotonic clock, so neither its exit nor the parent's wait is counted.
    """
    samples = []
    for _ in range(SETUP_PROBES):
        # Several host probes on each side: a child's start-up spans far more
        # host-speed drift than one timed call does.
        probes = [workloads.host_probe() for _ in range(HOST_PROBES_PER_SIDE)]
        command = [
            sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
            "--seed", str(args.seed), "--setup-probe", str(time.monotonic_ns()),
        ]
        done = subprocess.run(
            command, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
            timeout=PROBE_TIMEOUT_S,
        )
        probes += [workloads.host_probe() for _ in range(HOST_PROBES_PER_SIDE)]
        if not checks.check(done.returncode == 0, f"set-up probe exited {done.returncode}"):
            continue
        raw = float(done.stdout.strip().splitlines()[-1])
        samples.append((raw, raw * workloads.PROBE_NOMINAL_S / statistics.median(probes)))
    return samples


def timed_passes(workload, seconds, tracer):
    """Closed loop of passes for ``seconds``; with a tracer, every second
    pass is traced.  Returns (untraced, traced) lists of pass results."""
    untraced, traced = [], []
    deadline = time.perf_counter() + seconds
    index = 0
    while time.perf_counter() < deadline or not untraced or (tracer is not None and not traced):
        trace_this = tracer is not None and index % 2 == 1
        if trace_this:
            workload.tracer = tracer
            tracer.install()
        try:
            result = workload.run_pass(index)
        finally:
            if trace_this:
                tracer.uninstall()
                workload.tracer = None
        (traced if trace_this else untraced).append(result)
        index += 1
    return untraced, traced


def pass_seconds(passes):
    return statistics.median(sum(call[2] for call in p.values()) for p in passes)


def per_layer(workload, tracer, untraced, traced):
    passes = len(traced)
    metrics = {}
    for label, (calls, self_s) in tracer.stats.items():
        metrics[f"{label}.calls"] = (calls / passes, "calls/pass")
        metrics[f"{label}.self_s"] = (self_s / passes, "s/pass")
    trials = sum(call[0] for p in traced for call in p.values()) if workload.monte_carlo else 0
    transfers = getattr(workload, "traced_transfers", 0)
    runs = tracer.protocol_runs
    metrics["rng.party_stream.per_trial"] = (tracer.calls("rng.party_stream") / trials if trials else 0.0, "calls/trial")
    metrics["linalg.measure.per_trial"] = (tracer.calls("linalg.measure") / trials if trials else 0.0, "calls/trial")
    metrics["rng.party_stream.per_transfer"] = (
        workload.sequence_streams / transfers if transfers else 0.0, "calls/transfer"
    )
    metrics["protocols.transcript_messages_per_run"] = (tracer.transcript_messages / runs if runs else 0.0, "msgs/run")
    metrics["trace.overhead_pct"] = (100.0 * (pass_seconds(traced) / pass_seconds(untraced) - 1.0), "%")
    metrics["trace.hooks_absent"] = (len(tracer.absent), "count")
    return metrics


def manifest(rotlab, args, workload, passes):
    import numpy

    return {
        "rotlab_version": getattr(rotlab, "__version__", None),
        "git_commit": git_commit(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "backend": getattr(rotlab, "BACKEND", None),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas_threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "passes": passes,
        **workload.manifest(),
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description="rotlab benchmark")
    parser.add_argument("--workload", required=True, choices=("mc-single", "mc-batched", "analysis"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Internal: the spawn time (monotonic ns) of a set-up probe child.
    parser.add_argument("--setup-probe", type=int, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    rotlab = load_rotlab()
    import tracing
    import workloads

    checks = workloads.Checks()
    workload = workloads.WORKLOADS[args.workload](args.seed, checks)
    if args.setup_probe is not None:
        workload.setup()
        print((time.monotonic_ns() - args.setup_probe) / 1e9)
        return 0

    setup_samples = [] if args.trace else probe_setup(args, workloads, checks)
    workload.setup()
    workload.run_pass(workloads.WARMUP_PASS)
    tracer = tracing.Tracer(rotlab.__name__) if args.trace else None
    untraced, traced = timed_passes(workload, args.seconds, tracer)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    z_scores = workload.finish()

    if args.trace:
        metrics = per_layer(workload, tracer, untraced, traced)
        metrics.update({name: (value, "ms") for name, value in workloads.micro_rows(args.seed, checks).items()})
        report = dict(metrics)
    else:
        metrics, report = workloads.end_to_end(workload, untraced, setup_samples, peak_rss_mb)
    failed = len(checks.failures)
    report["check_fail_ratio"] = (failed / checks.attempted, "ratio")

    print(f"rotlab benchmark  workload={args.workload} seed={args.seed} trace={args.trace} "
          f"passes={len(untraced)} untraced + {len(traced)} traced")
    for name, (value, unit) in report.items():
        print(f"  {name:<46} {json.dumps(value)} {unit}")
    for failure in checks.failures:
        print(f"check failed: {failure}", file=sys.stderr)
    details = {
        "manifest": manifest(rotlab, args, workload, {"untraced": len(untraced), "traced": len(traced)}),
        "setup_samples_s": setup_samples,
        "z_scores": z_scores,
        "hooks_absent": tracer.absent if tracer else [],
        "failures": checks.failures,
    }
    print(json.dumps(details, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": checks.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
