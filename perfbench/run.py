"""dc-lab benchmark: time to a verdict for search, sweep and construct-verify.

Run from the root of a checkout (it imports dc_lab from ./src):

    python3 perfbench/run.py --workload search-find --seed 1 --seconds 30 --trace 0

Workloads: search-find, sweep, construct-verify.  Each run generates its
inputs from --seed, performs the operations that take about --seconds on the
reference machine (a fixed number for given arguments), checks every
output and prints the metrics one per line, then, as the last line, a JSON
object with the keys correct, attempted, failed and metrics.  --trace 0
reports the end-to-end metrics.  --trace 1 reports the per-layer metrics: a
kernel microbenchmark, then operations untraced for half of --seconds and
the same operations again traced, with the spans reduced to counts, busy and
self times.
Spans, results and scratch files go to perfbench/out/.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import itertools
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, "perfbench", "out")
SWEEP_WORKERS = 2
SETUP_REPEATS = 4  # before the timed loop, and again after it


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--workload", required=True, choices=("search-find", "sweep", "construct-verify")
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def pin_threads(workload: str) -> None:
    """Keep runnable threads within nproc; must run before numpy is imported.

    Every workload holds BLAS to one thread per process: on a shared 2-vCPU
    guest a second OpenBLAS thread made per-search times noisier (log
    spread 0.12-0.20 against 0.09-0.12).  The sweep runs min(2, nproc)
    worker processes.  The set-up samples inherit the pin.
    """
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    if workload == "sweep":
        nproc = len(os.sched_getaffinity(0))
        os.environ["DC_LAB_THREADS"] = str(min(SWEEP_WORKERS, nproc))


def import_program():
    if not os.path.isfile(os.path.join(SRC, "dc_lab", "__init__.py")):
        sys.exit(f"error: {SRC}/dc_lab not found; run from the root of a dc-lab checkout")
    sys.path.insert(0, SRC)
    import dc_lab
    from dc_lab import cli

    if not os.path.abspath(dc_lab.__file__).startswith(SRC + os.sep):
        sys.exit(f"error: imported dc_lab from {dc_lab.__file__}, not from {SRC}")
    return dc_lab, cli


def blas_threads():
    import numpy as np

    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "libscipy_openblas*.so"))
    for path in libs:
        fn = getattr(ctypes.CDLL(path), "scipy_openblas_get_num_threads64_", None)
        if fn is not None:
            fn.restype = ctypes.c_int
            return fn()
    return "unknown"


def environment(args) -> dict:
    import numpy as np

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "blas_pin": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
        "DC_LAB_THREADS": os.environ.get("DC_LAB_THREADS", "unset"),
        "seed": args.seed,
    }


def setup_seconds(warm: bool) -> list[float]:
    """Interpreter start plus `import dc_lab`, as every CLI user pays it."""
    env = dict(os.environ, PYTHONPATH=SRC)
    cmd = [sys.executable, "-c", "import dc_lab"]
    if warm:
        subprocess.run(cmd, env=env, cwd=ROOT, check=True)  # fill the file cache and bytecode
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run(cmd, env=env, cwd=ROOT, check=True)
        times.append(time.perf_counter() - t0)
    return times


def run_rounds(workload, seconds: float) -> tuple[list, list]:
    """Run the rounds that `seconds` holds at the nominal rate, one operation after another."""
    rounds = max(1, round(seconds / workload.nominal_round_s))
    steps = list(itertools.islice(workload.steps(), rounds * workload.round_size))
    return steps, [workload.run(step) for step in steps]


def run_checks(verdicts) -> tuple[int, list, list]:
    """Returns (operations attempted, failed operation labels, failures)."""
    attempted, failed, failures = 0, [], []
    for verdict in verdicts:
        for label, check in verdict.checks:
            attempted += 1
            found = check()
            if found:
                failed.append(label)
                failures += [(kind, f"{label}: {msg}") for kind, msg in found]
    return attempted, failed, failures


def tail(times) -> tuple[float, float, int]:
    """Highest percentile with at least ten samples beyond it (the max below 11)."""
    ordered = sorted(times)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0, n
    return ordered[n - 11], 100.0 * (n - 10) / n, n


def end_to_end(args, verdicts, setup, peak_rss_mb) -> dict:
    times = [v.seconds for v in verdicts]
    geomean = math.exp(statistics.fmean(math.log(t) for t in times))
    p_tail, pct, n = tail(times)
    alias = {"sweep": "sweep_s", "construct-verify": "construct_verify_s"}.get(args.workload)
    print(f"verdict_s.p50 = {statistics.median(times)!r} s  (n={n})")
    print(f"verdict_s.tail = {p_tail!r} s  (p{pct:.0f}, n={n}, {n - round(n * pct / 100)} beyond)")
    if alias:
        print(f"{alias} = {geomean!r} s  (verdict_s.geomean of {n})")
    print(f"setup_s samples = {setup!r}")
    return {
        "verdict_s.geomean": (geomean, "s"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }


def peak_rss(workload_name: str) -> float:
    """Peak resident memory in MB; for the sweep, parent plus each worker at
    the largest worker's peak.  Forked workers count the pages they share
    with the parent, so the sweep figure counts those once per worker."""
    mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if workload_name == "sweep":
        mb += int(os.environ["DC_LAB_THREADS"]) * resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    return mb


def traced_run(args, dc, workload):
    """Kernel microbenchmark, then the workload untraced and traced.

    The sweep's traced pass is one sweep on one worker in-process; its
    untraced base is the same sweep on one worker, run before tracing starts.
    """
    import kernel
    import spans as tracing
    from workloads import sweep_identity_check

    metrics = kernel.kernel_metrics(dc, args.seed)
    steps, verdicts = run_rounds(workload, args.seconds / 2)
    untraced = sum(v.seconds for v in verdicts)
    pool_seconds = 0.0
    if workload.name == "sweep":
        steps, serial = steps[:1], workload.run(steps[0], workers=1)
        untraced = serial.seconds
        pool_seconds = int(os.environ["DC_LAB_THREADS"]) * verdicts[0].seconds
    tracer = tracing.Tracer()
    tracer.install()
    try:
        if workload.name == "sweep":
            traced = [tracer.run(0, workload.run, steps[0], 1)]
            # the pool's CSV is fully checked; both 1-worker CSVs must equal it
            traced[0].checks = [sweep_identity_check(verdicts[0], serial, traced[0])]
        else:
            traced = [tracer.run(i, workload.run, step) for i, step in enumerate(steps)]
    finally:
        tracer.uninstall()
    overhead = sum(v.seconds for v in traced) / untraced
    doc_bytes = workload.document_bytes() if workload.name == "construct-verify" else 0
    metrics.update(tracing.layer_metrics(tracer.spans, len(traced), overhead, pool_seconds, doc_bytes))
    tracer.write(os.path.join(OUT, f"trace-{args.workload}-s{args.seed}.json"))
    tracing.print_layers(tracer.spans)
    print(f"spans = {len(tracer.spans)}  traced {sum(v.seconds for v in traced)!r} s / untraced {untraced!r} s")
    return verdicts + traced, metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    pin_threads(args.workload)
    dc, cli = import_program()
    os.makedirs(OUT, exist_ok=True)
    workdir = os.path.join(OUT, f"work-{args.workload}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        import checks
        from workloads import WORKLOADS

        env = environment(args)
        print(f"perfbench workload={args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
        print("env " + " ".join(f"{k}={v!r}" for k, v in env.items()))
        cases = checks.self_test(dc, cli, workdir)
        missed = [name for name, ok in cases if not ok]
        print(f"self-test: {len(cases) - len(missed)}/{len(cases)} cases judged right")
        if missed:
            print(f"error: self-test of the output checks failed: {missed}", file=sys.stderr)
            return 3
        workload = WORKLOADS[args.workload](dc, cli, args.seed, workdir)
        if args.trace:
            verdicts, metrics = traced_run(args, dc, workload)
        else:
            setup = setup_seconds(warm=True)
            _, verdicts = run_rounds(workload, args.seconds)
            setup += setup_seconds(warm=False)
            metrics = end_to_end(args, verdicts, setup, peak_rss(args.workload))
        attempted, failed, failures = run_checks(verdicts)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    correct = not any(kind == "error" for kind, _ in failures)
    for kind, message in failures:
        print(f"failure [{kind}] {message}")
    print(f"failed_frac = {len(failed)}/{attempted} = {len(failed) / attempted!r}")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value!r} {unit}")
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    record = dict(result, env=env, verdict_s=[v.seconds for v in verdicts], failures=failures)
    with open(os.path.join(OUT, f"result-{args.workload}-s{args.seed}-t{args.trace}.json"), "w") as fh:
        json.dump(record, fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
