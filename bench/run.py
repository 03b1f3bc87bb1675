"""Run one benchmark workload and print its metrics.

    python3 bench/run.py --workload ising_diag_exact --seed 0 --seconds 10 --trace 0

Run it from the root of a checkout; it imports the package from `src/`.
The process is one closed loop: it sets the workload up several times
(reporting the median as `setup_s`), then runs passes over the
workload's operations back to back, each call waiting for the previous
one, until `--seconds` have elapsed.  With `--trace 1` it instead splits
the time between untraced passes and traced ones and reports the
per-layer metrics of the traced pass with the median wall time.

Outputs are checked outside the timed sections: every operation against
the first pass (runs are deterministic), the first layers of one run per
workload against the dense oracle in `oracle.py`, V descent on the
diagonal workload, and, for the default seed, the fingerprints stored in
`fingerprints.json`.  The last line of standard output is one JSON
object: {"correct", "attempted", "failed", "metrics"}.
"""

import os

# Pin BLAS before numpy loads: the dense eigh in set-up varied twofold
# with the library's default thread count on a 2-core machine.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT_DIR = ROOT / ".bench_out"
DEFAULT_SEED = 0
FINGERPRINT_TOL = 1e-8
REPEAT_TOL = 1e-10
# Time the calibration kernel takes on an unloaded machine: times are
# reported in seconds at that host speed (see `calibrate`).
CALIBRATION_REF_S = 0.025

END_TO_END_UNITS = {
    "layers_per_s": "1/s",
    "time_to_solution_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


class BenchError(Exception):
    """The benchmark cannot run in this directory."""


def import_package():
    src = ROOT / "src"
    if not (src / "feedbackq" / "__init__.py").is_file():
        raise BenchError(f"no package source at {src / 'feedbackq'}")
    sys.path.insert(0, str(src))
    import feedbackq

    if Path(feedbackq.__file__).resolve().parent != src / "feedbackq":
        raise BenchError(f"imported feedbackq from {feedbackq.__file__}, not {src}")
    return feedbackq


def _read(path, default=""):
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError:
        return default


def machine_record():
    """What the numbers were measured on, including the BLAS thread pin."""
    import ctypes

    import numpy as np

    model = platform.processor() or platform.machine()
    for line in _read("/proc/cpuinfo").splitlines():
        if line.startswith("model name"):
            model = line.split(":", 1)[1].strip()
            break
    caches = {}
    cache_dir = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(cache_dir.glob("index*")):
        level = _read(index / "level").strip()
        kind = _read(index / "type").strip()
        if level in ("2", "3") and kind in ("Unified", "Data"):
            caches[f"L{level}"] = _read(index / "size").strip()
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    for line in _read("/proc/self/maps").splitlines():
        if "openblas" in line:
            lib = ctypes.CDLL(line.split()[-1])
            for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
                if hasattr(lib, symbol):
                    threads = int(getattr(lib, symbol)())
                    break
            break
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "l2_per_core": caches.get("L2"),
        "l3": caches.get("L3"),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": threads,
        "blas_threads_pinned": BLAS_THREADS,
    }


def calibrate():
    """Time a fixed, package-independent kernel of the same kind as a layer.

    The benchmark shares its host with other tenants, and the host's
    speed changes by up to 1.8x for seconds at a time: raw operation
    times of one run varied with an interquartile range of 38% of their
    median.  Every timed call is therefore bracketed by this kernel (a
    Python loop of gathers, products and reductions over 1024 complex
    amplitudes, as in a 10-qubit layer), and its time is scaled by
    CALIBRATION_REF_S over the mean of the two kernel times around it.
    That cancels the host's speed of the moment and keeps the program's
    own cost; the same run's per-call ratios varied by 8%.
    """
    import numpy as np

    rng = np.random.default_rng(12345)
    amps = rng.standard_normal(1024) + 1j * rng.standard_normal(1024)
    perm = rng.permutation(1024)
    sign = 1.0 - 2.0 * (perm & 1)
    t0 = time.perf_counter()
    acc = 0j
    for _ in range(6000):
        acc += np.vdot(amps, amps[perm] * sign)
    return time.perf_counter() - t0


class Bracketed:
    """Times calls between calibration kernels; see `calibrate`."""

    def __init__(self):
        self.kernel = calibrate()
        self.raw = []
        self.scaled = []

    def __call__(self, fn):
        t0 = time.perf_counter()
        try:
            return fn()
        finally:
            elapsed = time.perf_counter() - t0
            before, self.kernel = self.kernel, calibrate()
            self.raw.append(elapsed)
            self.scaled.append(elapsed * CALIBRATION_REF_S * 2.0 / (before + self.kernel))


class OpResult:
    __slots__ = ("name", "raw", "summary", "failures")

    def __init__(self, name, raw, failures):
        self.name = name
        self.raw = raw
        self.summary = None
        self.failures = failures


class Pass:
    def __init__(self, raw_s, op_s, layers, results, snap=None):
        self.raw_s = raw_s  # seconds as measured
        self.op_s = op_s  # per operation, seconds at the calibration host speed
        self.wall = sum(op_s)
        self.layers = layers
        self.results = results
        self.snap = snap


def typical_pass_s(passes):
    """Sum over operations of each operation's median calibrated time.

    Per-operation medians filter the host's speed changes better than the
    median of whole passes: over repeated 20 s runs of the CLI workload,
    the quartile spread was 5% against 8%.
    """
    return sum(statistics.median(times) for times in zip(*(p.op_s for p in passes)))


def run_passes(wl, inputs, seconds, counter, tracer=None):
    """Closed loop: whole passes over the operations until `seconds` elapse."""
    ops = wl.operations(inputs)
    passes = []
    timer = Bracketed()
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        layers0 = counter.layers
        first = len(timer.raw)
        results = []
        for op in ops:
            try:
                raw, failures = timer(op.call), []
            except Exception as exc:  # a failed operation is counted, not fatal
                raw, failures = None, [f"raised {type(exc).__name__}: {exc}"]
            results.append(OpResult(op.name, raw, failures))
        layers = counter.layers - layers0
        for res in results:
            if res.failures:
                continue
            try:
                res.summary = wl.summarize(res.name, res.raw)
                res.failures += wl.check(res.name, res.raw)
                if tracer is not None:
                    for key, value in wl.op_counts(res.name, res.raw).items():
                        tracer.counts[key] += value
            except Exception as exc:
                res.failures.append(f"output unreadable: {type(exc).__name__}: {exc}")
        passes.append(Pass(sum(timer.raw[first:]), timer.scaled[first:], layers, results,
                           tracer.snapshot() if tracer else None))
    return passes


def _differs(a, b, tol):
    if a.keys() != b.keys():
        return sorted(set(a) ^ set(b))
    return [k for k in a if abs(a[k] - b[k]) > tol * max(1.0, abs(b[k]))]


def gate(wl, inputs, passes, fingerprints):
    """Attach every failed check to the operations it concerns."""
    results = [res for p in passes for res in p.results]
    reference = {}
    for res in results:
        if res.summary is not None:
            reference.setdefault(res.name, res)
    for res in results:
        ref = reference.get(res.name)
        if res.summary is None or ref is None:
            continue
        bad = _differs(res.summary, ref.summary, REPEAT_TOL)
        if bad:
            res.failures.append(f"repeat: differs from the first pass in {bad}")
        if fingerprints is not None:
            stored = fingerprints.get(res.name)
            bad = ["missing"] if stored is None else _differs(res.summary, stored, FINGERPRINT_TOL)
            if bad:
                res.failures.append(f"fingerprint: differs from fingerprints.json in {bad}")
    try:
        oracle_failures = wl.oracle_failures(
            inputs,
            {name: res.raw for name, res in reference.items()},
            {name: res.summary for name, res in reference.items()},
        )
    except Exception as exc:
        oracle_failures = {op.name: [f"oracle raised {type(exc).__name__}: {exc}"]
                           for op in wl.operations(inputs)}
    for res in results:
        res.failures += oracle_failures.get(res.name, [])
    return results


def load_fingerprints(workload, tiny, seed, perturb):
    if seed != DEFAULT_SEED:
        return None
    with open(BENCH / "fingerprints.json", encoding="utf-8") as fh:
        table = json.load(fh)["tiny" if tiny else "full"].get(workload)
    if table is not None and perturb:
        table = {op: {k: v + 1e-6 * max(1.0, abs(v)) for k, v in fp.items()}
                 for op, fp in table.items()}
    return table


def median_pass(passes):
    walls = sorted(p.wall for p in passes)
    mid = walls[(len(walls) - 1) // 2]
    return next(p for p in passes if p.wall == mid)


def traced_metrics(args, passes, traced, setup_snap):
    """Per-layer metrics of the median traced pass plus the traced set-up.

    Returns (metrics, units, self-check failures) and writes the trace file.
    """
    import tracer as tracing

    import feedbackq.pauli

    walls = [p.wall for p in passes]
    overhead = typical_pass_s(traced) / typical_pass_s(passes) - 1.0
    chosen = median_pass(traced)
    counts = [tracing.work_counts(p.snap) for p in traced]
    problems = [] if all(c == counts[0] for c in counts) else ["traced passes did different work"]
    problems += tracing.selfcheck(chosen.snap, feedbackq.pauli.commutator_i)
    merged = tracing.merge(setup_snap, chosen.snap)
    per_layer = tracing.per_layer_metrics(merged, overhead)
    metrics = {name: value for name, (value, _) in per_layer.items()}
    units = {name: unit for name, (_, unit) in per_layer.items()}
    spans = tracing.detail(merged)
    for name, (calls, secs) in spans.items():
        print(f"span {name} calls {calls} self_s {secs!r}")
    for message in problems:
        print(f"trace self-check FAILED: {message}", file=sys.stderr)
    record = {"workload": args.workload, "seed": args.seed, "tiny": args.tiny,
              "traced_pass_s": [p.wall for p in traced], "untraced_pass_s": walls,
              "per_layer": per_layer, "spans": spans, "setup_spans": tracing.detail(setup_snap),
              "selfcheck_failures": problems}
    OUT_DIR.mkdir(exist_ok=True)
    trace_path = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json"
    with open(trace_path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    print(f"wrote {trace_path}")
    return metrics, units, problems


def bench(args, workdir):
    import tracer as tracing
    from workloads import WORKLOADS

    wl = WORKLOADS[args.workload](args.seed, args.tiny, workdir)
    fingerprints = load_fingerprints(args.workload, args.tiny, args.seed,
                                     args.perturb_fingerprints)

    setup_timer = Bracketed()
    for _ in range(wl.setup_reps):
        inputs = setup_timer(wl.setup)
    setup_s = statistics.median(setup_timer.scaled)

    counter = tracing.LayerCounter()
    counter.install()
    traced = []
    try:
        if args.trace:
            passes = run_passes(wl, inputs, args.seconds / 2, counter)
            tracer = tracing.Tracer()
            tracer.install()
            try:
                traced_inputs = wl.setup()
                setup_snap = tracer.snapshot()
                traced = run_passes(wl, traced_inputs, args.seconds / 2, counter, tracer)
            finally:
                tracer.restore()
        else:
            passes = run_passes(wl, inputs, args.seconds, counter)
    finally:
        counter.restore()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    results = gate(wl, inputs, passes + traced, fingerprints)
    failed = [res for res in results if res.failures]
    for res in failed:
        for message in res.failures:
            print(f"check FAILED {res.name}: {message}", file=sys.stderr)
    error_rate = len(failed) / len(results)
    print(f"workload {args.workload} seed {args.seed} tiny {int(args.tiny)} "
          f"passes {len(passes)} ops {len(results)} setup_reps {wl.setup_reps}")
    print(f"metric error_rate {error_rate!r} ratio (failed {len(failed)} of {len(results)})")
    print(f"raw setup_s {statistics.median(setup_timer.raw)!r} "
          f"pass_s {statistics.median(p.raw_s for p in passes)!r}")

    if not args.trace:
        pass_s = typical_pass_s(passes)
        metrics = {
            "layers_per_s": statistics.median(p.layers for p in passes) / pass_s,
            "time_to_solution_s": setup_s + pass_s,
            "setup_s": setup_s,
            "peak_rss_mb": peak_rss_mb,
        }
        units, problems = END_TO_END_UNITS, []
    else:
        metrics, units, problems = traced_metrics(args, passes, traced, setup_snap)

    for name, value in metrics.items():
        print(f"metric {name} {value!r} {units[name]}")
    return {
        "correct": not failed and not problems,
        "attempted": len(results),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="self-test sizes: seconds-long runs of every workload")
    parser.add_argument("--perturb-fingerprints", action="store_true",
                        help="self-test: shift the stored fingerprints so every check fails")
    args = parser.parse_args(argv)
    try:
        import_package()
    except (BenchError, ImportError) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"bench: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    print("machine " + json.dumps(machine_record(), sort_keys=True))
    workdir = OUT_DIR / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        result = bench(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
