"""Self-test of the benchmark itself.

    python3 bench/selftest.py

Run it from the root of a checkout.  It runs every workload at its tiny
size, untraced and traced, and checks that the result line carries
exactly the metrics BENCHMARK.json names, each with its unit, and that
every metric is also printed by name.  It then shows that the gate
catches a wrong result (shifted stored fingerprints must give an
error rate of 1.0), that a second seed passes the oracle and descent
checks, and that the command fails without printing a result in a
directory holding only BENCHMARK.json and the benchmark's files.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def bench(*args, cwd=ROOT):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    cmd = spec["command"] + list(args)
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


def result_of(proc):
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]) if lines else None


def printed_metrics(proc):
    out = {}
    for line in proc.stdout.splitlines():
        if line.startswith("metric "):
            name, value, unit = line.split()[1:4]
            out[name] = (float(value), unit)
    return out


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    failures = []

    def check(ok, message):
        print(("ok   " if ok else "FAIL ") + message)
        if not ok:
            failures.append(message)

    for workload in (w["name"] for w in spec["workloads"]):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            proc = bench("--workload", workload, "--seed", "0", "--seconds", "1",
                         "--trace", str(trace), "--tiny")
            res = result_of(proc)
            label = f"{workload} trace {trace}"
            check(proc.returncode == 0 and res is not None, f"{label}: exits 0 with a result")
            if res is None:
                continue
            check(set(res) == {"correct", "attempted", "failed", "metrics"},
                  f"{label}: result has exactly correct/attempted/failed/metrics")
            check(res["correct"] and res["failed"] == 0 and res["attempted"] >= 1,
                  f"{label}: correct, with no failed operation")
            wanted = {m["name"]: m["unit"] for m in spec[key]}
            got = {name: m["unit"] for name, m in res["metrics"].items()}
            check(got == wanted, f"{label}: metrics and units match BENCHMARK.json {key}")
            printed = printed_metrics(proc)
            check(all(printed.get(n, (0, None))[1] == u for n, u in wanted.items()),
                  f"{label}: every metric printed by name with its unit")
            check(printed.get("error_rate") == (0.0, "ratio"), f"{label}: error_rate 0 printed")

        proc = bench("--workload", workload, "--seed", "0", "--seconds", "1", "--tiny",
                     "--perturb-fingerprints")
        res = result_of(proc)
        check(res is not None and not res["correct"] and res["failed"] == res["attempted"]
              and printed_metrics(proc).get("error_rate") == (1.0, "ratio"),
              f"{workload}: shifted fingerprints give error_rate 1.0")

        proc = bench("--workload", workload, "--seed", "1", "--seconds", "1", "--tiny")
        res = result_of(proc)
        check(res is not None and res["correct"],
              f"{workload}: seed 1 passes the oracle, descent and repeat checks")

    bare = ROOT / ".bench_out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in spec["paths"]:
        shutil.copytree(ROOT / path, bare / path, ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", spec["workloads"][0]["name"], "--seed", "0", "--seconds", "1",
                 "--trace", "0", cwd=bare)
    shutil.rmtree(bare, ignore_errors=True)
    check(proc.returncode != 0 and not proc.stdout.strip(),
          "without the package source: nonzero exit and no result")

    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
