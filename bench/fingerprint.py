"""Regenerate fingerprints.json: the default seed's results, per workload.

    python3 bench/fingerprint.py

Run it from the root of a checkout, and only in a change that redefines
a workload; a change to the program must match the stored values.
"""

import json
import shutil
import sys

import run


def main():
    run.import_package()
    from workloads import WORKLOADS

    table = {}
    workdir = run.OUT_DIR / "fingerprint"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        for size, tiny in (("full", False), ("tiny", True)):
            table[size] = {}
            for name, cls in WORKLOADS.items():
                wl = cls(run.DEFAULT_SEED, tiny, workdir)
                table[size][name] = {
                    op.name: wl.summarize(op.name, op.call())
                    for op in wl.operations(wl.setup())
                }
                print(f"{size} {name}: {len(table[size][name])} operations", file=sys.stderr)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    with open(run.BENCH / "fingerprints.json", "w", encoding="utf-8") as fh:
        json.dump(table, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
