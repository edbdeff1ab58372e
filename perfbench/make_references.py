"""Regenerate the committed output references in perfbench/references.json.

    python3 perfbench/make_references.py --scale full --seeds 0-30,1000

Each reference is the output digest of one operation of the program at the
commit it was made from (a golden snapshot, not an independent solution):
summary statistics and per-user spectral-efficiency checksums for the
deterministic workloads, and per-technology deterministic checksums, Monte
Carlo population mean and mean standard error for oracle_validate. It also
records, per oracle_validate technology, the standard deviation of the
population mean over oracle seeds on one fixed scenario; the oracle check
sets its tolerance from it. Only a change that is meant to alter outputs
regenerates them, and says so.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
#: Oracle seeds over which the spread of the oracle population means is
#: measured, on the scenario of benchmark seed ORACLE_SD_SCENARIO.
ORACLE_SD_SEEDS = range(1, 21)
ORACLE_SD_SCENARIO = 0


def _seeds(spec: str) -> list[int]:
    seeds = []
    for part in spec.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scale", choices=("full", "smoke"), default="full")
    parser.add_argument("--seeds", required=True, help="e.g. 0-30,1000")
    args = parser.parse_args(argv)

    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path[:0] = [str(HERE), str(SRC)]
    from workloads import REFERENCES, WORKLOADS, digest, make_inputs, run_operation

    refs = json.loads(REFERENCES.read_text()) if REFERENCES.exists() else {}
    table = refs.setdefault(args.scale, {})
    for name in sorted(WORKLOADS):
        workload = WORKLOADS[name]
        for seed in _seeds(args.seeds):
            with tempfile.TemporaryDirectory(dir=HERE.parent) as tmp:
                work = Path(tmp)
                make_inputs(workload, seed, args.scale, work)
                _, done = run_operation(workload, seed, work, work / "out")
                digests, problems = digest(workload, done)
            if problems:
                print(f"{name} seed {seed}: {problems}", file=sys.stderr)
                return 1
            table.setdefault(name, {})[str(seed)] = digests
            print(f"{name} seed {seed}: {digests}", flush=True)
            REFERENCES.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")

    workload = WORKLOADS["oracle_validate"]
    means = []
    with tempfile.TemporaryDirectory(dir=HERE.parent) as tmp:
        work = Path(tmp)
        make_inputs(workload, ORACLE_SD_SCENARIO, args.scale, work)
        for oracle_seed in ORACLE_SD_SEEDS:
            _, done = run_operation(workload, ORACLE_SD_SCENARIO, work, work / "out",
                                    oracle_seed=oracle_seed)
            means.append([d["mc_mean"] for d in digest(workload, done)[0]])
    mean_sd = [statistics.stdev(column) for column in zip(*means)]
    refs.setdefault("oracle_mean_sd", {})[args.scale] = mean_sd
    print(f"oracle population-mean sd over {len(means)} oracle seeds: {mean_sd}")
    REFERENCES.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
