"""Set-up step of one benchmark run, timed in a fresh interpreter.

Imports wlanmodel and writes the workload's scenario file from the seed,
then prints {"seconds": ..., "sha256": ...} on stdout. Run by run.py, with
PYTHONPATH pointing at the checkout's src directory:

    python3 perfbench/make_inputs.py --workload NAME --seed N --scale full --work DIR
"""

import argparse
import json
import sys
from pathlib import Path
from time import perf_counter


def main() -> int:
    start = perf_counter()
    import wlanmodel  # noqa: F401  (the import is part of the set-up time)

    sys.path.insert(0, str(Path(__file__).resolve().parent))
    from workloads import WORKLOADS, make_inputs

    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--scale", required=True, choices=("full", "smoke"))
    parser.add_argument("--work", required=True, type=Path)
    args = parser.parse_args()
    digest = make_inputs(WORKLOADS[args.workload], args.seed, args.scale, args.work)
    print(json.dumps({"seconds": perf_counter() - start, "sha256": digest}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
