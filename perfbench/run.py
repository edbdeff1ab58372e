"""wlanmodel benchmark: one workload per invocation, closed loop, one client.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs from the root of a source checkout and imports wlanmodel from its
`src` directory. Set-up (import plus scenario generation) is timed in fresh
interpreters; then one warm-up operation runs, then operations run back to
back for `--seconds`; an untraced run repeats the set-up between them.
Each set-up and measured operation is bracketed by a host speed probe
(hostspeed.py), and setup_s and eval_s are medians of times at reference
host speed. Every operation's outputs are checked. The last stdout line is one JSON
object: {"correct", "attempted", "failed", "metrics"}; `--trace 0` reports the end-to-end metrics and `--trace 1` the
per-layer ones from a separate traced run. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
from contextlib import nullcontext
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

#: BLAS threads for every process the benchmark runs (at most nproc).
BLAS_THREADS = 1
#: Set-ups per untraced run; setup_s is their median. After the first, they
#: run one after each operation, outside the measured window, so that they
#: sample the host's slow and fast stretches as the operations do.
SETUP_REPEATS = 7
#: No new operation starts after this many seconds of the whole run, so a
#: slowed program still ends well inside the 180 s a run may take.
HARD_STOP_S = 120.0


def _blas_env() -> dict[str, str]:
    n = str(min(BLAS_THREADS, os.cpu_count() or 1))
    return {k: n for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}


def _log(msg: str) -> None:
    print(msg, file=sys.stderr, flush=True)


def _setup(workload: str, seed: int, scale: str, work: Path) -> tuple[float, str]:
    """Run the set-up once in a fresh interpreter; return its time and the
    scenario file's hash."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run(
        [sys.executable, str(HERE / "make_inputs.py"), "--workload", workload,
         "--seed", str(seed), "--scale", scale, "--work", str(work)],
        env=env, capture_output=True, text=True, timeout=120, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up failed:\n{proc.stderr}")
    record = json.loads(proc.stdout.strip().splitlines()[-1])
    return record["seconds"], record["sha256"]


def _profile_key(profile: dict, call_counted) -> dict:
    """The parts of an operation's profile that must repeat exactly."""
    return {"counts": profile["counts"], "details": profile["details"],
            "calls": {k: profile["calls"].get(k, 0) for k in call_counted}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "smoke"), default="full",
                        help="smoke: tiny inputs for the benchmark's own test")
    args = parser.parse_args(argv)

    if not (SRC / "wlanmodel" / "__init__.py").is_file():
        _log(f"error: no wlanmodel sources under {SRC}; run from a source checkout")
        return 2
    os.environ.update(_blas_env())
    os.environ.pop("WLANMODEL_THREADS", None)   # no sweep thread pool
    sys.path.insert(0, str(HERE))
    from hostspeed import REFERENCE_S, probe, scaled
    from workloads import WORKLOADS, Checker, load_references

    if args.workload not in WORKLOADS:
        _log(f"error: unknown workload {args.workload!r} (choose from {sorted(WORKLOADS)})")
        return 2
    workload = WORKLOADS[args.workload]
    work = WORK / workload.name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    probe()   # the first pass pays numpy's lazy set-up
    probes = [probe()]

    def rescale(elapsed: float) -> float:
        """`elapsed` at reference host speed, from the last probe and a new one."""
        probes.append(probe())
        return scaled(elapsed, probes[-2], probes[-1])

    setup_wall, setup_hash = _setup(workload.name, args.seed, args.scale, work)
    # Set-up wall seconds, and the same at reference host speed.
    setup_walls, setup_times = [setup_wall], [rescale(setup_wall)]
    setup_repeats = 1 if args.trace else SETUP_REPEATS

    def repeat_setup() -> float:
        """One more set-up; the same seed must give the same scenario file.
        Returns the wall time it took, probe included."""
        start = perf_counter()
        seconds, sha256 = _setup(workload.name, args.seed, args.scale, work)
        if sha256 != setup_hash:
            raise RuntimeError("the same seed generated different scenario files")
        setup_walls.append(seconds)
        setup_times.append(rescale(seconds))
        return perf_counter() - start

    sys.path.insert(0, str(SRC))
    import wlanmodel
    if not Path(wlanmodel.__file__).resolve().is_relative_to(SRC):
        _log(f"error: imported wlanmodel from {wlanmodel.__file__}, not {SRC}")
        return 2
    from spans import CALL_COUNTED, COUNTS, SELF_TIMED, SPAN_NAMES, DenseGuard, Tracer
    from workloads import run_operation

    references, mean_sd = load_references(args.scale, workload)
    reference = references.get(str(args.seed))
    checker = Checker(workload, reference, mean_sd)
    guard = DenseGuard()
    tracer = Tracer()
    out = work / "out"
    state = {"attempted": 0, "failed": 0, "first_profile": None}
    # Wall seconds per successful measured operation, and the same at the
    # reference host speed (hostspeed.py); keyed by whether it was traced.
    walls: dict[bool, list[float]] = {False: [], True: []}
    timed: dict[bool, list[float]] = {False: [], True: []}
    profiles: list[dict] = []

    def operation(traced: bool, measured: bool) -> float | None:
        """Run and check one operation; its wall seconds, or None if it failed."""
        state["attempted"] += 1
        op = state["attempted"]
        try:
            with tracer.operation(op) if traced else nullcontext():
                elapsed, done = run_operation(workload, args.seed, work, out)
            problems = checker.check(done)
        except Exception as exc:  # recorded as a failed operation
            if guard.refused:
                raise
            elapsed, problems = None, [f"{type(exc).__name__}: {exc}"]
        if traced and elapsed is not None:
            profile = tracer.op_profile(op)
            key = _profile_key(profile, CALL_COUNTED)
            if state["first_profile"] is None:
                state["first_profile"] = key
            elif key != state["first_profile"]:
                problems.append("work counts differ from the run's first traced operation")
        if problems:
            state["failed"] += 1
            for p in problems:
                _log(f"operation {op}: {p}")
            return None
        if traced and measured:
            profiles.append({**profile, "wall": elapsed})
        return elapsed

    run_start = perf_counter()
    try:
        with guard.installed():
            start = perf_counter()
            operation(traced=bool(args.trace), measured=False)   # warm-up
            last_op = perf_counter() - start
            peak_mem_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            probes.append(probe())   # the warm-up ran since the last one
            loop_start = perf_counter()
            traced_next = False
            while True:
                missing = not timed[False] or (args.trace and not timed[True])
                # Start an operation only if it should end inside the window.
                finish = perf_counter() - loop_start + last_op
                if not missing and (finish > args.seconds
                                    or perf_counter() - run_start >= HARD_STOP_S):
                    break
                if missing and state["failed"] >= 3:
                    break
                start = perf_counter()
                elapsed = operation(traced=traced_next, measured=True)
                at_reference = rescale(elapsed or 0.0)
                last_op = perf_counter() - start
                if elapsed is not None:
                    walls[traced_next].append(elapsed)
                    timed[traced_next].append(at_reference)
                if args.trace:
                    traced_next = not traced_next
                if len(setup_times) < setup_repeats:
                    loop_start += repeat_setup()   # outside the window
            while len(setup_times) < setup_repeats:
                repeat_setup()
    except Exception:
        if guard.refused:
            _log(f"error: refused workload {workload.name}: {guard.refused}")
            return 3
        raise

    if not timed[False] or (args.trace and not timed[True]):
        _log("error: no operation completed successfully")
        return 1

    eval_s = statistics.median(timed[False])
    metrics: dict[str, dict] = {}

    def put(name, value, unit):
        metrics[name] = {"value": value, "unit": unit}

    if not args.trace:
        put("setup_s", statistics.median(setup_times), "s")
        put("eval_s", eval_s, "s")
        put("peak_mem_mb", peak_mem_mb, "MB")
    else:
        absent = tracer.absent_spans()
        def med(part, name):
            return float(statistics.median(p[part][name] for p in profiles))
        for name in SPAN_NAMES:
            if name in absent:
                continue
            put(f"{name}_s", med("busy", name), "s")
            if name in SELF_TIMED:
                put(f"{name}_self_s", med("self", name), "s")
            if name in CALL_COUNTED:
                put(f"{name}_calls", profiles[0]["calls"][name], "count")
        counts = profiles[0]["counts"]
        for name, sources in COUNTS.items():
            if not absent.issuperset(sources) and tracer.uncounted.isdisjoint(sources):
                put(name, counts.get(name, 0), "bytes" if name.endswith("bytes") else "count")
        std_errors = {}
        if workload.validate:
            std_errors = {f"oracle.{r['technology']}_std_error": d["mc_std_error"]
                          for r, d in zip(workload.runs, checker.first)}
        for tech in ("su_beamforming", "concentrated_mu_mimo", "distributed_mu_mimo"):
            put(f"oracle.{tech}_std_error",
                std_errors.get(f"oracle.{tech}_std_error", 0.0), "bit/s/Hz")
        put("trace.overhead_s", statistics.median(timed[True]) - eval_s, "s")
        put("trace.attributed_share",
            statistics.median(p["attributed"] / p["wall"] for p in profiles), "ratio")
        if absent or tracer.uncounted:
            _log(f"absent spans (function renamed or removed): {sorted(absent)}; "
                 f"spans whose work counts no longer fit: {sorted(tracer.uncounted)}")

    n_samples = len(timed[True]) if args.trace else len(timed[False])
    print(f"# {workload.name} seed={args.seed} scale={args.scale} trace={args.trace} "
          f"samples={n_samples} untraced_samples={len(timed[False])} "
          f"error_rate={state['failed']}/{state['attempted']} "
          f"reference={'yes' if reference is not None else 'no'} "
          f"blas_threads={_blas_env()['OPENBLAS_NUM_THREADS']}")
    print("# operation wall seconds: " + " ".join(
        f"{t:.3f}" for t in walls[bool(args.trace)]))
    print("# operation seconds at reference speed: " + " ".join(
        f"{t:.3f}" for t in timed[bool(args.trace)]))
    print(f"# host probe seconds: median {statistics.median(probes):.3f} "
          f"min {min(probes):.3f} max {max(probes):.3f} (reference {REFERENCE_S})")
    if not args.trace:
        print("# set-up wall seconds: " + " ".join(f"{t:.3f}" for t in setup_walls))
        print("# set-up seconds at reference speed: " + " ".join(
            f"{t:.3f}" for t in setup_times))
    if args.trace:
        print("# detail " + json.dumps(profiles[0]["details"], sort_keys=True))
    print(json.dumps({"correct": state["failed"] == 0, "attempted": state["attempted"],
                      "failed": state["failed"], "metrics": metrics}))
    return 0 if state["failed"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
