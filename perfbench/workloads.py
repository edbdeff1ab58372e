"""Workload definitions, input generation, one operation, and output checks.

Each workload fixes a deployment (AP layout, shadowing draw, channel plan
seed) so its contention chain and therefore its work are the same for every
benchmark seed; the seed draws the user positions and the oracle's fading.
The package is imported lazily so that its import time can be measured.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

#: Relative tolerance for deterministic outputs against their references.
REL_TOL = 1e-9
#: Oracle population means may differ from the reference by this many
#: standard deviations of their difference. The deviation is measured, not
#: bounded: make_references.py records the spread of each technology's
#: population mean over oracle seeds on one fixed scenario, and two
#: independent orderings of the draws differ by sqrt(2) times it. So a
#: change that only reorders draws is not a failure, and at full scale a
#: bias of 1% is.
ORACLE_Z = 4.0
#: The oracle's mean per-user standard error may grow by at most this share
#: over the reference at the fixed realization count.
ORACLE_SE_GROWTH = 0.25

REFERENCES = Path(__file__).with_name("references.json")


@dataclass(frozen=True)
class Workload:
    name: str
    generator: str
    n_aps: int
    n_users: int
    runs: tuple[dict, ...]          # RunConfig fields, one per pipeline call
    validate: bool = False          # mc_validate instead of evaluate
    smoke: tuple[int, int] = (8, 40)

    def sizes(self, scale: str) -> tuple[int, int]:
        return (self.n_aps, self.n_users) if scale == "full" else self.smoke


WORKLOADS = {w.name: w for w in (
    Workload(
        "contended_su", "stadium", 160, 160,
        ({"technology": "su_beamforming", "channelization": "4x20",
          "cca_db": 10.0, "rho": 100.0, "rate_mode": "gaussian"},),
        smoke=(24, 24)),
    Workload(
        "oracle_validate", "open_floor", 20, 200,
        ({"technology": "su_beamforming", "channelization": "4x20"},
         {"technology": "concentrated_mu_mimo", "channelization": "4x20"},
         {"technology": "distributed_mu_mimo", "channelization": "4x20",
          "n_clusters": 4}),
        validate=True, smoke=(8, 40)),
)}


def scenario_path(work: Path, workload: Workload) -> Path:
    return work / f"{workload.name}.scenario.json"


def make_inputs(workload: Workload, seed: int, scale: str, work: Path) -> str:
    """Generate the workload's scenario file from the seed; return its hash."""
    from wlanmodel.scenario import GENERATORS

    n_aps, n_users = workload.sizes(scale)
    path = scenario_path(work, workload)
    GENERATORS[workload.generator](n_aps, n_users, seed).save(str(path))
    return hashlib.sha256(path.read_bytes()).hexdigest()


def run_operation(workload: Workload, seed: int, work: Path, out: Path,
                  oracle_seed: int | None = None):
    """One operation: load the scenario file, run the pipeline, write outputs.

    The oracle's fading seed is the benchmark seed unless `oracle_seed` is
    given. Returns (wall seconds, list of (pipeline result, output dir)).
    """
    from wlanmodel import pipeline

    oracle = seed if oracle_seed is None else oracle_seed
    start = perf_counter()
    done = []
    for i, fields in enumerate(workload.runs):
        config = pipeline.RunConfig(
            scenario={"file": str(scenario_path(work, workload))},
            seeds=pipeline.Seeds(topology=seed, oracle=oracle), **fields)
        run_dir = out / f"run{i}"
        if workload.validate:
            result = pipeline.mc_validate(config)
            pipeline.write_validation(result, run_dir)
        else:
            result = pipeline.evaluate(config)
            pipeline.write_report(result, run_dir)
        done.append((result, run_dir))
    return perf_counter() - start, done


# ---------------------------------------------------------------------------
# Output digests and checks

def _checksums(values) -> tuple[float, float]:
    """Plain and position-weighted sums, so a permutation of users shows."""
    n = len(values)
    plain = math.fsum(float(v) for v in values)
    weighted = math.fsum((k + 1) * float(v) for k, v in enumerate(values)) / n
    return plain, weighted


def _csv_rows(path: Path) -> list[list[str]]:
    with open(path, newline="") as fh:
        lines = [ln for ln in fh if not ln.startswith("#")]
    return list(csv.reader(lines))[1:]


def _close(a: float, b: float, rel: float = REL_TOL) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b))


def digest(workload: Workload, done) -> tuple[list[dict], list[str]]:
    """Per-call output digest from memory, after checking the written files
    agree with it. Returns (digests, problems)."""
    digests, problems = [], []
    for i, (result, run_dir) in enumerate(done):
        if workload.validate:
            det, mc = result.det_rates, result.mc_rates
            se = result.oracle_report.std_error
            d = {"n": int(det.size),
                 "det_se_sum": _checksums(det)[0], "det_se_wsum": _checksums(det)[1],
                 "mc_mean": float(mc.mean()), "mc_std_error": float(se.mean())}
            summary = json.loads((run_dir / "validation_summary.json").read_text())
            if not (_close(summary["mean_deterministic_bps_hz"], float(det.mean()))
                    and _close(summary["mean_monte_carlo_bps_hz"], d["mc_mean"])):
                problems.append(f"run{i}: validation_summary.json disagrees with result")
            rows = _csv_rows(run_dir / "comparison.csv")
            file_sum = math.fsum(float(r[1]) for r in rows)
        else:
            report = result.report
            d = {k: float(report.summary[k]) for k in ("mean", "median", "p5", "outage")}
            d["n"] = int(report.spectral_efficiency.size)
            d["se_sum"], d["se_wsum"] = _checksums(report.spectral_efficiency)
            summary = json.loads((run_dir / "summary.json").read_text())["summary"]
            if any(summary[k] != report.summary[k] for k in ("mean", "median", "p5", "outage")):
                problems.append(f"run{i}: summary.json disagrees with result")
            rows = _csv_rows(run_dir / "report.csv")
            file_sum = math.fsum(float(r[2]) for r in rows)
        if len(rows) != d["n"]:
            problems.append(f"run{i}: {len(rows)} output rows for {d['n']} users")
        plain = d["det_se_sum"] if workload.validate else d["se_sum"]
        if not _close(file_sum, plain, 1e-8):
            problems.append(f"run{i}: written spectral efficiencies sum to "
                            f"{file_sum!r}, result to {plain!r}")
        digests.append(d)
    return digests, problems


def compare(workload: Workload, got: list[dict], want: list[dict],
            label: str, mean_sd: list[float]) -> list[str]:
    """Problems found comparing digests against a reference (or a repeat).

    `mean_sd` is the measured spread of each pipeline call's oracle
    population mean (see ORACLE_Z); deterministic workloads ignore it.
    """
    if len(got) != len(want):
        return [f"{label}: {len(got)} pipeline calls, reference has {len(want)}"]
    problems = []
    for i, (g, w) in enumerate(zip(got, want)):
        for key, ref in w.items():
            val = g[key]
            if key == "n":
                ok = val == ref
            elif key == "mc_mean":
                ok = abs(val - ref) <= ORACLE_Z * math.sqrt(2.0) * mean_sd[i]
            elif key == "mc_std_error":
                ok = val <= (1.0 + ORACLE_SE_GROWTH) * ref
            else:
                ok = _close(val, ref)
            if not ok:
                problems.append(f"{label} run{i}: {key} = {val!r}, expected {ref!r}")
    return problems


def load_references(scale: str, workload: Workload) -> tuple[dict, list[float]]:
    """The committed digests by seed, and the measured spread of each oracle
    population mean (empty for deterministic workloads)."""
    refs = json.loads(REFERENCES.read_text())
    mean_sd = refs["oracle_mean_sd"][scale] if workload.validate else []
    return refs[scale][workload.name], mean_sd


@dataclass
class Checker:
    """Checks every operation against the committed reference for this seed
    (when one exists) and against the run's first operation."""

    workload: Workload
    reference: list[dict] | None
    mean_sd: list[float]
    first: list[dict] | None = None

    def check(self, done) -> list[str]:
        got, problems = digest(self.workload, done)
        if self.reference is not None:
            problems += compare(self.workload, got, self.reference, "reference",
                                self.mean_sd)
        if self.first is None:
            self.first = got
        else:
            problems += compare(self.workload, got, self.first, "repeat", self.mean_sd)
        return problems
