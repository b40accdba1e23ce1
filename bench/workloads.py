"""The benchmark workloads: inputs made from the workload seed, one
iteration of work, and the checks on that iteration's outputs.

Every iteration of a run repeats the same inputs, so its fingerprint (the
sha256 of the files it wrote, or of the calibration result) must equal the
first iteration's.  Each workload goes through the module attribute the
traced run wraps (``cli.run_experiment``, ``simloop.calibrate_load``).
"""

from __future__ import annotations

import hashlib
import math
import os
from dataclasses import dataclass, replace
from typing import Callable

from devmimo import cli, simloop
from devmimo.scenario import Case, Ftp3, ScenarioConfig

OUTPUT_FILES = ("records.csv", "summary.json", "loc_results.csv")

# iteration sizes, chosen so a 30 s run holds at least two iterations of
# every workload on a 2-core machine with one BLAS thread
DL_DURATION_S = 0.005        # 10 slots = 2 channel refreshes per seed
UL_DURATION_S = 0.03         # 60 slots = 12 channel refreshes per seed
CAL_DURATION_S = 0.0375      # 75 slots = 3 channel refreshes per drop
CAL_SEEDS = (0, 1)           # criterion-4 calibration seeds
CAL_TARGET_RU = 0.40
CAL_TOL = 0.02
LOC_USERS = 200


@dataclass(frozen=True)
class Iteration:
    """What one iteration produced: its fingerprint and any failed checks."""
    fingerprint: dict
    problems: tuple


@dataclass(frozen=True)
class Workload:
    name: str
    work: float                  # work units per iteration
    work_unit: str               # what one unit is
    inputs: dict                 # the inputs made from the seed (manifest)
    run: Callable[[str], Iteration]   # one iteration in a scratch dir


def _sha256(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _n_slots(cfg: ScenarioConfig) -> int:
    return max(int(round(cfg.sim_duration_s / cfg.slot_s)), 1)


def _finite(x) -> bool:
    return isinstance(x, (int, float)) and math.isfinite(x)


def _run_plan(plan: cli.ExperimentPlan, out_dir: str, check) -> Iteration:
    summary = cli.run_experiment(replace(plan, out_dir=out_dir))
    digests = {f: _sha256(os.path.join(out_dir, f)) for f in OUTPUT_FILES
               if os.path.exists(os.path.join(out_dir, f))}
    return Iteration(digests, tuple(check(summary)))


def _check_arms(summary: dict, case: str, arms: tuple):
    """Both arms present with finite, positive UPT and RU in [0, 1]."""
    cs = summary.get(case, {})
    for arm in arms:
        st = cs.get(arm)
        if st is None:
            yield f"{case}: arm {arm} missing"
            continue
        if st["n_files"] < 1:
            yield f"{case}/{arm}: no completed file"
        for key in ("mean_bps", "p5_bps"):
            if not (_finite(st[key]) and st[key] > 0.0):
                yield f"{case}/{arm}: {key} = {st[key]!r}"
        if not (_finite(st["mean_ru"]) and 0.0 <= st["mean_ru"] <= 1.0):
            yield f"{case}/{arm}: mean_ru = {st['mean_ru']!r}"
    for key in ("gain_cell_edge_pct", "gain_mean_pct"):
        if not _finite(cs.get(key)):
            yield f"{case}: {key} = {cs.get(key)!r}"


def _check_ladder(summary: dict, n_trials: int):
    """Criterion 6: loc1 above 20 deg, loc2 >= 80 % lower, loc3 <= loc2."""
    med = {}
    for case in ("loc1", "loc2", "loc3"):
        st = summary.get(case)
        if st is None:
            yield f"{case} missing"
            return
        if st["n_trials"] != n_trials:
            yield f"{case}: {st['n_trials']} trials, expected {n_trials}"
        med[case] = st["median_aoa_error_deg"]
    if not med["loc1"] > 20.0:
        yield f"loc1 median {med['loc1']:.2f} deg not above 20"
    if not med["loc2"] <= 0.2 * med["loc1"]:
        yield (f"loc2 median {med['loc2']:.2f} deg not 80 % below "
               f"loc1 {med['loc1']:.2f}")
    if not med["loc3"] <= med["loc2"]:
        yield f"loc3 median {med['loc3']:.2f} deg above loc2 {med['loc2']:.2f}"


def dl_diversity(seed: int, tiny: bool) -> Workload:
    """README quick start `--case diversity`, default 2-ring layout."""
    scen = ScenarioConfig(sim_duration_s=DL_DURATION_S)
    if tiny:
        scen = scen.replace(num_rings=0, ues_per_cell=2)
    seeds = (2 * seed, 2 * seed + 1)
    plan = cli.ExperimentPlan(scen, cases=(Case.DIVERSITY,), seeds=seeds)
    return Workload(
        "dl_diversity", _n_slots(scen) * len(seeds), "simulated slots",
        {"drop_seeds": list(seeds), "num_rings": scen.num_rings,
         "ues_per_cell": scen.ues_per_cell, "traffic": "full_buffer",
         "sim_duration_s": scen.sim_duration_s},
        lambda out: _run_plan(plan, out, lambda s: _check_arms(
            s, "diversity", ("baseline", "diversity"))))


def ul_rank(seed: int, tiny: bool) -> Workload:
    """Criterion-5 config: 1 ring, rank, FTP lambda=2, refresh every 5."""
    scen = ScenarioConfig(num_rings=1, ues_per_cell=10,
                          sim_duration_s=UL_DURATION_S,
                          traffic=Ftp3(500_000, 2.0))
    if tiny:
        scen = scen.replace(num_rings=0, ues_per_cell=2)
    seeds = (2 * seed, 2 * seed + 1)
    plan = cli.ExperimentPlan(scen, cases=(Case.RANK_AUG,), seeds=seeds)
    return Workload(
        "ul_rank", _n_slots(scen) * len(seeds), "simulated slots",
        {"drop_seeds": list(seeds), "num_rings": scen.num_rings,
         "ues_per_cell": scen.ues_per_cell, "traffic": "ftp3 500000 B, 2/s",
         "sim_duration_s": scen.sim_duration_s},
        lambda out: _run_plan(plan, out, lambda s: _check_arms(
            s, "rank", ("legacy_2ca", "collab"))))


def calibrate_ftp(seed: int, tiny: bool) -> Workload:
    """Criterion-4 load calibration: 1 ring, baseline arm, FTP, 25-slot
    refresh, target RU 0.40.

    The calibration seeds stay (0, 1) for every workload seed: the number
    of bisection probes, and so the work of an iteration, depends on the
    drop seeds (6 to 11 probes over seed pairs (0, 1) to (10, 11)).
    """
    cfg = ScenarioConfig(num_rings=1, ues_per_cell=10,
                         sim_duration_s=CAL_DURATION_S,
                         channel_update_slots=25, case=Case.BASELINE,
                         traffic=Ftp3(500_000, 1.0))
    if tiny:
        cfg = cfg.replace(num_rings=0, ues_per_cell=2)

    def run(out_dir: str) -> Iteration:
        lam, ru = simloop.calibrate_load(cfg, CAL_TARGET_RU, tol=CAL_TOL,
                                         seeds=CAL_SEEDS)
        problems = []
        if not (_finite(lam) and lam > 0.0):
            problems.append(f"lambda = {lam!r}")
        if not (_finite(ru) and abs(ru - CAL_TARGET_RU) <= CAL_TOL):
            problems.append(f"RU {ru!r} not within {CAL_TOL} of "
                            f"{CAL_TARGET_RU}")
        digest = hashlib.sha256(repr((lam, ru)).encode()).hexdigest()
        return Iteration({"calibration": digest}, tuple(problems))

    return Workload(
        "calibrate_ftp", 1, "calibrations",
        {"drop_seeds": list(CAL_SEEDS), "num_rings": cfg.num_rings,
         "ues_per_cell": cfg.ues_per_cell, "target_ru": CAL_TARGET_RU,
         "tol": CAL_TOL, "sim_duration_s": cfg.sim_duration_s}, run)


def loc_ladder(seed: int, tiny: bool) -> Workload:
    """`--case loc1,loc2,loc3` with 200 users."""
    scen = ScenarioConfig(loc_users=4 if tiny else LOC_USERS)
    plan = cli.ExperimentPlan(scen, cases=(Case.LOC1, Case.LOC2, Case.LOC3),
                              seeds=(seed,))
    n = scen.loc_users
    return Workload(
        "loc_ladder", 3 * n, "localization trials",
        {"loc_seed": seed, "loc_users": n},
        lambda out: _run_plan(plan, out, lambda s: _check_ladder(s, n)))


WORKLOADS = {f.__name__: f for f in (dl_diversity, ul_rank, calibrate_ftp,
                                     loc_ladder)}
