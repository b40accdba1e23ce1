"""Command-line front end: config parsing, experiment driver, summaries.

Config files are plain ``key = value`` lines (``#`` comments allowed).
Outputs are byte-deterministic for a given plan.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
from dataclasses import dataclass, fields, replace

import numpy as np

from . import localization, simloop
from .errors import ConfigurationError
from .scenario import Case, Ftp3, FullBuffer, ScenarioConfig

_CASE_NAMES = {c.value: c for c in Case}

# config-file key -> (ScenarioConfig attribute, parse type): every int, float
# or str field under its own name, except isd (isd_m); field types are
# strings because scenario postpones annotations
_PARSE = {"int": int, "float": float, "str": str}
_KEYS = {("isd_m" if f.name == "isd" else f.name): (f.name, _PARSE[f.type])
         for f in fields(ScenarioConfig) if f.type in _PARSE}
_ATTR_TO_KEY = {attr: key for key, (attr, _) in _KEYS.items()}
_ATTR_TO_KEY.update(file_bytes="ftp3_file_bytes",
                    lambda_per_s="ftp3_lambda_per_s")


@dataclass(frozen=True)
class ExperimentPlan:
    """One experiment: a scenario, the cases to run, and the seed list."""
    scenario: ScenarioConfig
    cases: tuple = (Case.BASELINE,)
    seeds: tuple = (0,)
    out_dir: str = "results"

    def __post_init__(self):
        if len(self.cases) < 1 or len(self.seeds) < 1:
            raise ConfigurationError("plan needs >= 1 case and >= 1 seed")
        if (case := _first_repeat(self.cases)) is not None:
            raise ConfigurationError(f"case {case.value!r} repeats")
        try:
            _check_seeds(self.seeds)
        except ValueError as exc:
            raise ConfigurationError(str(exc)) from None


def _first_repeat(items: tuple):
    """The first item met a second time, or None."""
    return next((x for i, x in enumerate(items) if x in items[:i]), None)


def _check_seeds(seeds: tuple) -> None:
    """ValueError naming the first seed that is not an integer >= 0 (the
    range np.random.SeedSequence takes), or the first one that repeats."""
    for seed in seeds:
        if not isinstance(seed, (int, np.integer)) or seed < 0:
            raise ValueError(f"seed {seed!r} is not an integer >= 0")
    if (seed := _first_repeat(seeds)) is not None:
        raise ValueError(f"seed {seed} repeats")


def parse_cases(spec: str) -> tuple:
    cases = []
    for name in spec.split(","):
        name = name.strip()
        if name not in _CASE_NAMES:
            raise ConfigurationError(f"unknown case {name!r}")
        if _CASE_NAMES[name] in cases:
            raise ConfigurationError(f"case {name!r} repeats")
        cases.append(_CASE_NAMES[name])
    return tuple(cases)


def parse_seeds(spec: str) -> tuple:
    """Comma-separated drop seeds, checked as `_check_seeds` does."""
    try:
        seeds = tuple(int(t) for t in spec.split(","))
    except ValueError:
        raise ValueError("seeds must be integers") from None
    _check_seeds(seeds)
    return seeds


def parse_config(path: str) -> ExperimentPlan:
    """Read a key=value config file into an ExperimentPlan.

    Unknown keys are rejected by name with their line number; invalid
    values are reported against the config key, not the internal field.
    """
    values: dict = {}
    cases, seeds = None, None
    traffic_kind, ftp = None, {}
    with open(path) as fh:
        for ln, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigurationError(f"{path}:{ln}: expected key = value")
            key, val = (t.strip() for t in line.split("=", 1))
            try:
                if key == "case":
                    cases = parse_cases(val)
                elif key == "seeds":
                    seeds = parse_seeds(val)
                elif key == "traffic":
                    if val not in ("full_buffer", "ftp3"):
                        raise ConfigurationError(
                            "traffic must be full_buffer or ftp3")
                    traffic_kind = val
                elif key == "ftp3_file_bytes":
                    ftp["file_bytes"] = int(val)
                elif key == "ftp3_lambda_per_s":
                    ftp["lambda_per_s"] = float(val)
                elif key in _KEYS:
                    attr, conv = _KEYS[key]
                    values[attr] = conv(val)
                else:
                    raise ConfigurationError(f"unknown config key {key!r}")
            except ConfigurationError as exc:
                raise ConfigurationError(f"{path}:{ln}: {exc}") from None
            except ValueError:
                raise ConfigurationError(
                    f"{path}:{ln}: bad value for {key}: {val!r}") from None
    if ftp and traffic_kind != "ftp3":
        keys = ", ".join(_ATTR_TO_KEY[attr] for attr in ftp)
        raise ConfigurationError(f"{path}: {keys} needs traffic = ftp3")
    try:
        if traffic_kind == "ftp3":
            values["traffic"] = Ftp3(**ftp)
        elif traffic_kind == "full_buffer":
            values["traffic"] = FullBuffer()
        cfg = ScenarioConfig(**values)
    except ConfigurationError as exc:
        msg = str(exc)
        for attr, key in _ATTR_TO_KEY.items():
            msg = msg.replace(attr, key)
        raise ConfigurationError(f"{path}: {msg}") from None
    return ExperimentPlan(cfg, cases or (Case.BASELINE,), seeds or (0,))


# ---------------------------------------------------------------------------
# experiment driver
# ---------------------------------------------------------------------------

def _write_json(path: str, obj) -> None:
    with open(path, "w", newline="\n") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")


def summarize(per_arm_records: dict) -> dict:
    """UPT summary per arm plus treatment-vs-baseline percentage gains
    (None over a baseline that completed no file); the first entry is the
    baseline arm.  Raises when no pair is present."""
    if len(per_arm_records) < 2:
        raise ConfigurationError(
            "summary needs a baseline arm and a treatment arm")
    out = {arm: simloop.upt_stats(recs)
           for arm, recs in per_arm_records.items()}
    ref, new = list(per_arm_records)[:2]
    for metric, key in (("p5_bps", "gain_cell_edge_pct"),
                        ("mean_bps", "gain_mean_pct")):
        base = out[ref][metric]
        out[key] = (100.0 * (out[new][metric] - base) / base
                    if base > 0 else None)
    return out


def _run_loc_case(cfg: ScenarioConfig, seeds, rows: list) -> dict:
    errs, perrs = [], []
    for seed in seeds:
        for r in localization.run_loc_experiment(cfg, seed):
            rows.append([r.user, r.case, seed, f"{r.true_az:.6f}",
                         f"{r.true_el:.6f}", f"{r.est_az:.6f}",
                         f"{r.est_el:.6f}", f"{r.aoa_err_deg:.6f}",
                         f"{r.pos_err_m:.6f}"])
            errs.append(r.aoa_err_deg)
            perrs.append(r.pos_err_m)
    return {"median_aoa_error_deg": float(np.median(errs)),
            "median_pos_error_m": float(np.median(perrs)),
            "n_trials": len(errs)}


def run_experiment(plan: ExperimentPlan) -> dict:
    """Run every (case, seed) cell; write records.csv / loc_results.csv /
    summary.json under the plan's output directory.  Returns the summary."""
    try:
        os.makedirs(plan.out_dir, exist_ok=True)
    except OSError as exc:
        raise OSError(f"cannot create output dir {plan.out_dir!r}: {exc}")

    summary: dict = {"seeds": [int(s) for s in plan.seeds],
                     "cases": [c.value for c in plan.cases]}
    rec_rows: list = []
    loc_rows: list = []
    for case in plan.cases:
        cfg = replace(plan.scenario, case=case)
        if case.value.startswith("loc"):
            summary[case.value] = _run_loc_case(cfg, plan.seeds, loc_rows)
            continue
        # arms in run_drop's order: the reference arm first
        per_arm, ru = {}, {}
        for seed, drop in zip(plan.seeds, simloop.map_drops(cfg, plan.seeds)):
            for a, st in drop.items():
                per_arm.setdefault(a, []).extend((seed, r) for r in st.records)
                ru.setdefault(a, []).append(st.resource_utilization)
        for a, rows in per_arm.items():
            for seed, r in rows:
                tput = r.throughput_bps
                rec_rows.append([case.value, a, seed, r.ue,
                                 f"{r.t_arrival_s:.6f}",
                                 f"{r.t_complete_s:.6f}", r.size_bytes,
                                 f"{tput:.3f}" if math.isfinite(tput)
                                 else "inf"])
        recs = {a: [r for _, r in rows] for a, rows in per_arm.items()}
        cs = summarize(recs) if len(recs) == 2 else \
            {a: simloop.upt_stats(r) for a, r in recs.items()}
        for a, vals in ru.items():
            cs[a]["mean_ru"] = float(np.mean(vals))
        summary[case.value] = cs

    if rec_rows:
        with open(os.path.join(plan.out_dir, "records.csv"), "w",
                  newline="\n") as fh:
            w = csv.writer(fh, lineterminator="\n")
            w.writerow(["case", "arm", "seed", "ue", "t_arrival_s",
                        "t_complete_s", "size_bytes", "throughput_bps"])
            w.writerows(rec_rows)
    if loc_rows:
        with open(os.path.join(plan.out_dir, "loc_results.csv"), "w",
                  newline="\n") as fh:
            w = csv.writer(fh, lineterminator="\n")
            w.writerow(["user", "case", "seed", "true_az", "true_el",
                        "est_az", "est_el", "aoa_err_deg", "pos_err_m"])
            w.writerows(loc_rows)
    _write_json(os.path.join(plan.out_dir, "summary.json"), summary)
    return summary


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="devmimo",
        description="Device-collaboration cellular system simulator")
    ap.add_argument("--config", help="key=value config file")
    ap.add_argument("--case", help="case name(s), comma separated "
                    f"(choices: {', '.join(sorted(_CASE_NAMES))})")
    ap.add_argument("--seeds", default=None,
                    help="comma-separated drop seeds (default: 0)")
    ap.add_argument("--out", default="results",
                    help="output directory (default: results)")
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.config:
            plan = parse_config(args.config)
        else:
            plan = ExperimentPlan(ScenarioConfig())
        if args.case:
            plan = replace(plan, cases=parse_cases(args.case))
        if args.seeds is not None:
            try:
                seeds = parse_seeds(args.seeds)
            except ValueError as exc:
                raise ConfigurationError(
                    f"bad value for --seeds: {args.seeds!r} ({exc})") from None
            plan = replace(plan, seeds=seeds)
        plan = replace(plan, out_dir=args.out)
        summary = run_experiment(plan)
    except (ConfigurationError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(summary, indent=2, sort_keys=True, allow_nan=False))
    return 0


if __name__ == "__main__":
    sys.exit(main())
