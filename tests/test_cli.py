"""Config parsing, experiment runner outputs, and gain summaries."""

import csv
import json
import os
import re
from pathlib import Path

import numpy as np
import pytest

import devmimo
from devmimo import (Case, ConfigurationError, ThroughputRecord, _blocks,
                     engine, simloop)
from devmimo.cli import (_KEYS, ExperimentPlan, main, parse_cases,
                         parse_config, run_experiment, summarize)
from devmimo.scenario import Ftp3, ScenarioConfig


def _write(tmp_path, text, name="run.cfg"):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def test_every_package_export_resolves():
    for name in devmimo.__all__:
        getattr(devmimo, name)


def test_empty_config_gives_defaults(tmp_path):
    plan = parse_config(_write(tmp_path, ""))
    assert plan.scenario.isd == 200.0
    assert plan.scenario.ues_per_cell == 10
    assert plan.scenario.bs_ports == 32
    assert plan.cases == (Case.BASELINE,)
    assert plan.seeds == (0,)


def test_config_overrides_and_comments(tmp_path):
    plan = parse_config(_write(tmp_path, """
# deployment
isd_m = 150
num_rings = 1
ues_per_cell = 4
case = diversity
seeds = 1, 2
traffic = ftp3
ftp3_lambda_per_s = 0.5
"""))
    assert plan.scenario.isd == 150.0
    assert plan.scenario.num_rings == 1
    assert plan.cases == (Case.DIVERSITY,)
    assert plan.seeds == (1, 2)
    assert isinstance(plan.scenario.traffic, Ftp3)
    assert plan.scenario.traffic.lambda_per_s == 0.5


@pytest.mark.parametrize("key, value, expected", [
    ("f_low_ghz", "1.5", 1.5), ("bs_ports", "8", 8),
    ("bandwidth_mhz", "20", 20.0), ("helper_rx_antennas", "2", 2),
    ("loc_method", "music", "music")], ids=lambda v: str(v))
def test_config_key_reaches_its_field_with_its_type(tmp_path, key, value,
                                                    expected):
    plan = parse_config(_write(tmp_path, f"{key} = {value}\n"))
    got = getattr(plan.scenario, key)
    assert got == expected and type(got) is type(expected)


def _last_key(text):
    return text.splitlines()[-1].split()[0]


@pytest.mark.parametrize("text", [
    "isd_m = -5", "channel_update_slots = 0", "scs_khz = 0",
    "sim_duration_s = nan", "traffic = ftp3\nftp3_lambda_per_s = 0",
    "traffic = ftp3\nftp3_file_bytes = 0", "relay_streams = 0",
    "helper_distance_m = 0", "fh_activity = -1", "max_interferers = -1",
    "loc_users = 0", "range_sigma_m = -1", "loc_snr_db = nan",
    "bs_tx_dbm = nan", "relay_max_tx_dbm = nan", "f_high_ghz = inf",
    "bandwidth_mhz = nan", "semistatic_threshold_db = nan", "seeds = 0,-1",
    pytest.param("isd_m = nan", id="isd_m-nan"),
    pytest.param("isd_m = 50", id="isd_m-50"),
    pytest.param("ftp3_file_bytes = 1000", id="ftp3_file_bytes-full_buffer"),
    pytest.param("traffic = full_buffer\nftp3_lambda_per_s = 1",
                 id="ftp3_lambda_per_s-full_buffer"),
], ids=_last_key)
def test_invalid_value_names_the_config_key(tmp_path, text):
    with pytest.raises(ConfigurationError, match=_last_key(text)):
        parse_config(_write(tmp_path, text + "\n"))


@pytest.mark.parametrize("line", ["fooo = 1", "seed = 7"],
                         ids=lambda line: line.split()[0])
def test_unknown_key_named_with_line(tmp_path, line):
    key = line.split()[0]
    with pytest.raises(ConfigurationError,
                       match=f":1: unknown config key '{key}'"):
        parse_config(_write(tmp_path, line + "\n"))


def test_malformed_line_reports_location(tmp_path):
    with pytest.raises(ConfigurationError, match=":2"):
        parse_config(_write(tmp_path, "isd_m = 200\nnot a key value line\n"))


def test_missing_config_file():
    with pytest.raises((OSError, ConfigurationError)):
        parse_config("/nonexistent/path.cfg")


def test_parse_cases():
    assert parse_cases("baseline,diversity") == (Case.BASELINE, Case.DIVERSITY)
    assert parse_cases("loc1") == (Case.LOC1,)
    with pytest.raises(ConfigurationError):
        parse_cases("bogus")


def test_repeated_case_or_seed_is_rejected_by_name(tmp_path, capsys):
    with pytest.raises(ConfigurationError, match="case 'loc1' repeats"):
        parse_cases("loc1,loc2,loc1")
    with pytest.raises(ConfigurationError, match="case 'baseline' repeats"):
        ExperimentPlan(ScenarioConfig(), cases=(Case.BASELINE,) * 2)
    with pytest.raises(ConfigurationError, match="seed 3 repeats"):
        ExperimentPlan(ScenarioConfig(), seeds=(3, 1, 3))
    for bad, name in (((-1,), "-1"), ((0.5,), "0.5"), ((0, -2), "-2")):
        with pytest.raises(ConfigurationError,
                           match=f"^seed {name} is not an integer >= 0$"):
            ExperimentPlan(ScenarioConfig(), seeds=bad)
    rc = main(["--case", "baseline,baseline", "--out", str(tmp_path / "o")])
    assert rc == 2
    assert "case 'baseline' repeats" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_plan_takes_numpy_integer_seeds(tmp_path):
    plan = ExperimentPlan(ScenarioConfig(loc_users=2), cases=(Case.LOC1,),
                          seeds=(np.int64(2),), out_dir=str(tmp_path))
    assert run_experiment(plan)["seeds"] == [2]
    assert json.loads((tmp_path / "summary.json").read_text())["seeds"] == [2]


def test_plan_requires_cases_and_seeds():
    with pytest.raises(ConfigurationError):
        ExperimentPlan(ScenarioConfig(), cases=(), seeds=(0,))
    with pytest.raises(ConfigurationError):
        ExperimentPlan(ScenarioConfig(), cases=(Case.BASELINE,), seeds=())


def _recs(values):
    return [ThroughputRecord(i, 0.0, 1.0, int(v * 125_000)) for i, v in
            enumerate(values)]


def test_summary_gain_arithmetic():
    out = summarize({"baseline": _recs([1.0] * 20),
                     "treatment": _recs([1.3] * 20)})
    assert abs(out["gain_cell_edge_pct"] - 30.0) < 1e-6
    assert abs(out["gain_mean_pct"] - 30.0) < 1e-6

    out = summarize({"baseline": _recs([2.0] * 10),
                     "treatment": _recs([2.0] * 10)})
    assert out["gain_cell_edge_pct"] == 0.0
    assert out["gain_mean_pct"] == 0.0

    out = summarize({"baseline": _recs([2.0] * 10),
                     "treatment": _recs([2.34] * 10)})
    assert abs(out["gain_mean_pct"] - 17.0) < 1e-6


def test_summary_json_is_strict_json_without_reference_files(tmp_path):
    # ten slots at 0.5 files/s: the reference arm completes no file
    scen = ScenarioConfig(num_rings=0, sim_duration_s=0.005,
                          traffic=Ftp3(500_000, 0.5))
    plan = ExperimentPlan(scen, cases=(Case.DIVERSITY,),
                          out_dir=str(tmp_path / "dl"))
    summary = run_experiment(plan)
    sec = summary["diversity"]
    assert sec["baseline"]["n_files"] == 0
    assert sec["gain_cell_edge_pct"] is None and sec["gain_mean_pct"] is None

    def reject(name):
        raise ValueError(f"non-standard JSON constant {name}")

    with open(os.path.join(plan.out_dir, "summary.json")) as fh:
        assert json.load(fh, parse_constant=reject) == summary


def test_summary_requires_two_arms():
    with pytest.raises(ConfigurationError):
        summarize({"baseline": _recs([1.0])})


def _loc_plan(tmp_path, sub, seeds=(0,)):
    scen = ScenarioConfig(loc_users=4)
    return ExperimentPlan(scen, cases=(Case.LOC1, Case.LOC2, Case.LOC3),
                          seeds=seeds, out_dir=str(tmp_path / sub))


def test_localization_outputs(tmp_path):
    plan = _loc_plan(tmp_path, "a")
    summary = run_experiment(plan)
    rows = open(os.path.join(plan.out_dir, "loc_results.csv")).readlines()
    assert rows[0].strip() == ("user,case,seed,true_az,true_el,est_az,"
                               "est_el,aoa_err_deg,pos_err_m")
    assert len(rows) - 1 == 4 * 3
    for c in ("loc1", "loc2", "loc3"):
        assert "median_aoa_error_deg" in summary[c]
    on_disk = json.load(open(os.path.join(plan.out_dir, "summary.json")))
    assert on_disk["cases"] == ["loc1", "loc2", "loc3"]
    # with two seeds, each trial row is told apart by (user, case, seed)
    plan = _loc_plan(tmp_path, "b", seeds=(0, 1))
    run_experiment(plan)
    with open(os.path.join(plan.out_dir, "loc_results.csv")) as fh:
        keys = [(r["user"], r["case"], r["seed"]) for r in csv.DictReader(fh)]
    assert len(keys) == len(set(keys)) == 4 * 3 * 2
    assert {k[2] for k in keys} == {"0", "1"}


def test_rerun_is_byte_identical(tmp_path):
    out = []
    for sub in ("r1", "r2"):
        plan = _loc_plan(tmp_path, sub)
        run_experiment(plan)
        out.append({f: open(os.path.join(plan.out_dir, f), "rb").read()
                    for f in ("loc_results.csv", "summary.json")})
    assert out[0] == out[1]


@pytest.mark.skipif(_blocks._START_METHOD != "fork",
                    reason="the drop recorder reaches workers by fork")
@pytest.mark.parametrize("case", [Case.DIVERSITY, Case.RANK_AUG],
                         ids=["diversity", "rank"])
def test_pooled_drops_write_the_bytes_of_one_process(tmp_path, monkeypatch,
                                                     case):
    # three seeds on 2 CPUs: the caller runs seeds 0 and 2, a worker seed
    # 1; a replaced run_drop keeps every drop in the calling process
    monkeypatch.setattr(_blocks, "_workers", lambda: 1)
    build = engine.build_drop_geometry

    def recorded(cfg, seed):
        (tmp_path / mode / f"{seed}-{os.getpid()}").touch()
        return build(cfg, seed)

    monkeypatch.setattr(engine, "build_drop_geometry", recorded)
    scen = ScenarioConfig(num_rings=0, ues_per_cell=2, sim_duration_s=0.05,
                          traffic=Ftp3(20_000, 20.0))
    out, pids = {}, {}
    for mode in ("pool", "one"):
        if mode == "one":
            run_drop = simloop.run_drop
            monkeypatch.setattr(simloop, "run_drop",
                                lambda cfg, seed: run_drop(cfg, seed))
        plan = ExperimentPlan(scen, cases=(case,), seeds=(0, 1, 2),
                              out_dir=str(tmp_path / mode))
        run_experiment(plan)
        out[mode] = {f: (tmp_path / mode / f).read_bytes()
                     for f in ("records.csv", "summary.json")}
        pids[mode] = dict(map(int, p.name.split("-"))
                          for p in (tmp_path / mode).glob("*-*"))
    assert out["pool"]["records.csv"].count(b"\n") > 1
    assert out["pool"] == out["one"]
    me = os.getpid()
    assert pids["one"] == {0: me, 1: me, 2: me}
    assert pids["pool"][0] == pids["pool"][2] == me != pids["pool"][1]


def test_throughput_experiment_summary_schema(tmp_path):
    scen = ScenarioConfig(num_rings=0, ues_per_cell=2, sim_duration_s=0.05,
                          traffic=Ftp3(100_000, 2.0))
    plan = ExperimentPlan(scen, cases=(Case.DIVERSITY,), seeds=(0,),
                          out_dir=str(tmp_path / "dl"))
    summary = run_experiment(plan)
    sec = summary["diversity"]
    assert "gain_cell_edge_pct" in sec and "gain_mean_pct" in sec
    assert "baseline" in sec and "diversity" in sec
    assert 0.0 <= sec["baseline"]["mean_ru"] <= 1.0
    rows = open(os.path.join(plan.out_dir, "records.csv")).readlines()
    assert rows[0].strip() == ("case,arm,seed,ue,t_arrival_s,t_complete_s,"
                               "size_bytes,throughput_bps")
    assert len(rows) > 1


def test_cli_entry_point_runs_and_overrides(tmp_path):
    cfg = _write(tmp_path, "loc_users = 3\n")
    out = str(tmp_path / "cli_out")
    rc = main(["--config", cfg, "--case", "loc1", "--seeds", "0", "--out",
               out])
    assert rc == 0
    assert os.path.exists(os.path.join(out, "summary.json"))
    rows = open(os.path.join(out, "loc_results.csv")).readlines()
    assert len(rows) - 1 == 3


def test_cli_reports_errors_with_nonzero_exit(tmp_path, capsys):
    cfg = _write(tmp_path, "fooo = 1\n")
    rc = main(["--config", cfg])
    assert rc != 0
    assert "fooo" in capsys.readouterr().err


@pytest.mark.parametrize("seeds", ["a", "0,a", "1.5", "-1", "", "0,", "0,0"])
def test_cli_names_the_flag_on_a_bad_seed(tmp_path, capsys, seeds):
    rc = main(["--case", "loc1", "--seeds", seeds, "--out",
               str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert rc == 2
    assert f"bad value for --seeds: {seeds!r}" in err
    assert "invalid literal" not in err


def test_readme_config_table_lists_exactly_the_accepted_keys():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    section = readme.split("## Config files", 1)[1].split("\n## ", 1)[0]
    documented = set()
    for row in re.findall(r"^\| (.+?) \|", section, re.MULTILINE):
        documented.update(re.findall(r"`([a-z0-9_]+)`", row))
    accepted = set(_KEYS) | {"case", "seeds", "traffic", "ftp3_file_bytes",
                             "ftp3_lambda_per_s"}
    assert documented == accepted
