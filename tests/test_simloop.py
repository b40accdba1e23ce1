"""Traffic, scheduling, and drop-loop statistics."""

import itertools
import math
import multiprocessing
import os
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from scipy import stats

from devmimo import (Case, Ftp3, FullBuffer, ScenarioConfig, ThroughputRecord,
                     calibrate_load, ftp3_arrivals, pf_schedule, run_drop,
                     upt_stats)
from devmimo import (CalibrationError, ConfigurationError, _blocks, engine,
                     simloop)
from devmimo.simloop import (SchedulerState, measure_ru,
                             percentile_nearest_rank)


TINY = dict(num_rings=0, ues_per_cell=2, sim_duration_s=0.05)


def test_poisson_arrival_count_statistics():
    tr = Ftp3(file_bytes=500_000, lambda_per_s=0.5)
    rng = np.random.default_rng(0)
    counts = [len(ftp3_arrivals(tr, 1, 200.0, rng)) for _ in range(100)]
    # mean 100 per trial; standard error of the trial mean is 1
    assert abs(np.mean(counts) - 100.0) <= 3.0


def test_interarrival_gaps_are_exponential():
    tr = Ftp3(file_bytes=500_000, lambda_per_s=2.0)
    rng = np.random.default_rng(1)
    ev = ftp3_arrivals(tr, 1, 2000.0, rng)
    gaps = np.diff([e.t_arrival_s for e in ev])
    p = stats.kstest(gaps, "expon", args=(0.0, 0.5)).pvalue
    assert p > 0.01


def test_arrivals_deterministic_per_seed():
    tr = Ftp3(file_bytes=500_000, lambda_per_s=1.0)
    a = ftp3_arrivals(tr, 5, 50.0, np.random.default_rng(9))
    b = ftp3_arrivals(tr, 5, 50.0, np.random.default_rng(9))
    assert a == b


def test_arrivals_sorted_and_positive():
    tr = Ftp3(file_bytes=500_000, lambda_per_s=1.0)
    ev = ftp3_arrivals(tr, 4, 30.0, np.random.default_rng(2))
    t = [e.t_arrival_s for e in ev]
    assert t == sorted(t)
    assert all(x > 0 for x in t)
    assert all(e.size_bytes == 500_000 for e in ev)


def test_scheduler_prefers_higher_rate_at_equal_averages():
    rates = np.array([[2.0], [1.0]])
    out = pf_schedule(rates, np.array([1.0, 1.0]), np.array([True, True]))
    assert out[0] == 0


def test_scheduler_uses_rate_over_average_metric():
    rates = np.array([[2.0], [1.0]])
    out = pf_schedule(rates, np.array([4.0, 1.0]), np.array([True, True]))
    assert out[0] == 1     # metrics 0.5 vs 1.0


def _assert_stack_matches_2d(rates, avg, back):
    """A (2, U, S) stack schedules like two 2-D calls."""
    out = pf_schedule(np.stack(rates), np.stack(avg), np.stack(back))
    assert out.shape == (2, rates[0].shape[1])
    for k in range(2):
        np.testing.assert_array_equal(
            out[k], pf_schedule(rates[k], avg[k], back[k]))


def test_single_backlogged_user_takes_every_subband():
    rates = np.ones((3, 6))
    out = pf_schedule(rates, np.ones(3), np.array([False, True, False]))
    assert np.all(out == 1)
    # second cell: the strongest row is padding that is never backlogged
    rng = np.random.default_rng(5)
    other = rng.exponential(1.0, (3, 6))
    other[2] = 100.0
    _assert_stack_matches_2d(
        [rates, other], [np.ones(3), rng.uniform(1.0, 2.0, 3)],
        [np.array([False, True, False]), np.array([True, True, False])])


def test_idle_cell_schedules_nobody():
    rates = np.ones((2, 4))
    out = pf_schedule(rates, np.ones(2), np.array([False, False]))
    assert np.all(out == -1)
    # an idle cell and a backlogged cell with all-zero rates
    _assert_stack_matches_2d([rates, np.zeros((2, 4))], [np.ones(2)] * 2,
                             [np.array([False, False]),
                              np.array([True, True])])
    assert np.all(pf_schedule(np.zeros((2, 4)), np.ones(2),
                              np.array([True, True])) == -1)


def test_scheduler_long_run_fairness_jain_index():
    # symmetric users with i.i.d. fading rates, full buffer
    rng = np.random.default_rng(3)
    n_ues, n_sb = 8, 4
    state = SchedulerState.create(n_ues)
    served = np.zeros(n_ues)
    back = np.ones(n_ues, dtype=bool)
    for _ in range(10_000):
        rates = rng.exponential(1e6, size=(n_ues, n_sb))
        alloc = pf_schedule(rates, state.avg_bps, back)
        got = np.zeros(n_ues)
        for s, u in enumerate(alloc):
            got[u] += rates[u, s]
        served += got
        state.update(got)
    jain = float(served.sum() ** 2 / (n_ues * np.sum(served ** 2)))
    assert jain >= 0.9


def test_nearest_rank_percentile_reference_points():
    v = np.arange(1.0, 101.0)
    assert percentile_nearest_rank(v, 5.0) == 5.0
    assert abs(float(v.mean()) - 50.5) < 1e-12
    assert percentile_nearest_rank(np.array([7.0]), 5.0) == 7.0
    assert percentile_nearest_rank(np.full(10, 2.5), 5.0) == 2.5
    with pytest.raises(ValueError):
        percentile_nearest_rank(np.array([]), 5.0)


def test_throughput_record_value():
    r = ThroughputRecord(0, 1.0, 3.0, 1_000_000)
    assert abs(r.throughput_bps - 4e6) < 1e-6
    assert ThroughputRecord(0, 1.0, 1.0, 8).throughput_bps == math.inf


def test_upt_stats_fields():
    recs = [ThroughputRecord(0, 0.0, 1.0, 125_000),
            ThroughputRecord(1, 0.0, 2.0, 125_000)]
    out = upt_stats(recs)
    assert out["n_files"] == 2
    assert abs(out["mean_bps"] - 750_000.0) < 1e-6
    assert out["p5_bps"] == 500_000.0


def test_full_buffer_utilization_is_one():
    cfg = ScenarioConfig(case=Case.BASELINE, traffic=FullBuffer(), **TINY)
    stats_ = run_drop(cfg, 0)
    assert stats_["baseline"].resource_utilization == 1.0


def test_drop_is_deterministic():
    cfg = ScenarioConfig(case=Case.DIVERSITY,
                         traffic=Ftp3(100_000, 2.0), **TINY)
    a = run_drop(cfg, 4)
    b = run_drop(cfg, 4)
    for arm in a:
        assert a[arm].records == b[arm].records
        assert a[arm].resource_utilization == b[arm].resource_utilization


def _bits(drops):
    return [[(name, st.records, st.resource_utilization,
              st.served_bytes.tobytes(), st.path_share_relayed)
             for name, st in drop.items()] for drop in drops]


@pytest.mark.skipif(_blocks._START_METHOD != "fork",
                    reason="the drop recorder reaches workers by fork")
@pytest.mark.parametrize("cpus,seeds,caller,worker", [
    (4, (0, 1), 2, 2), (4, (0, 1, 2), 2, 1), (3, (0, 1), 2, 1)],
    ids=["seeds0-2", "seeds1-1", "odd-cpus"])
def test_map_drops_splits_the_cpus_between_its_processes(
        tmp_path, monkeypatch, cpus, seeds, caller, worker):
    # of C usable CPUs, each of P processes' row blocks get C // P of them
    # and the caller takes the rest, so no CPU idles
    monkeypatch.setattr(os, "sched_getaffinity",
                        lambda pid: set(range(cpus)), raising=False)
    build = engine.build_drop_geometry

    def recorded(cfg, seed):
        (tmp_path / f"{seed}-{os.getpid()}-{_blocks._workers() + 1}").touch()
        return build(cfg, seed)

    monkeypatch.setattr(engine, "build_drop_geometry", recorded)
    cfg = ScenarioConfig(case=Case.DIVERSITY,
                         traffic=Ftp3(100_000, 2.0), **TINY)
    got = simloop.map_drops(cfg, seeds)
    assert not multiprocessing.active_children()
    assert _blocks._workers() == cpus - 1
    places = sorted(tuple(map(int, p.name.split("-")))
                    for p in tmp_path.iterdir())
    assert [seed for seed, _, _ in places] == list(seeds)
    assert {(pid == os.getpid(), n) for _, pid, n in places} \
        == {(True, caller), (False, worker)}
    assert len({pid for _, pid, _ in places}) == len(seeds)
    monkeypatch.setattr(engine, "build_drop_geometry", build)
    assert _bits(got) == _bits(run_drop(cfg, s) for s in seeds)


def test_map_drops_runs_in_spawned_workers(monkeypatch):
    # where the OS cannot fork, the config and the results must pickle;
    # on 2 CPUs the worker runs seeds 4 and 6, in that order
    monkeypatch.setattr(_blocks, "_START_METHOD", "spawn")
    monkeypatch.setattr(_blocks, "_workers", lambda: 1)
    cfg = ScenarioConfig(case=Case.RANK_AUG, traffic=Ftp3(100_000, 2.0),
                         **TINY)
    seeds = (3, 4, 5, 6)
    got = simloop.map_drops(cfg, seeds)
    assert not multiprocessing.active_children()
    assert _bits(got) == _bits(run_drop(cfg, s) for s in seeds)


@pytest.mark.skipif(_blocks._START_METHOD != "fork",
                    reason="the failing drop reaches workers by fork")
@pytest.mark.parametrize("bad", [1, 0], ids=["in-worker", "in-caller"])
def test_a_failing_drop_raises_in_the_caller_and_leaves_no_worker(
        monkeypatch, bad):
    monkeypatch.setattr(_blocks, "_workers", lambda: 1)
    build = engine.build_drop_geometry

    def failing(cfg, seed):
        if seed == bad:
            raise ConfigurationError(f"drop {seed} failed")
        return build(cfg, seed)

    monkeypatch.setattr(engine, "build_drop_geometry", failing)
    cfg = ScenarioConfig(case=Case.BASELINE, traffic=FullBuffer(), **TINY)
    with pytest.raises(ConfigurationError) as err:
        simloop.map_drops(cfg, (0, 1))
    assert err.type is ConfigurationError
    assert str(err.value) == f"drop {bad} failed"
    assert not multiprocessing.active_children()


@pytest.mark.skipif(_blocks._START_METHOD != "fork",
                    reason="the dying drop reaches workers by fork")
def test_a_worker_that_dies_raises_in_the_caller(monkeypatch):
    monkeypatch.setattr(_blocks, "_workers", lambda: 1)
    build = engine.build_drop_geometry

    def dying(cfg, seed):
        if seed == 1:
            os._exit(3)
        return build(cfg, seed)

    monkeypatch.setattr(engine, "build_drop_geometry", dying)
    cfg = ScenarioConfig(case=Case.BASELINE, traffic=FullBuffer(), **TINY)
    with pytest.raises(RuntimeError, match="exited with code 3"):
        simloop.map_drops(cfg, (0, 1))
    assert not multiprocessing.active_children()


def test_served_bytes_conservation_bound():
    cfg = ScenarioConfig(case=Case.BASELINE, traffic=FullBuffer(), **TINY)
    stats_ = run_drop(cfg, 1)
    n_cells = 3
    max_layers = cfg.ue_dl_config[1]
    bound = (n_cells * cfg.n_slots * cfg.slot_s / 8.0 * cfg.n_subbands
             * cfg.subband_hz * 7.4 * max_layers)
    assert float(np.sum(stats_["baseline"].served_bytes)) <= bound + 1e-6


@pytest.mark.parametrize("traffic", [FullBuffer(), Ftp3(100_000, 20.0)],
                         ids=["full_buffer", "ftp3"])
@pytest.mark.parametrize("case", [Case.BASELINE, Case.DIVERSITY,
                                  Case.RANK_AUG], ids=lambda c: c.value)
def test_one_pf_update_per_arm_per_slot(monkeypatch, case, traffic):
    calls = Counter()
    update = SchedulerState.update

    def counted(self, served_bps):
        calls[id(self)] += 1
        update(self, served_bps)

    monkeypatch.setattr(SchedulerState, "update", counted)
    cfg = ScenarioConfig(num_rings=0, ues_per_cell=2, case=case,
                         traffic=traffic, sim_duration_s=0.005)   # 10 slots
    out = run_drop(cfg, 0)
    assert sorted(calls.values()) == [10] * len(out)


def test_full_buffer_diversity_dominates_per_user():
    cfg = ScenarioConfig(case=Case.DIVERSITY, traffic=FullBuffer(), **TINY)
    stats_ = run_drop(cfg, 2)
    base = stats_["baseline"].served_bytes
    div = stats_["diversity"].served_bytes
    assert np.all(div >= base - 1e-6)


def test_single_port_diversity_drop_runs():
    # one BS port: the relay forwards at most one stream
    cfg = ScenarioConfig(case=Case.DIVERSITY, bs_ports=1, **TINY)
    stats_ = run_drop(cfg, 0)
    for arm in ("baseline", "diversity"):
        served = stats_[arm].served_bytes
        assert np.all(np.isfinite(served)) and served.sum() > 0


def test_round_robin_serves_each_cell_in_turn():
    geo = engine.build_drop_geometry(ScenarioConfig(**TINY), 0)
    ue_of_cell = [np.array([4, 1, 3]), np.array([], dtype=int),
                  np.array([0, 2, 5])]
    geo = replace(geo, ue_of_cell=ue_of_cell)
    for rr in range(7):
        tx = geo.round_robin(rr)
        assert tx.shape == (geo.n_cells,)
        assert tx[1] == -1
        for c in (0, 2):
            assert tx[c] == ue_of_cell[c][rr % 3]


def test_lone_file_throughput_matches_isolated_link_rate():
    # one user per cell: every file is served with the entire band, so
    # its throughput approaches the user's full-band link rate
    cfg = ScenarioConfig(num_rings=0, ues_per_cell=1, sim_duration_s=4.0,
                         case=Case.BASELINE, traffic=Ftp3(500_000, 0.3))
    # one list of the drop's tables feeds both its slot loop and the rate
    ue_of_cell, tables = simloop._drop_tables(cfg, 3)
    out = simloop._scheduling_stage(cfg, 3, ue_of_cell, tables)
    rate = np.mean([rates["baseline"][0].sum(axis=1)
                    for rates, _ in tables], axis=0)

    per_ue = {}
    for r in out["baseline"].records:
        per_ue.setdefault(r.ue, []).append(r.throughput_bps)
    assert per_ue, "expected at least one completed file"
    for u, vals in per_ue.items():
        assert abs(np.mean(vals) - rate[u]) <= 0.1 * rate[u]


def test_load_calibration_closed_loop():
    cfg = ScenarioConfig(num_rings=0, ues_per_cell=2, sim_duration_s=0.2,
                         case=Case.BASELINE, traffic=Ftp3(500_000, 1.0))
    lam, ru = calibrate_load(cfg, 0.4, tol=0.02, seeds=(0,))
    assert 0.38 <= ru <= 0.42
    check = measure_ru(cfg.replace(traffic=Ftp3(500_000, lam)), (0,))
    assert 0.38 <= check <= 0.42


def test_utilization_monotone_in_offered_load():
    cfg = ScenarioConfig(num_rings=0, ues_per_cell=2, sim_duration_s=0.2,
                         case=Case.BASELINE)
    prev = -1.0
    for lam in (0.2, 0.5, 1.0, 2.0, 4.0):
        ru = measure_ru(cfg.replace(traffic=Ftp3(500_000, lam)), (0,))
        assert ru >= prev - 0.02
        prev = ru


def test_calibration_rejects_bad_target():
    cfg = ScenarioConfig(case=Case.BASELINE, traffic=Ftp3(500_000, 1.0),
                         **TINY)
    with pytest.raises(ConfigurationError):
        calibrate_load(cfg, 1.5)
    with pytest.raises(ConfigurationError):
        calibrate_load(ScenarioConfig(case=Case.BASELINE,
                                      traffic=FullBuffer(), **TINY), 0.4)


@pytest.mark.parametrize("arg, value", [
    ("seeds", ()), ("tol", math.nan), ("max_iter", 0)],
    ids=["seeds", "tol", "max_iter"])
def test_calibration_rejects_bad_argument_by_name(arg, value):
    cfg = ScenarioConfig(case=Case.BASELINE, traffic=Ftp3(500_000, 1.0),
                         **TINY)
    with pytest.raises(ConfigurationError, match=f"^{arg} "):
        calibrate_load(cfg, 0.4, **{arg: value})


@pytest.mark.parametrize("file_bytes, kwargs, message", [
    (1, {}, r"RU saturates at 0\.\d+ < target 0\.400"),
    (500_000, dict(tol=0.0, max_iter=1), "did not converge")],
    ids=["saturates", "no_convergence"])
def test_calibration_error_names_the_failure(file_bytes, kwargs, message):
    cfg = ScenarioConfig(case=Case.BASELINE,
                         traffic=Ftp3(file_bytes, 1.0), **TINY)
    with pytest.raises(CalibrationError, match=message):
        calibrate_load(cfg, 0.4, seeds=(0,), **kwargs)


CAL = ScenarioConfig(num_rings=0, ues_per_cell=2, sim_duration_s=0.2,
                     channel_update_slots=25, case=Case.BASELINE,
                     traffic=Ftp3(500_000, 1.0))


def _measured_ru_of_load(cfg, seeds):
    def ru(lam):
        traffic = Ftp3(cfg.traffic.file_bytes, lam)
        return measure_ru(cfg.replace(traffic=traffic), seeds)
    return ru


def test_calibration_with_reused_tables_matches_full_drops(monkeypatch):
    seeds = (0, 1)
    reused = simloop._ru_of_load(CAL, seeds)
    measured = _measured_ru_of_load(CAL, seeds)
    for lam in (0.3, 1.0, 4.0):
        assert reused(lam) == measured(lam)

    got = calibrate_load(CAL, 0.4, tol=0.02, seeds=seeds)
    # reference: the same bisection, every probe rerunning whole drops
    monkeypatch.setattr(simloop, "_ru_of_load", _measured_ru_of_load)
    assert got == calibrate_load(CAL, 0.4, tol=0.02, seeds=seeds)


@pytest.mark.skipif(_blocks._START_METHOD != "fork",
                    reason="the refresh recorder reaches workers by fork")
def test_calibration_refreshes_each_channel_once(tmp_path, monkeypatch):
    # the tables may be built in worker processes, so each refresh leaves
    # one file, named by its process, a per-process call count and rr
    calls = Counter()
    refresh = engine.DlEngine.refresh
    stage = simloop._scheduling_stage
    n = itertools.count()

    def counted_refresh(self, rr):
        (tmp_path / f"{os.getpid()}-{next(n)}-{rr}").touch()
        return refresh(self, rr)

    def counted_stage(*args):
        calls["schedule"] += 1
        return stage(*args)

    def refreshes():
        rrs = Counter(int(p.name.split("-")[-1]) for p in tmp_path.iterdir())
        for p in tmp_path.iterdir():
            p.unlink()
        return rrs

    monkeypatch.setattr(engine.DlEngine, "refresh", counted_refresh)
    monkeypatch.setattr(simloop, "_scheduling_stage", counted_stage)
    run_drop(CAL, 0)
    assert refreshes() == Counter(range(CAL.n_refreshes))

    calls.clear()
    seeds = (0, 1)
    calibrate_load(CAL, 0.4, tol=0.02, seeds=seeds)
    assert calls["schedule"] > len(seeds)           # more than one probe
    assert refreshes() == Counter({rr: len(seeds)
                                   for rr in range(CAL.n_refreshes)})


@pytest.mark.parametrize("threshold_db", [-200.0, 200.0],
                         ids=["no_weak_users", "all_weak_users"])
def test_rank_drop_with_uniform_collaboration_decision(threshold_db):
    cfg = ScenarioConfig(num_rings=0, case=Case.RANK_AUG,
                         traffic=Ftp3(500_000, 2.0), sim_duration_s=0.05,
                         semistatic_threshold_db=threshold_db)
    out = run_drop(cfg, 0)
    assert list(out) == ["legacy_2ca", "collab"]

    geo = engine.build_drop_geometry(cfg, 0)
    tables, weak = next(simloop._channel_stage(geo, 0))
    (leg_fl, leg_fh), (col_fl, col_fh) = tables["legacy_2ca"], tables["collab"]
    if threshold_db < 0:
        assert not weak.any()
        assert np.array_equal(col_fl, leg_fl)
        assert np.array_equal(col_fh, leg_fh)
    else:
        assert weak.all()
        assert np.all(col_fh == 0.0)
        assert np.all(col_fl > 0.0)
