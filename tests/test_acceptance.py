"""End-to-end acceptance suite.

Each test covers one headline claim of the simulator and prints a single
pass/fail line.  The throughput criteria run desk-scale deployments (one
ring of sites) and compare pooled user-perceived throughput between the
legacy arm and the collaboration arm of the same drops.
"""

import math

import numpy as np
from scipy import stats

from devmimo import (Case, Ftp3, FullBuffer, ScenarioConfig,
                     calibrate_load, ftp3_arrivals, map_drops, pf_schedule,
                     relay_gain, relay_rx_beamformer, run_drop,
                     run_loc_experiment, stack_rx, compose_af_link,
                     friis_db, pathloss)
from devmimo.cli import ExperimentPlan, run_experiment
from devmimo.collab import EffectiveLink
from devmimo.localization import (_device_covariances, _ensemble,
                                  build_virtual_array)
from devmimo.phy import batched_mmse_sinr
from devmimo.scenario import rot_z, ula
from devmimo.simloop import SchedulerState, upt_stats
from reference import grid_spectrum, median_aoa_error, mutual_information


def _check(num: int, label: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {label} ({detail})")
    assert ok, f"criterion {num}: {label} ({detail})"


def _rand_h(rng, m, n):
    return (rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))) \
        / math.sqrt(2.0)


def _capacity(h, snr_lin):
    n_tx = h.shape[1]
    a = h * math.sqrt(snr_lin / n_tx)
    return mutual_information(a, np.eye(h.shape[0]))


def test_criterion_1_rank_doubling_slope():
    rng = np.random.default_rng(10)
    slopes_d, slopes_s = [], []
    for _ in range(100):
        h_d = _rand_h(rng, 4, 32)
        h_r = _rand_h(rng, 4, 32)
        st = stack_rx(
            EffectiveLink(h_d[None], np.eye(4)[None]),
            EffectiveLink(h_r[None], np.eye(4)[None]))
        h_s = st.h_eff[0]
        for h, acc in ((h_d, slopes_d), (h_s, slopes_s)):
            c20 = _capacity(h, 10.0 ** 2.0)
            c30 = _capacity(h, 10.0 ** 3.0)
            acc.append((c30 - c20) / 10.0)
    ratio = float(np.mean(slopes_s) / np.mean(slopes_d))
    _check(1, "stacked receive paths double the high-SNR capacity slope",
           1.8 <= ratio <= 2.0, f"slope ratio {ratio:.3f}")


def test_criterion_2_relay_bottleneck_and_stacking_dominance():
    rng = np.random.default_rng(11)
    bottleneck_bad = stack_bad = 0
    for _ in range(1000):
        h1 = _rand_h(rng, 4, 8) * rng.uniform(0.1, 3.0)
        h2 = _rand_h(rng, 2, 1) * rng.uniform(0.1, 3.0)
        s1v, s2v = rng.uniform(0.01, 2.0, 2)
        g = rng.uniform(0.1, 10.0)
        w = relay_rx_beamformer(h1, s1v * np.eye(4), 1)
        pre = np.linalg.svd(h1)[2][:1].conj().T
        a1 = (w @ h1) @ pre
        sig = float(np.sum(np.abs(a1) ** 2))
        nse = s1v * float(np.real(w[0].conj() @ w[0]))
        sinr1 = sig / nse
        snr2 = g * g * (sig + nse) * float(np.sum(np.abs(h2) ** 2)) / s2v
        eff = compose_af_link(h1, w, g, h2, s1v * np.eye(4), s2v * np.eye(2))
        sinr = batched_mmse_sinr(eff.h_eff[None], pre[None], np.ones(1),
                                 eff.r_nn[None])
        if sinr[0, 0, 0] > min(sinr1, snr2) + 1e-9:
            bottleneck_bad += 1

        h_d = _rand_h(rng, 4, 8)
        h_r = _rand_h(rng, 2, 8) * rng.uniform(0.05, 2.0)
        st = stack_rx(
            EffectiveLink(h_d[None], np.eye(4)[None]),
            EffectiveLink(h_r[None], rng.uniform(0.5, 2.0) * np.eye(2)[None]))
        if mutual_information(st.h_eff[0] * 0.3, st.r_nn[0]) < \
                mutual_information(h_d * 0.3, np.eye(4)) - 1e-9:
            stack_bad += 1
    _check(2, "relay bottleneck / stacking dominance on 1000 instances",
           bottleneck_bad == 0 and stack_bad == 0,
           f"{bottleneck_bad} bottleneck and {stack_bad} stacking violations")


def _unit_sinr(h, r_nn, power=1.0):
    """Uncapped SINR (S,) of one single-layer link (h (S, m, 1), r_nn
    (S, m, m)) under the unit precoder, through the drop's MMSE-IRC kernel
    with a batch of one."""
    return batched_mmse_sinr(h[None], np.ones((1, 1, 1)), np.full(1, power),
                             r_nn[None])[0, :, 0]


def test_criterion_3_mmse_closed_forms():
    s_scalar = _unit_sinr(np.ones((1, 1, 1), complex),
                          np.ones((1, 1, 1), complex))
    rng = np.random.default_rng(12)
    h = _rand_h(rng, 4, 1)
    sigma2 = 0.7
    s_mrc = _unit_sinr(h[None], sigma2 * np.eye(4)[None])
    expect = float(np.sum(np.abs(h) ** 2)) / sigma2
    hi = np.array([[1.0 + 0j], [0.0 + 0j]])
    r = np.eye(2, dtype=complex) + 1e6 * np.outer(hi[:, 0], hi[:, 0].conj())
    s_sup = _unit_sinr(hi[None], r[None])
    ok = (abs(s_scalar[0] - 1.0) < 1e-9
          and abs(s_mrc[0] - expect) < 1e-9 * expect
          and s_sup[0] < 1e-5)
    _check(3, "combiner closed forms (unit-SNR, maximum-ratio, suppression)",
           ok, f"scalar {s_scalar[0]:.12f}, mrc err "
               f"{abs(s_mrc[0] - expect):.2e}, leak {s_sup[0]:.2e}")


def test_criterion_4_downlink_diversity_gains():
    base = ScenarioConfig(num_rings=1, ues_per_cell=10, sim_duration_s=0.5,
                          channel_update_slots=25, case=Case.BASELINE,
                          traffic=Ftp3(500_000, 1.0))
    lam, ru = calibrate_load(base.replace(sim_duration_s=0.25), 0.40,
                             tol=0.02, seeds=(0, 1))

    cfg = base.replace(case=Case.DIVERSITY, traffic=Ftp3(500_000, lam))
    pooled = {"baseline": [], "diversity": []}
    for out in map_drops(cfg, range(5)):
        for arm in pooled:
            pooled[arm].extend(out[arm].records)
    s_b = upt_stats(pooled["baseline"])
    s_d = upt_stats(pooled["diversity"])
    edge = 100.0 * (s_d["p5_bps"] - s_b["p5_bps"]) / s_b["p5_bps"]
    mean = 100.0 * (s_d["mean_bps"] - s_b["mean_bps"]) / s_b["mean_bps"]

    fb = run_drop(cfg.replace(traffic=FullBuffer(), sim_duration_s=0.05), 0)
    dominated = bool(np.all(fb["diversity"].served_bytes
                            >= fb["baseline"].served_bytes - 1e-6))

    ok = ru and abs(ru - 0.40) <= 0.02 and edge >= 10.0 and mean >= 10.0 \
        and dominated
    _check(4, "downlink diversity gains at 40% utilization", ok,
           f"RU {ru:.3f}, cell-edge +{edge:.1f}%, mean +{mean:.1f}%, "
           f"full-buffer dominance {dominated}")


def test_criterion_5_uplink_rank_gains():
    cfg = ScenarioConfig(num_rings=1, ues_per_cell=10, sim_duration_s=0.5,
                         case=Case.RANK_AUG, traffic=Ftp3(500_000, 2.0))
    pooled = {"legacy_2ca": [], "collab": []}
    weak = []
    for out in map_drops(cfg, range(4)):
        for arm in pooled:
            pooled[arm].extend(out[arm].records)
        weak.append(out["collab"].path_share_relayed)
    s_l = upt_stats(pooled["legacy_2ca"])
    s_c = upt_stats(pooled["collab"])
    edge = 100.0 * (s_c["p5_bps"] - s_l["p5_bps"]) / s_l["p5_bps"]
    mean = 100.0 * (s_c["mean_bps"] - s_l["mean_bps"]) / s_l["mean_bps"]
    weak_share = float(np.mean(weak))
    ok = weak_share >= 0.30 and edge > 0.0 and edge >= mean >= 0.0
    _check(5, "uplink rank-augmentation gains with weak high-band users", ok,
           f"weak share {weak_share:.2f}, cell-edge +{edge:.1f}%, "
           f"mean +{mean:.1f}%")


def test_criterion_6_localization_ladder():
    cfg = ScenarioConfig(loc_users=200, loc_snr_db=10.0)
    res = {c: run_loc_experiment(cfg.replace(case=c), seed=0)
           for c in (Case.LOC1, Case.LOC2, Case.LOC3)}
    med = {c: median_aoa_error(r) for c, r in res.items()}
    e1 = np.array([r.aoa_err_deg for r in res[Case.LOC1]])
    e2 = np.array([r.aoa_err_deg for r in res[Case.LOC2]])
    wins = int(np.sum(e2 < e1))
    p = stats.binomtest(wins, len(e1), 0.5, alternative="greater").pvalue
    reduction = 100.0 * (1.0 - med[Case.LOC2] / med[Case.LOC1])
    ok = (med[Case.LOC1] > 20.0 and reduction >= 80.0
          and med[Case.LOC3] <= med[Case.LOC2] and p < 0.05)
    _check(6, "3D direction-finding ladder across device ensembles", ok,
           f"medians {med[Case.LOC1]:.1f}/{med[Case.LOC2]:.2f}/"
           f"{med[Case.LOC3]:.2f} deg, reduction {reduction:.1f}%, "
           f"sign-test p {p:.1e}")


def test_criterion_7_noncoherent_phase_and_order_invariance():
    rng = np.random.default_rng(13)
    f_ghz = 2.0
    lam2 = 0.5 * 3e8 / (f_ghz * 1e9)
    d1 = (np.zeros(3), np.eye(3), ula(2, lam2))
    d2 = (np.array([0.3, 0.0, -0.5]), rot_z(90.0), ula(2, lam2))
    va = build_virtual_array([d1, d2])
    va_sw = build_virtual_array([d2, d1])
    from devmimo import steering_vector
    a = steering_vector(va, 40.0, 25.0, f_ghz)
    x = a[:, None] * np.exp(1j * rng.uniform(0, 2 * np.pi, 32))[None]
    x += 0.05 * (rng.standard_normal(x.shape)
                 + 1j * rng.standard_normal(x.shape))
    grids = (np.arange(-180.0, 180.0, 5.0), np.arange(0.0, 90.0, 5.0))
    base = grid_spectrum(va, _device_covariances(va, x), *grids, f_ghz,
                         "bartlett")
    peak = np.argmax(base)
    max_dev = 0.0
    order_dev = np.max(np.abs(
        grid_spectrum(va_sw, _device_covariances(
            va_sw, np.concatenate([x[2:], x[:2]])), *grids, f_ghz, "bartlett")
        - base))
    ok_arg = True
    for _ in range(1000):
        y = x.copy()
        y[:2] *= np.exp(1j * rng.uniform(0, 2 * np.pi))
        y[2:] *= np.exp(1j * rng.uniform(0, 2 * np.pi))
        s = grid_spectrum(va, _device_covariances(va, y), *grids, f_ghz,
                          "bartlett")
        max_dev = max(max_dev, float(np.max(np.abs(s - base))))
        ok_arg = ok_arg and (np.argmax(s) == peak)
    scale = float(np.max(base))
    ok = max_dev <= 1e-12 * scale and order_dev <= 1e-12 * scale and ok_arg
    _check(7, "per-device phase and ordering leave the spectrum unchanged",
           ok, f"max deviation {max_dev:.2e} over 1000 draws, "
               f"argmax stable {ok_arg}")


def test_criterion_8_traffic_and_scheduler_statistics():
    tr = Ftp3(file_bytes=500_000, lambda_per_s=0.5)
    rng = np.random.default_rng(14)
    counts = [len(ftp3_arrivals(tr, 1, 200.0, rng)) for _ in range(100)]
    mean_ok = abs(np.mean(counts) - 100.0) <= 3.0

    tr2 = Ftp3(file_bytes=500_000, lambda_per_s=2.0)
    ev = ftp3_arrivals(tr2, 1, 2000.0, np.random.default_rng(15))
    gaps = np.diff([e.t_arrival_s for e in ev])
    p_ks = stats.kstest(gaps, "expon", args=(0.0, 0.5)).pvalue

    rng = np.random.default_rng(16)
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

    ok = mean_ok and p_ks > 0.01 and jain >= 0.9
    _check(8, "arrival statistics and long-run scheduler fairness", ok,
           f"count mean {np.mean(counts):.1f}, KS p {p_ks:.3f}, "
           f"Jain {jain:.3f}")


def test_criterion_9_byte_identical_reruns(tmp_path):
    scen = ScenarioConfig(num_rings=0, ues_per_cell=2, sim_duration_s=0.05,
                          loc_users=4, traffic=Ftp3(100_000, 2.0))
    blobs = []
    for sub in ("a", "b"):
        plan = ExperimentPlan(scen, cases=(Case.DIVERSITY, Case.LOC1),
                              seeds=(0, 1), out_dir=str(tmp_path / sub))
        run_experiment(plan)
        blobs.append({f: (tmp_path / sub / f).read_bytes()
                      for f in ("records.csv", "loc_results.csv",
                                "summary.json")})
    ok = blobs[0] == blobs[1]
    _check(9, "identical plan and seeds give byte-identical outputs", ok,
           "records.csv, loc_results.csv, summary.json compared")


def test_criterion_10_formula_spot_checks():
    vals = {
        "los pathloss": (pathloss(100.0, 2.0, True), 78.02),
        "nlos pathloss": (pathloss(100.0, 2.0, False), 97.72),
        "free space 1m/6GHz": (friis_db(1.0, 6.0), 48.01),
        "relay gain dB": (20.0 * math.log10(relay_gain(-60.0, 14.0)), 74.0),
    }
    one = np.ones((1, 1, 1), complex)
    eff = compose_af_link(one, np.ones((1, 1), complex), 2.0, one, one, one)
    sinr = _unit_sinr(eff.h_eff, eff.r_nn, power=4.0)
    vals["scalar relay sinr"] = (float(sinr[0]), 3.2)
    bad = {k: v for k, (v, ref) in vals.items() if abs(v - ref) >= 0.01}
    _check(10, "propagation and relay formula spot checks", not bad,
           ", ".join(f"{k} {v:.2f}/{ref}" for k, (v, ref) in vals.items()))
