"""The refresh contract both engines keep, and the DL refresh pinned to a
reference that keeps the composite relay formulas: the relay precoder
from the stacked primary-side channels h_local (x) w H_sh, the first-hop
gain as w (H_sh p), the f_H interference covariance as one einsum, and
the relayed link written out entry by entry with the forwarded noise
w R1 w^H of every subband; the reference realizes each interferer family
whole, where the engine contracts it rank by rank.  A refresh replays
from the draws before it, and never holds an interferer family whole.  A
drop's bytes do not depend on how many processes a plan's drops run in,
and no kernel starts a thread."""

import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from devmimo import Case, ScenarioConfig, _blocks, engine, simloop
from devmimo.collab import relay_rx_beamformer
from devmimo.phy import (batched_beam_precoder, batched_mmse_se,
                         batched_rank_select)


def _reference_refresh(eng, rr):
    """The direct and best relayed rates of a diversity DlEngine.refresh(rr)
    with the composite relay formulas; the links are realized whole, family
    by family, from the engine's draw step."""
    geo, cfg = eng.geo, eng.geo.cfg
    u_n, serving = geo.n_ues, geo.serving
    all_u = np.arange(u_n)
    rays_serv, rays_prim, rays_sh, rays_help, rays_fh = eng.draw()

    h_serv = eng._links(rays_serv, geo.prim, serving, all_u, "fl",
                        eng.ue_elem)
    h_int = eng._links(rays_prim, geo.prim, eng.interf_prim[0],
                       all_u[:, None], "fl", eng.ue_elem)
    ranks, v = batched_rank_select(
        h_serv, np.full(u_n, eng.p_sb_w), eng.noise_ue_w,
        min(cfg.ue_dl_config[1], cfg.bs_ports))
    pmat = batched_beam_precoder(h_serv, ranks, v=v)
    p_layer = eng.p_sb_w / ranks
    tx = geo.round_robin(rr)
    on = tx >= 0
    q_cell = np.where(on[:, None, None], pmat[tx], 0.0)
    ql_cell = np.where(on, p_layer[tx], 0.0)

    def victim_r(h_i, pair, noise_w):
        interf, res = pair
        b = np.einsum("ukswn,uknr->ukswr", h_i, q_cell[interf], optimize=True)
        r = np.einsum("uk,ukswr,uksvr->uswv", ql_cell[interf], b, b.conj(),
                      optimize=True)
        eye = np.eye(h_i.shape[3])
        return r + (noise_w + res * eng.p_sb_w)[:, None, None, None] * eye

    r_prim = victim_r(h_int, eng.interf_prim, eng.noise_ue_w)
    direct = batched_mmse_se(h_serv, pmat, p_layer, r_prim) * cfg.subband_hz

    h_sh = eng._links(rays_sh, geo.help, serving, all_u, "fl", eng.help_elem)
    h_ih = eng._links(rays_help, geo.help, eng.interf_help[0],
                      all_u[:, None], "fl", eng.help_elem)
    r_help = victim_r(h_ih, eng.interf_help, eng.noise_help_w)
    n_str = min(cfg.relay_streams, eng.help_elem.shape[0], cfg.bs_ports)
    w = relay_rx_beamformer(h_sh, r_help, n_str)
    h_fh = eng._links(rays_fh, geo.prim, eng.interf_fh[0], all_u[:, None],
                      "fh", eng.ue_elem)
    r_fh = np.einsum("ukswn,uksvn->uswv", h_fh, h_fh.conj(), optimize=True) \
        * (eng.p_sb_w * cfg.fh_activity / cfg.bs_ports)
    r_fh = r_fh + (eng.noise_ue_w + eng.interf_fh[1] * cfg.fh_activity
                   * eng.p_sb_w)[:, None, None, None] \
        * np.eye(eng.ue_elem.shape[0])
    wh = np.einsum("uom,usmn->uson", w, h_sh, optimize=True)
    h_out = [eng.h_local @ wh[:, :, o:o + 1, :] for o in range(n_str)]
    # forwarded first-hop noise w R1[s] w^H on every subband
    wr = np.einsum("uom,usmn,upn->usop", w, r_help, w.conj(), optimize=True)
    nse = np.mean(np.diagonal(wr, axis1=2, axis2=3).real, axis=1)
    hl = eng.h_local[:, 0, :, 0]                                  # (U, m)
    m = hl.shape[1]

    cand = []
    for k in range(1, n_str + 1):
        ranks_k = np.full(u_n, k)
        p_rel = batched_beam_precoder(np.concatenate(h_out[:k], axis=2),
                                      ranks_k)
        a1 = np.einsum("uom,usmr->usor", w[:, :k], h_sh @ p_rel[:, None])
        sig = np.mean(np.sum(np.abs(a1) ** 2, axis=3), axis=1) \
            * (eng.p_sb_w / k)
        g = np.sqrt(engine.dbm_to_w(cfg.relay_max_tx_dbm) / k
                    / (sig + nse[:, :k]))
        # stream o reaches the primary as g_o h_local (w H_sh)_o on its own
        # f_H chunk; chunks o, q share the noise g_o g_q (w R1 w^H)_oq
        # h_local h_local^H, and each carries its own r_fh
        h_eff = np.einsum("uo,ua,uson->usoan", g, hl, wh[:, :, :k],
                          optimize=True).reshape(u_n, -1, k * m, wh.shape[3])
        r_eff = np.einsum("uo,uq,usoq,ua,ub->usoaqb", g, g, wr[:, :, :k, :k],
                          hl, hl.conj(), optimize=True)
        for o in range(k):
            r_eff[:, :, o, :, o, :] += r_fh
        r_eff = r_eff.reshape(u_n, -1, k * m, k * m)
        cand.append(batched_mmse_se(h_eff, p_rel, eng.p_sb_w / ranks_k,
                                    r_eff) * cfg.subband_hz)
    best = np.argmax(np.stack([c.sum(axis=1) for c in cand]), axis=0)
    return {"direct": direct,
            "relayed": np.stack(cand)[best, np.arange(u_n)]}


@pytest.mark.parametrize("rings", [0, 1])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_relay_arm_matches_composite_reference(rings, seed):
    cfg = ScenarioConfig(num_rings=rings, case=Case.DIVERSITY)
    geo = engine.build_drop_geometry(cfg, seed)
    eng = engine.make_dl_engine(geo, seed)
    ref = engine.make_dl_engine(geo, seed)
    for rr in range(3):
        (got_direct,), (got_div,) = eng.refresh(rr)[0].values()
        want = _reference_refresh(ref, rr)
        assert np.array_equal(got_direct, want["direct"])
        assert np.all(want["relayed"] > 0.0)
        # the diversity arm takes the better path per subband
        want_div = np.where(want["relayed"] > want["direct"],
                            want["relayed"], want["direct"])
        np.testing.assert_allclose(got_div, want_div, rtol=1e-9, atol=0.0)


def test_each_engine_picks_its_interferers_by_coupling():
    # one UE per cell leaves cells empty: the UL rule skips them as victims.
    # Co-sited sectors can tie (shared shadowing, pattern floor), so the
    # picks are checked by their couplings, ties in any order
    cfg = ScenarioConfig(num_rings=1, ues_per_cell=1, case=Case.DIVERSITY)
    geo = engine.build_drop_geometry(cfg, 0)
    assert any(len(ues) == 0 for ues in geo.ue_of_cell)
    k = min(cfg.max_interferers, geo.n_cells - 1)

    def coupling(dev, band):
        return -dev.loss[band] + dev.pat_db

    dl = engine.make_dl_engine(geo, 0)
    for (cells, res), dev, band, skip_serving in [
            (dl.interf_prim, geo.prim, "fl", True),
            (dl.interf_help, geo.help, "fl", True),
            (dl.interf_fh, geo.prim, "fh", False)]:
        coup = coupling(dev, band)
        assert cells.shape == (geo.n_ues, k) and res.shape == (geo.n_ues,)
        for u in range(geo.n_ues):
            cand = [c for c in range(geo.n_cells)
                    if not (skip_serving and c == geo.serving[u])]
            assert len(set(cells[u])) == k and set(cells[u]) <= set(cand)
            assert list(coup[cells[u], u]) == sorted(coup[cand, u],
                                                     reverse=True)[:k]
            lin = {c: 10.0 ** (coup[c, u] / 10.0) for c in cand}
            rest = sum(lin[c] for c in cand if c not in cells[u])
            # a difference of sums: rounding scales with the whole sum
            assert res[u] == pytest.approx(rest, rel=0.0,
                                           abs=1e-12 * sum(lin.values()))

    ul = engine.make_ul_engine(geo, 0)
    coup = coupling(geo.prim, "fl")
    assert ul.neighbor_cells.shape == (geo.n_cells, k)
    for c, ues in enumerate(geo.ue_of_cell):
        if len(ues):
            score = {j: np.mean(coup[j, ues]) for j in range(geo.n_cells)
                     if j != c}
            row = ul.neighbor_cells[c]
            assert len(set(row)) == k and c not in row
            assert [score[j] for j in row] == sorted(score.values(),
                                                     reverse=True)[:k]


ARMS = {Case.BASELINE: ["baseline"], Case.DIVERSITY: ["baseline", "diversity"],
        Case.RANK_AUG: ["legacy_2ca", "collab"]}


@pytest.mark.parametrize("case", list(ARMS), ids=lambda c: c.value)
def test_refresh_contract(case):
    """Each engine returns ({arm: per-band (U, S) tables}, relayed (U,)),
    reference arm first: one band on the DL, f_L and f_H on the UL."""
    cfg = ScenarioConfig(num_rings=0, ues_per_cell=2, case=case)
    geo = engine.build_drop_geometry(cfg, 0)
    make = engine.make_ul_engine if case is Case.RANK_AUG \
        else engine.make_dl_engine
    arms, relayed = make(geo, 0).refresh(0)
    assert list(arms) == ARMS[case]
    for tables in arms.values():
        assert len(tables) == (2 if case is Case.RANK_AUG else 1)
        for t in tables:
            assert t.shape == (geo.n_ues, cfg.n_subbands)
            assert np.all(np.isfinite(t)) and np.all(t >= 0.0)
    assert relayed.shape == (geo.n_ues,) and relayed.dtype == bool

    if case is Case.BASELINE:
        assert not relayed.any()
    elif case is Case.DIVERSITY:
        (base,), (div,) = arms.values()
        assert np.all(div >= base)
        assert np.array_equal(relayed, (div > base).any(axis=1))
        # the relay links are drawn after the direct ones, so refresh 0's
        # baseline arm is a baseline drop's refresh 0
        cfg0 = cfg.replace(case=Case.BASELINE)
        eng0 = engine.make_dl_engine(engine.build_drop_geometry(cfg0, 0), 0)
        assert np.array_equal(eng0.refresh(0)[0]["baseline"][0], base)
    else:
        noise_dbm = 10.0 * np.log10(1e3 * engine.thermal_noise_w(
            cfg.n_prb * cfg.prb_hz, engine.NF_BS_DB))
        loss = geo.prim.loss["fh"][geo.serving, np.arange(geo.n_ues)]
        snr_db = cfg.ue_max_tx_dbm - loss - noise_dbm
        assert np.array_equal(relayed, snr_db < cfg.semistatic_threshold_db)


def _refresh_bits(out):
    arms, relayed = out
    return [(name, [t.tobytes() for t in tables])
            for name, tables in arms.items()], relayed.tobytes()


@pytest.mark.parametrize("case", list(ARMS), ids=lambda c: c.value)
def test_a_refresh_replays_from_the_draws_before_it(case):
    # the seam a chunked drop needs: a worker that runs only the draw step
    # of refreshes 0..i-1 and then refresh(i) gets the sequential refresh i
    cfg = ScenarioConfig(num_rings=0, ues_per_cell=4, case=case)
    geo = engine.build_drop_geometry(cfg, 1)
    make = engine.make_ul_engine if case is Case.RANK_AUG \
        else engine.make_dl_engine
    if case is Case.RANK_AUG:
        assert make(geo, 1).weak.any()
    seq = make(geo, 1)
    want = [_refresh_bits(seq.refresh(rr)) for rr in range(3)]
    for i in range(3):
        eng = make(geo, 1)
        for _ in range(i):
            eng.draw()
        assert _refresh_bits(eng.refresh(i)) == want[i]
    # the draw step makes every draw of a refresh
    drawn, refreshed = make(geo, 1), make(geo, 1)
    for rr in range(3):
        drawn.draw()
        refreshed.refresh(rr)
        assert drawn.rng.bit_generator.state == \
            refreshed.rng.bit_generator.state


def test_a_refresh_never_holds_an_interferer_family_whole():
    # a 1-ring baseline refresh contracts its interferers rank by rank, so
    # its traced peak stays below one family's (U, K, S, m, n) link tensor
    cfg = ScenarioConfig(num_rings=1, case=Case.BASELINE)
    eng = engine.make_dl_engine(engine.build_drop_geometry(cfg, 0), 0)
    u_n, k_n = eng.interf_prim[0].shape
    family = u_n * k_n * cfg.n_subbands * eng.ue_elem.shape[0] \
        * eng.bs_elem.shape[0] * np.dtype(complex).itemsize
    tracemalloc.start()
    try:
        eng.refresh(0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < family


@pytest.mark.parametrize("case", list(ARMS), ids=lambda c: c.value)
def test_no_exact_interferer_leaves_only_the_residual_power(case):
    # max_interferers = 0: every family is empty, and each covariance is
    # the noise plus every other cell's large-scale power
    cfg = ScenarioConfig(num_rings=0, ues_per_cell=2, case=case,
                         max_interferers=0)
    geo = engine.build_drop_geometry(cfg, 0)
    if case is Case.RANK_AUG:
        eng = engine.make_ul_engine(geo, 0)
        assert eng.neighbor_cells.shape == (geo.n_cells, 0)
    else:
        eng = engine.make_dl_engine(geo, 0)
        assert eng.interf_prim[0].shape == (geo.n_ues, 0)
    arms, _ = eng.refresh(0)
    assert list(arms) == ARMS[case]
    for tables in arms.values():
        for t in tables:
            assert np.all(np.isfinite(t)) and np.all(t >= 0.0)


def _drop_bits(drops):
    return [[(name, st.records, st.resource_utilization,
              st.served_bytes.tobytes(), st.path_share_relayed)
             for name, st in drop.items()] for drop in drops]


@pytest.mark.parametrize("case,threshold_db", [
    (Case.BASELINE, 10.0), (Case.DIVERSITY, 10.0), (Case.RANK_AUG, 10.0),
    (Case.RANK_AUG, -1e3)], ids=["baseline", "diversity", "rank",
                                 "rank-no-weak-user"])
def test_drop_bytes_do_not_depend_on_the_cpu_count(case, threshold_db,
                                                   monkeypatch):
    # three seeds' drops on 1, 2 and 3 CPUs run in 1, 2 and 3 processes
    # and give the bytes of one process
    cfg = ScenarioConfig(num_rings=0, ues_per_cell=4, sim_duration_s=0.02,
                         case=case, semistatic_threshold_db=threshold_db)
    geo = engine.build_drop_geometry(cfg, 1)
    if case is Case.RANK_AUG:
        assert engine.make_ul_engine(geo, 1).weak.any() == (threshold_db > 0)
    seeds = (0, 1, 2)
    want = _drop_bits(simloop.run_drop(cfg, s) for s in seeds)
    for cpus in (1, 2, 3):
        monkeypatch.setattr(_blocks, "_workers", lambda: cpus - 1)
        assert _drop_bits(simloop.map_drops(cfg, seeds)) == want


def _pid_and_double(cfg, item):
    return os.getpid(), cfg * item


def test_the_process_map_runs_where_os_reports_no_affinity(monkeypatch):
    # os.sched_getaffinity exists only on Linux; elsewhere the map takes
    # one process per CPU that os.cpu_count() counts
    monkeypatch.delattr(os, "sched_getaffinity")
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    assert _blocks._workers() == 2
    got = _blocks.map_items(_pid_and_double, 2, range(5), _pid_and_double)
    assert [x for _, x in got] == [0, 2, 4, 6, 8]
    pids = [pid for pid, _ in got]
    assert pids[0::3] == [os.getpid()] * 2
    assert len(set(pids)) == 3


# a one-seed drop and a localization trial in a fresh interpreter, on 3
# usable CPUs: no earlier test has left a thread there
_NO_THREAD = """
import os, threading
os.sched_getaffinity = lambda pid: {0, 1, 2}
from devmimo import Case, ScenarioConfig, run_drop, run_loc_experiment
before = threading.enumerate()
run_drop(ScenarioConfig(num_rings=0, ues_per_cell=4, sim_duration_s=0.02,
                        case=Case.DIVERSITY), 0)
run_loc_experiment(ScenarioConfig(loc_users=1, case=Case.LOC3), 0)
after = threading.enumerate()
assert after == before, after
"""


def test_a_drop_and_a_trial_start_no_thread():
    # every kernel runs its batch in one call in the calling thread
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    res = subprocess.run([sys.executable, "-c", _NO_THREAD], env=env,
                         capture_output=True, text=True, timeout=300)
    assert res.returncode == 0, res.stderr
