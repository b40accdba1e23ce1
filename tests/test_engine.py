"""The refresh contract both engines keep, and the DL refresh pinned to a
reference that keeps the composite relay formulas: the relay precoder
from the stacked primary-side channels h_local (x) w H_sh, the first-hop
gain as w (H_sh p), the f_H interference covariance as one einsum, and
the relayed link written out entry by entry with the forwarded noise
w R1 w^H of every subband.  A drop's bytes do not depend on how many
CPUs its kernels' row blocks run on, and a forked child runs them too."""

import importlib.util
import multiprocessing
import os
import sys
import threading
import time

import numpy as np
import pytest

from devmimo import Case, ScenarioConfig, _blocks, engine, phy, simloop
from devmimo.collab import relay_rx_beamformer
from devmimo.phy import (batched_beam_precoder, batched_mmse_se,
                         batched_rank_select)


def _reference_refresh(eng, rr):
    """The direct and best relayed rates of a diversity DlEngine.refresh(rr)
    with the composite relay formulas; the links are drawn in the engine's
    order from the engine's generator."""
    geo, cfg = eng.geo, eng.geo.cfg
    u_n, serving = geo.n_ues, geo.serving
    all_u = np.arange(u_n)

    h_serv = eng._links(geo.prim, serving, all_u, "fl", eng.ue_elem)
    h_int = eng._links(geo.prim, geo.interf_prim, all_u[:, None], "fl",
                       eng.ue_elem)
    ranks, v = batched_rank_select(
        h_serv, np.full(u_n, eng.p_sb_w), eng.noise_ue_w,
        min(cfg.ue_dl_config[1], cfg.bs_ports))
    pmat = batched_beam_precoder(h_serv, ranks, v=v)
    p_layer = eng.p_sb_w / ranks
    tx = geo.round_robin(rr)
    on = tx >= 0
    q_cell = np.where(on[:, None, None], pmat[tx], 0.0)
    ql_cell = np.where(on, p_layer[tx], 0.0)

    def victim_r(h_i, interf, res, noise_w):
        b = np.einsum("ukswn,uknr->ukswr", h_i, q_cell[interf], optimize=True)
        r = np.einsum("uk,ukswr,uksvr->uswv", ql_cell[interf], b, b.conj(),
                      optimize=True)
        eye = np.eye(h_i.shape[3])
        return r + (noise_w + res * eng.p_sb_w)[:, None, None, None] * eye

    r_prim = victim_r(h_int, geo.interf_prim, geo.res_fl_prim, eng.noise_ue_w)
    direct = batched_mmse_se(h_serv, pmat, p_layer, r_prim) * cfg.subband_hz

    h_sh = eng._links(geo.help, serving, all_u, "fl", eng.help_elem)
    h_ih = eng._links(geo.help, geo.interf_help, all_u[:, None], "fl",
                      eng.help_elem)
    r_help = victim_r(h_ih, geo.interf_help, geo.res_fl_help,
                      eng.noise_help_w)
    n_str = min(cfg.relay_streams, eng.help_elem.shape[0], cfg.bs_ports)
    w = relay_rx_beamformer(h_sh, r_help, n_str)
    h_fh = eng._links(geo.prim, geo.interf_fh_prim, all_u[:, None], "fh",
                      eng.ue_elem)
    r_fh = np.einsum("ukswn,uksvn->uswv", h_fh, h_fh.conj(), optimize=True) \
        * (eng.p_sb_w * cfg.fh_activity / cfg.bs_ports)
    r_fh = r_fh + (eng.noise_ue_w + geo.res_fh_prim * cfg.fh_activity
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


def _drop_bits(cfg):
    return [(name, st.records, st.resource_utilization,
             st.served_bytes.tobytes(), st.path_share_relayed)
            for name, st in simloop.run_drop(cfg, 1).items()]


@pytest.mark.parametrize("case,threshold_db", [
    (Case.BASELINE, 10.0), (Case.DIVERSITY, 10.0), (Case.RANK_AUG, 10.0),
    (Case.RANK_AUG, -1e3)], ids=["baseline", "diversity", "rank",
                                 "rank-no-weak-user"])
def test_drop_bytes_do_not_depend_on_the_cpu_count(case, threshold_db,
                                                   monkeypatch):
    cfg = ScenarioConfig(num_rings=0, ues_per_cell=4, sim_duration_s=0.02,
                         case=case, semistatic_threshold_db=threshold_db)
    geo = engine.build_drop_geometry(cfg, 1)
    if case is Case.RANK_AUG:
        assert engine.make_ul_engine(geo, 1).weak.any() == (threshold_db > 0)
    monkeypatch.setattr(_blocks, "BLOCK_ROWS", 5)
    got = []
    for cpus in (1, 2, 3):
        monkeypatch.setattr(_blocks, "_workers", lambda: cpus - 1)
        got.append(_drop_bits(cfg))
    assert got[1] == got[0] and got[2] == got[0]


def test_a_1_ring_refresh_splits_its_solves_per_matrix(monkeypatch):
    # the solves split per (covariance, subband) system, so the 1-ring
    # UL's 126 systems of order 32 and the DL's 1 260 per-UE 4x4 systems
    # both reach the pool thread
    monkeypatch.setattr(_blocks, "_workers", lambda: 1)
    caller = threading.get_ident()
    solves = []
    rows = _blocks._rows

    def record(fn, arrays, b):
        if fn is np.linalg.solve:
            if threading.get_ident() == caller:
                time.sleep(0.02)      # a started pool thread takes a block
            solves.append((arrays[0].shape[1:], threading.get_ident()))
        return rows(fn, arrays, b)

    monkeypatch.setattr(_blocks, "_rows", record)
    cfg = ScenarioConfig(num_rings=1, case=Case.RANK_AUG)
    engine.make_ul_engine(engine.build_drop_geometry(cfg, 0), 0).refresh(0)
    assert {shape for shape, _ in solves} == {(32, 32)}
    assert {t for _, t in solves} - {caller}

    solves.clear()
    cfg = cfg.replace(case=Case.BASELINE)
    engine.make_dl_engine(engine.build_drop_geometry(cfg, 0), 0).refresh(0)
    assert {shape for shape, _ in solves} == {(4, 4)}
    assert {t for _, t in solves} - {caller}


def test_a_1_ring_refresh_splits_its_per_ue_batches(monkeypatch):
    # on 2 CPUs the DL's 210 UE rows split in two, so the rank selection's
    # SVD and the beam precoder reach the pool thread, and so does the
    # UL's stacked rank selection of its weak users
    monkeypatch.setattr(_blocks, "_workers", lambda: 1)
    caller = threading.get_ident()
    pooled = set()
    rows = _blocks._rows

    def record(fn, arrays, b):
        if threading.get_ident() == caller:
            time.sleep(0.02)          # a started pool thread takes a block
        else:
            pooled.add(getattr(fn, "func", fn).__name__)
        return rows(fn, arrays, b)

    monkeypatch.setattr(_blocks, "_rows", record)
    cfg = ScenarioConfig(num_rings=1, case=Case.BASELINE)
    engine.make_dl_engine(engine.build_drop_geometry(cfg, 0), 0).refresh(0)
    assert {"_rank_select_rows", "_beam_precoder_rows"} <= pooled

    calls = []
    rank_rows = phy._rank_select_rows

    def rank_record(h, *args, **kwargs):
        calls.append((h.shape, threading.get_ident()))
        return rank_rows(h, *args, **kwargs)

    monkeypatch.setattr(phy, "_rank_select_rows", rank_record)
    cfg = cfg.replace(case=Case.RANK_AUG)
    eng = engine.make_ul_engine(engine.build_drop_geometry(cfg, 0), 0)
    eng.refresh(0)
    n_tx = 2 * cfg.ue_ul_config[0]         # direct plus relayed columns
    stacked = [(shape[0], t) for shape, t in calls if shape[-1] == n_tx]
    assert sum(n for n, _ in stacked) == eng.weak.sum()
    assert {t for _, t in stacked} - {caller}


def _fork_child():
    """A tiny refresh, then exit 1 unless row blocks reach a pool thread."""
    cfg = ScenarioConfig(num_rings=0, ues_per_cell=4, case=Case.DIVERSITY)
    engine.make_dl_engine(engine.build_drop_geometry(cfg, 0), 0).refresh(0)
    threads = set()

    def body(rows):
        threads.add(threading.get_ident())
        time.sleep(0.01)
        return rows

    _blocks.map_rows(body, np.arange(20))
    sys.exit(0 if len(threads) > 1 else 1)


def test_a_forked_child_runs_the_kernels_on_its_own_pool(monkeypatch):
    # a forked child has none of the parent's pool threads, so it must
    # make its own pool
    monkeypatch.setattr(_blocks, "BLOCK_ROWS", 5)
    monkeypatch.setattr(_blocks, "_workers", lambda: 1)
    cfg = ScenarioConfig(num_rings=0, ues_per_cell=4, case=Case.DIVERSITY)
    engine.make_dl_engine(engine.build_drop_geometry(cfg, 0), 0).refresh(0)
    assert _blocks._pool is not None
    child = multiprocessing.get_context("fork").Process(target=_fork_child)
    child.start()
    child.join(timeout=30)
    if child.is_alive():
        child.kill()
        child.join()
    assert child.exitcode == 0


def test_the_row_map_runs_where_os_reports_no_affinity(monkeypatch):
    # os.sched_getaffinity exists only on Linux; elsewhere the pool takes
    # one thread per further CPU of os.cpu_count()
    cfg = ScenarioConfig(num_rings=0, ues_per_cell=4, case=Case.DIVERSITY)
    geo = engine.build_drop_geometry(cfg, 0)
    with monkeypatch.context() as one_cpu:
        one_cpu.setattr(_blocks, "_workers", lambda: 0)
        want = engine.make_dl_engine(geo, 0).refresh(0)
    monkeypatch.delattr(os, "sched_getaffinity")
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    monkeypatch.setattr(_blocks, "BLOCK_ROWS", 5)
    assert _blocks._workers() == 2
    threads = set()

    def body(rows):
        threads.add(threading.get_ident())
        time.sleep(0.01)
        return rows

    assert np.array_equal(_blocks.map_rows(body, np.arange(20)),
                          np.arange(20))
    assert len(threads) > 1
    arms, relayed = engine.make_dl_engine(geo, 0).refresh(0)
    assert arms.keys() == want[0].keys() and all(
        np.array_equal(a, b) for name in arms
        for a, b in zip(arms[name], want[0][name]))
    assert np.array_equal(relayed, want[1])


def test_the_row_map_imports_where_os_cannot_fork(monkeypatch):
    # Windows has no os.register_at_fork, and no forked child to reset
    monkeypatch.delattr(os, "register_at_fork")
    spec = importlib.util.spec_from_file_location("rows_without_fork",
                                                  _blocks.__file__)
    rows = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(rows)
    monkeypatch.setattr(rows, "_workers", lambda: 1)
    try:
        assert np.array_equal(rows.map_rows(lambda r: 2 * r, np.arange(600)),
                              2 * np.arange(600))
    finally:
        if rows._pool is not None:
            rows._pool[1].shutdown()
