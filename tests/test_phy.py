"""Precoding, combining, and link-adaptation closed-form checks, and the
batched kernels' bits through the process map."""

import math
import tracemalloc

import numpy as np
import pytest

from devmimo import _blocks, effective_se, sinr_to_se
from devmimo.channel import realize_links
from devmimo.collab import relay_rx_beamformer
from devmimo.phy import (SE_CAP_BPS_HZ, _dft_beams, batched_beam_precoder,
                         batched_mmse_se, batched_mmse_sinr,
                         batched_rank_select, interference_cov)
from devmimo.scenario import bs_port_array, rot_z, ue_array
from reference import mutual_information


def _rand_h(rng, m, n):
    return (rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))) \
        / math.sqrt(2.0)


def test_beam_codebook_recovers_a_pure_grid_beam():
    n_tx = 8
    b = _dft_beams(n_tx, 0)[:, 3]
    h = np.outer(np.ones(2), b.conj())                 # rank-1 along beam 3
    p = batched_beam_precoder(h[None, None], np.array([1]))
    assert p.shape == (1, n_tx, 1)
    chordal = 1.0 - abs(np.vdot(p[0, :, 0], b)) ** 2
    assert chordal < 1e-9


def test_beam_codebook_quantization_keeps_half_the_capacity():
    rng = np.random.default_rng(1)
    h = np.stack([_rand_h(rng, 4, 16) for _ in range(200)])
    p = batched_beam_precoder(h[:, None], np.full(200, 2))
    for hu, pu in zip(h, p):
        ref = np.linalg.svd(hu)[2][:2].conj().T        # top right singular
        c = mutual_information(hu @ pu * math.sqrt(0.5), np.eye(4))
        c_ref = mutual_information(hu @ ref * math.sqrt(0.5), np.eye(4))
        assert c >= 0.5 * c_ref


def _sinr_one(h, r):
    """Uncapped SINR of one single-subband, single-layer link (h (m, 1),
    r (m, m), unit transmit power) through the drop's kernel with a batch
    of one."""
    sinr = batched_mmse_sinr(h[None, None], np.ones((1, 1, 1)), np.ones(1),
                             r[None, None])
    assert sinr.shape == (1, 1, 1)
    return sinr[0, 0, 0]


def test_mmse_scalar_unit_snr():
    sinr = _sinr_one(np.array([[1.0 + 0j]]), np.array([[1.0 + 0j]]))
    assert abs(sinr - 1.0) < 1e-9


def test_mmse_two_antenna_maximum_ratio_gain():
    h = np.array([[1.0 + 0j], [1.0 + 0j]])
    sinr = _sinr_one(h, np.eye(2, dtype=complex))
    assert abs(sinr - 2.0) < 1e-9


def test_mmse_suppresses_codirectional_interference():
    h = np.array([[1.0 + 0j], [0.0 + 0j]])
    r = np.eye(2, dtype=complex) + 1e6 * np.outer(h[:, 0], h[:, 0].conj())
    sinr = _sinr_one(h, r)
    assert sinr < 1e-5


def test_mmse_never_below_matched_filter():
    rng = np.random.default_rng(2)
    for _ in range(100):
        h = _rand_h(rng, 4, 1)
        v = _rand_h(rng, 4, 1)[:, 0]
        r = np.eye(4, dtype=complex) + 5.0 * np.outer(v, v.conj())
        sinr = _sinr_one(h, r)
        w = h[:, 0]
        mrc = abs(np.vdot(w, h[:, 0])) ** 2 / \
            np.real(w.conj() @ r @ w)
        assert sinr >= mrc - 1e-9


def test_mmse_se_caps_and_masks_the_uncapped_sinr():
    # one layer at SINR 1e3, above the cap: the SINR comes back as is, the
    # SE at the cap
    h = np.full((1, 1, 1, 1), math.sqrt(1e3), complex)
    one, r = np.ones((1, 1, 1)), np.ones((1, 1, 1, 1), complex)
    sinr = batched_mmse_sinr(h, one, np.ones(1), r)
    assert abs(sinr[0, 0, 0] - 1e3) < 1e-9 * 1e3
    assert batched_mmse_se(h, one, np.ones(1), r)[0, 0] == SE_CAP_BPS_HZ

    # a zero precoder column adds exactly 0: the SE is that of the live
    # column alone
    rng = np.random.default_rng(9)
    h = np.stack([_rand_h(rng, 4, 2) for _ in range(3)])[None]
    r = np.eye(4, dtype=complex)[None, None].repeat(3, axis=1)
    p = np.array([[[1.0, 0.0], [0.0, 0.0]]])
    sinr = batched_mmse_sinr(h, p, np.full(1, 2.0), r)
    se = batched_mmse_se(h, p, np.full(1, 2.0), r)
    assert np.all(sinr[..., 0] > 0.0)
    assert np.array_equal(se[0], sinr_to_se(sinr[0, :, 0]))
    np.testing.assert_allclose(
        se, batched_mmse_se(h, p[..., :1], np.full(1, 2.0), r),
        rtol=1e-12, atol=0.0)


def test_se_mapping_reference_points():
    assert sinr_to_se(0.0) == 0.0
    assert abs(sinr_to_se(1.0) - 1.0) < 1e-12
    assert sinr_to_se(1000.0) == 7.4


def test_effective_se_reference_points():
    assert abs(effective_se(np.array([1.0, 1.0, 1.0])) - 1.0) < 1e-12
    assert abs(effective_se(np.array([[1.0, 1.0]])) - 2.0) < 1e-12
    assert abs(effective_se(np.array([0.0, 3.0])) - 1.0) < 1e-12
    # leading batch axes: one value per (U, S, L) link, an empty batch is
    # fine
    sinr = np.random.default_rng(6).uniform(0.0, 50.0, (3, 2, 4, 2))
    se = effective_se(sinr)
    assert se.shape == (3, 2)
    assert np.array_equal(se[1, 0], effective_se(sinr[1, 0]))
    assert effective_se(np.zeros((0, 4, 2))).shape == (0,)


def test_effective_se_rejects_empty_input():
    with pytest.raises(ValueError):
        effective_se(np.zeros((0,)))


def test_select_rank_boundaries():
    def rank(h, noise_w, max_rank):
        ranks, _ = batched_rank_select(h[None, None], np.array([1.0]),
                                       noise_w, max_rank)
        return int(ranks[0])

    one = np.outer([1.0, 1.0], [1.0, 1.0, 0.0]).astype(complex)
    assert rank(one, 1.0, 4) == 1
    h = np.eye(4, dtype=complex)
    assert rank(h, 1e-6, 4) == 4
    assert rank(h, 1e6, 4) == 1
    with pytest.raises(ValueError):
        rank(h, 1.0, 0)


def test_capacity_invariant_under_receive_unitary():
    rng = np.random.default_rng(3)
    h = _rand_h(rng, 4, 4)
    q, _ = np.linalg.qr(_rand_h(rng, 4, 4))
    a = h @ np.linalg.svd(h)[2][:2].conj().T * math.sqrt(0.5)
    assert abs(mutual_information(a, np.eye(4))
               - mutual_information(q @ a, np.eye(4))) < 1e-9


def test_shared_covariance_mmse_matches_per_ue_copies():
    # cell 1 serves nobody, cell 2 one UE; ranks below 3 leave zero
    # precoder columns
    rng = np.random.default_rng(4)
    owner = np.array([0, 3, 0, 2, 3, 0, 3, 0])
    u_n, s_n, m, n, r = owner.size, 3, 6, 4, 3
    h = np.stack([[_rand_h(rng, m, n) for _ in range(s_n)]
                  for _ in range(u_n)])
    p = np.stack([np.linalg.qr(_rand_h(rng, n, r))[0] for _ in range(u_n)])
    ranks = np.array([1, 3, 2, 1, 2, 3, 1, 2])
    p = np.where(np.arange(r)[None, None, :] < ranks[:, None, None], p, 0.0)
    g = np.stack([[_rand_h(rng, m, m) for _ in range(s_n)] for _ in range(4)])
    r_nn = g @ g.conj().transpose(0, 1, 3, 2) + np.eye(m)
    p_layer = rng.uniform(0.5, 2.0, u_n) / ranks
    shared = batched_mmse_se(h, p, p_layer, r_nn, owner=owner)
    per_ue = batched_mmse_se(h, p, p_layer, r_nn[owner])
    assert shared.shape == (u_n, s_n)
    assert np.allclose(shared, per_ue, rtol=1e-12, atol=0.0)
    assert np.all(per_ue > 0.0)


def test_beam_precoder_reuses_rank_selection_svd():
    rng = np.random.default_rng(5)
    h = np.stack([[_rand_h(rng, 4, 8) for _ in range(3)] for _ in range(6)])
    ranks, v = batched_rank_select(h, np.full(6, 0.3), 1.0, 4)
    assert len(set(ranks)) > 1 and ranks.max() < v.shape[-1]
    assert np.array_equal(batched_beam_precoder(h, ranks, v=v),
                          batched_beam_precoder(h, ranks))


@pytest.mark.parametrize("k", [1, 2])
def test_beam_precoder_ignores_a_rank_one_left_factor(k):
    # x (x) wh stacks x[:, i] * wh[:, :, o] for every (o, i): its Gram is
    # |x|^2 wh^H wh, so the precoder columns agree up to a unit phase
    rng = np.random.default_rng(6 + k)
    u_n, s_n, m, n = 8, 3, 4, 16
    x = rng.standard_normal((u_n, 1, m, 1)) \
        + 1j * rng.standard_normal((u_n, 1, m, 1))
    wh = rng.standard_normal((u_n, s_n, k, n)) \
        + 1j * rng.standard_normal((u_n, s_n, k, n))
    comp = np.concatenate([x @ wh[:, :, o:o + 1] for o in range(k)], axis=2)
    ranks = np.full(u_n, k)
    p1 = batched_beam_precoder(comp, ranks)
    p2 = batched_beam_precoder(wh, ranks)
    overlap = np.einsum("unr,unr->ur", p1.conj(), p2)
    assert np.allclose(np.abs(overlap), 1.0, rtol=0.0, atol=1e-10)


def test_interference_cov_matches_a_loop_over_interferers():
    rng = np.random.default_rng(11)
    v_n, k_n, s_n, m, n, r = 3, 4, 2, 4, 3, 2
    h = rng.standard_normal((v_n, k_n, s_n, m, n)) \
        + 1j * rng.standard_normal((v_n, k_n, s_n, m, n))
    q = rng.standard_normal((v_n, k_n, n, r)) \
        + 1j * rng.standard_normal((v_n, k_n, n, r))
    p_layer = rng.uniform(0.5, 2.0, (v_n, k_n))
    ref = np.zeros((v_n, s_n, m, m), dtype=complex)
    for k in range(k_n):
        a = h[:, k] @ q[:, k, None]                        # (V, S, m, r)
        ref += p_layer[:, k, None, None, None] \
            * (a @ a.conj().transpose(0, 1, 3, 2))
    out = interference_cov(h, q, p_layer, 0.0)
    assert out.shape == (v_n, s_n, m, m)
    assert np.allclose(out, ref, rtol=1e-12, atol=1e-12)
    # white noise: one power for every victim, or one per victim
    noise = rng.uniform(0.1, 1.0, v_n)
    eye = np.eye(m)
    assert np.allclose(interference_cov(h, q, p_layer, 0.3), ref + 0.3 * eye,
                       rtol=1e-12, atol=1e-12)
    assert np.allclose(interference_cov(h, q, p_layer, noise),
                       ref + noise[:, None, None, None] * eye,
                       rtol=1e-12, atol=1e-12)
    # a silent interferer and zeroed precoder columns add nothing
    silent, masked = p_layer.copy(), q.copy()
    silent[:, 0] = 0.0
    masked[..., 1:] = 0.0
    assert np.allclose(interference_cov(h, q, silent, noise),
                       interference_cov(h[:, 1:], q[:, 1:], p_layer[:, 1:],
                                        noise),
                       rtol=1e-12, atol=1e-12)
    assert np.allclose(interference_cov(h, masked, p_layer, noise),
                       interference_cov(h, q[..., :1], p_layer, noise),
                       rtol=1e-12, atol=1e-12)


def test_interference_cov_reads_realize_links_output_in_place():
    # DL interferer links (4 receive, 32 transmit elements) as the engine
    # passes them: realize_links stores each link's (S, m) axes as (m, S)
    rng = np.random.default_rng(12)
    v_n, k_n, r = 20, 6, 2
    n_l = v_n * k_n
    tx = np.column_stack([rng.uniform(-300, 300, (n_l, 2)),
                          np.full(n_l, 25.0)])
    rx = np.column_stack([rng.uniform(-300, 300, (n_l, 2)),
                          np.full(n_l, 1.5)])
    rot = np.broadcast_to(rot_z(30.0), (n_l, 3, 3))
    h = realize_links(rng, 2.0, np.linspace(-5e6, 5e6, 6), tx, rx, rot, rot,
                      bs_port_array(32, 2.0), ue_array(4, 2.0),
                      rng.uniform(1e-6, 1e-4, n_l), rng.uniform(size=n_l) < 0.5,
                      tx_sector=True).reshape(v_n, k_n, 6, 4, 32)
    assert h.strides[3] > h.strides[2]
    q = rng.standard_normal((v_n, k_n, 32, r)) \
        + 1j * rng.standard_normal((v_n, k_n, 32, r))
    p_layer = rng.uniform(0.5, 2.0, (v_n, k_n))
    tracemalloc.start()
    try:
        out = interference_cov(h, q, p_layer, 0.1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # no transient copy of the links; the same bits as from a C-order copy
    assert peak < h.nbytes / 2
    assert np.array_equal(
        out, interference_cov(np.ascontiguousarray(h), q, p_layer, 0.1))


def _kernel_calls(seed):
    """One call of each batched kernel on 23 random rows drawn from
    `seed`, keyed by name, and the MMSE kernel also on UL-shaped and
    empty batches; each returns an array or a tuple."""
    rng = np.random.default_rng((seed, 17))
    n = 23

    def crandn(*shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    h, h_int, q = crandn(n, 3, 4, 8), crandn(n, 2, 3, 4, 8), crandn(n, 2, 8, 2)
    p_layer, noise = rng.uniform(0.5, 2.0, (n, 2)), rng.uniform(0.1, 1.0, n)
    a = crandn(n, 3, 4, 4)
    r_nn = a @ a.conj().transpose(0, 1, 3, 2) + np.eye(4)
    p = np.linalg.qr(crandn(n, 8, 2))[0]
    owner = rng.integers(0, 7, n)
    tx = np.column_stack([rng.uniform(-300, 300, (n, 2)), np.full(n, 25.0)])
    rx = np.column_stack([rng.uniform(-300, 300, (n, 2)), np.full(n, 1.5)])
    rot = np.broadcast_to(rot_z(30.0), (n, 3, 3))
    amp, los = rng.uniform(1e-6, 1e-4, n), rng.uniform(size=n) < 0.5
    ranks, v = batched_rank_select(h, np.full(n, 2.0), 1.0, 2)
    # UL-shaped: 9 links share 3 covariances of order 32 over 2 subbands
    h_ul = crandn(9, 2, 32, 3)
    a_ul = crandn(3, 2, 32, 32)
    r_ul = a_ul @ a_ul.conj().transpose(0, 1, 3, 2) + np.eye(32)
    p_ul = np.linalg.qr(crandn(9, 3, 2))[0]
    owner_ul = rng.integers(0, 3, 9)
    empty = np.zeros((0, 2, 32, 3), dtype=complex)
    return {
        "realize_links": lambda: realize_links(
            np.random.default_rng(3), 2.0, np.array([-1e6, 0.0, 2e6]), tx,
            rx, rot, rot, bs_port_array(8, 2.0), ue_array(4, 2.0), amp, los,
            tx_sector=True),
        "batched_rank_select": lambda: batched_rank_select(
            h, np.full(n, 2.0), 1.0, 4),
        "batched_beam_precoder": lambda: (
            batched_beam_precoder(h, ranks),
            batched_beam_precoder(h, ranks, v=v)),
        "interference_cov": lambda: (
            interference_cov(h_int, q, p_layer, 0.3),
            interference_cov(h_int, q, p_layer, noise)),
        "batched_mmse_sinr": lambda: (
            batched_mmse_sinr(h, p, p_layer[:, 0], r_nn),
            batched_mmse_sinr(h, p, p_layer[:, 0], r_nn[:7], owner),
            batched_mmse_sinr(h_ul, p_ul, p_layer[:9, 0], r_ul, owner_ul),
            batched_mmse_sinr(empty, p_ul[:0], np.ones(0),
                              np.zeros((0, 2, 32, 32), dtype=complex))),
        "relay_rx_beamformer": lambda: relay_rx_beamformer(h, r_nn, 2),
    }


def _bits(out):
    """Dtype, shape, memory layout and bytes of an array or a tuple."""
    if isinstance(out, tuple):
        return [_bits(x) for x in out]
    return out.dtype, out.shape, out.strides, out.tobytes()


def _kernel_bits(kernel, seed):
    return _bits(_kernel_calls(seed)[kernel]())


@pytest.mark.parametrize("kernel", list(_kernel_calls(0)))
def test_kernel_bits_do_not_depend_on_the_cpu_count(kernel, monkeypatch):
    # three seeds' calls through the process map on 1, 2 and 3 CPUs give
    # the bits of one process
    seeds = (0, 1, 2)
    want = [_kernel_bits(kernel, s) for s in seeds]
    for cpus in (1, 2, 3):
        monkeypatch.setattr(_blocks, "_workers", lambda: cpus - 1)
        assert _blocks.map_items(_kernel_bits, kernel, seeds,
                                 _kernel_bits) == want
