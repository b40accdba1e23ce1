"""AF relay-hop composition and stacked-link checks."""

import math

import numpy as np
import pytest

from devmimo import (compose_af_link, relay_gain, relay_rx_beamformer,
                     stack_rx, stack_tx)
from devmimo.collab import EffectiveLink
from devmimo.phy import batched_mmse_sinr
from reference import mutual_information


def _rand_h(rng, m, n):
    return (rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))) \
        / math.sqrt(2.0)


# -- receive beamformer ------------------------------------------------------

def test_beamformer_matches_conjugate_for_white_noise():
    h = np.array([[1.0 + 2.0j], [3.0 - 1.0j]])
    w = relay_rx_beamformer(h, np.eye(2, dtype=complex), 1)
    c = w[0] / h[:, 0].conj()
    assert np.allclose(c, c[0], atol=1e-9)     # proportional to h*


def test_beamformer_full_maximum_ratio_gain():
    rng = np.random.default_rng(0)
    h = _rand_h(rng, 4, 1)
    sigma2 = 0.5
    w = relay_rx_beamformer(h, sigma2 * np.eye(4), 1)
    p = 2.0
    snr = p * abs(w[0] @ h[:, 0]) ** 2 / \
        np.real(w[0].conj() @ (sigma2 * np.eye(4)) @ w[0])
    expect = np.sum(np.abs(h) ** 2) * p / sigma2
    assert abs(snr - expect) < 1e-9 * expect


def test_beamformer_nulls_a_dominant_interferer():
    rng = np.random.default_rng(1)
    h = _rand_h(rng, 4, 2)
    v = _rand_h(rng, 4, 1)[:, 0]
    r = np.eye(4, dtype=complex) + 1e12 * np.outer(v, v.conj())
    w = relay_rx_beamformer(h, r, 1)
    leak = abs(w[0] @ v) / (np.linalg.norm(w[0]) * np.linalg.norm(v))
    assert leak < 1e-4


def test_beamformer_rejects_too_many_outputs():
    with pytest.raises(ValueError):
        relay_rx_beamformer(np.ones((2, 1), complex), np.eye(2), 3)


# -- automatic gain control --------------------------------------------------

def test_relay_gain_db_arithmetic():
    assert abs(20.0 * math.log10(relay_gain(-60.0, 14.0)) - 74.0) < 0.01
    assert abs(20.0 * math.log10(relay_gain(-30.0, 14.0)) - 44.0) < 0.01


def test_relay_gain_unity_at_cap():
    assert relay_gain(14.0, 14.0) == 1.0


def test_relay_gain_rejects_nonfinite_input():
    with pytest.raises(ValueError):
        relay_gain(-math.inf, 14.0)


# -- end-to-end composition --------------------------------------------------

def _scalar_hop(gain):
    one = np.ones((1, 1, 1), complex)
    return compose_af_link(one, np.ones((1, 1), complex), gain, one, one, one)


def test_composed_scalar_chain_reference_sinr():
    eff = _scalar_hop(2.0)
    # y = 2x + 2 n1 + n2 with unit noises and transmit power 4
    sinr = batched_mmse_sinr(eff.h_eff[None], np.ones((1, 1, 1)),
                             np.full(1, 4.0), eff.r_nn[None])
    assert abs(sinr[0, 0, 0] - 3.2) < 1e-9


def test_composed_chain_zero_gain_degenerates():
    eff = _scalar_hop(0.0)
    assert np.allclose(eff.h_eff, 0.0)
    assert np.allclose(eff.r_nn, 1.0)


def test_composed_chain_noiseless_first_hop_is_direct():
    rng = np.random.default_rng(3)
    h1 = _rand_h(rng, 4, 8)
    h2 = _rand_h(rng, 2, 1)
    w = relay_rx_beamformer(h1, np.eye(4), 1)
    g = 0.7
    eff = compose_af_link(h1, w, g, h2, np.zeros((4, 4), complex), np.eye(2))
    direct = g * h2 @ (w @ h1)
    assert np.allclose(eff.h_eff[0], direct, atol=1e-12)
    assert np.allclose(eff.r_nn[0], np.eye(2), atol=1e-12)


def test_composed_chain_rejects_dimension_mismatch():
    one = np.ones((1, 1, 1), complex)
    with pytest.raises(ValueError):
        compose_af_link(one, np.ones((2, 1), complex), 1.0, one, one, one)


def test_composed_chain_rejects_negative_gain():
    with pytest.raises(ValueError):
        _scalar_hop(-1.0)


def test_composed_chain_batches_like_its_single_subband_calls():
    rng = np.random.default_rng(9)
    b, s, m, n, o, p = 3, 2, 4, 6, 2, 3

    def cov(*lead, size):
        x = np.stack([_rand_h(rng, size, size) for _ in range(b * s)])
        return (x @ x.conj().transpose(0, 2, 1)).reshape(lead + (size, size))

    h1 = np.stack([_rand_h(rng, m, n) for _ in range(b * s)]).reshape(
        b, s, m, n)
    w = np.stack([_rand_h(rng, o, m) for _ in range(b)])
    g = rng.uniform(0.1, 3.0, (b, o))
    h2 = np.stack([_rand_h(rng, p, o) for _ in range(b * s)]).reshape(
        b, s, p, o)
    r1, r2 = cov(b, s, size=m), cov(b, s, size=p)
    eff = compose_af_link(h1, w, g, h2, r1, r2)
    assert eff.h_eff.shape == (b, s, p, n)
    assert eff.r_nn.shape == (b, s, p, p)
    for i in range(b):
        for j in range(s):
            one = compose_af_link(h1[i, j], w[i], g[i], h2[i, j], r1[i, j],
                                  r2[i, j])
            np.testing.assert_allclose(eff.h_eff[i, j], one.h_eff[0],
                                       rtol=1e-12, atol=1e-12)
            np.testing.assert_allclose(eff.r_nn[i, j], one.r_nn[0],
                                       rtol=1e-12, atol=1e-12)
            # a per-output gain is G = diag(g) in front of the beamformer
            gw = compose_af_link(h1[i, j], np.diag(g[i]) @ w[i], 1.0,
                                 h2[i, j], r1[i, j], r2[i, j])
            np.testing.assert_allclose(one.h_eff, gw.h_eff,
                                       rtol=1e-12, atol=1e-12)
            np.testing.assert_allclose(one.r_nn, gw.r_nn,
                                       rtol=1e-12, atol=1e-12)
    with pytest.raises(ValueError):
        compose_af_link(h1, w, g * np.array([1.0, -1.0]), h2, r1, r2)


def test_composed_sinr_never_exceeds_either_hop():
    rng = np.random.default_rng(4)
    p = 1.0
    for _ in range(300):
        h1 = _rand_h(rng, 4, 8) * rng.uniform(0.1, 3.0)
        h2 = _rand_h(rng, 2, 1) * rng.uniform(0.1, 3.0)
        s1v, s2v = rng.uniform(0.01, 2.0, 2)
        w = relay_rx_beamformer(h1, s1v * np.eye(4), 1)
        pre1 = np.linalg.svd(h1)[2][:1].conj().T
        a1 = (w @ h1) @ pre1 * math.sqrt(p)
        sig = float(np.sum(np.abs(a1) ** 2))
        nse = float(np.real(w[0].conj() @ (s1v * np.eye(4)) @ w[0]))
        sinr1 = sig / nse
        g = rng.uniform(0.1, 10.0)
        snr2 = g * g * (sig + nse) * float(np.sum(np.abs(h2) ** 2)) / s2v
        eff = compose_af_link(h1, w, g, h2, s1v * np.eye(4), s2v * np.eye(2))
        sinr = batched_mmse_sinr(eff.h_eff[None], pre1[None], np.full(1, p),
                                 eff.r_nn[None])
        assert sinr[0, 0, 0] <= min(sinr1, snr2) + 1e-9


# -- stacked links -----------------------------------------------------------

def test_stacked_link_dimensions_and_rank():
    rng = np.random.default_rng(5)
    direct = EffectiveLink(_rand_h(rng, 4, 32)[None], np.eye(4)[None])
    relayed = EffectiveLink(_rand_h(rng, 4, 32)[None], np.eye(4)[None])
    st = stack_rx(direct, relayed)
    assert st.h_eff.shape == (1, 8, 32)
    s = np.linalg.svd(st.h_eff[0], compute_uv=False)
    assert np.sum(s > 1e-10 * s[0]) == 8

    # three links with a leading batch axis (2 UEs, 3 subbands), as the
    # DL relay arm stacks its forwarded streams
    sizes = (4, 2, 3)
    links = [EffectiveLink(
        np.stack([[_rand_h(rng, m, 8) for _ in range(3)] for _ in range(2)]),
        np.stack([[_rand_h(rng, m, m) for _ in range(3)] for _ in range(2)]))
        for m in sizes]
    st = stack_rx(*links)
    assert st.h_eff.shape == (2, 3, 9, 8)
    assert st.r_nn.shape == (2, 3, 9, 9)
    for u in range(2):
        for s_i in range(3):
            h_ref = np.vstack([lk.h_eff[u, s_i] for lk in links])
            r_ref = np.zeros((9, 9), complex)
            r_ref[:4, :4] = links[0].r_nn[u, s_i]
            r_ref[4:6, 4:6] = links[1].r_nn[u, s_i]
            r_ref[6:, 6:] = links[2].r_nn[u, s_i]
            assert np.array_equal(st.h_eff[u, s_i], h_ref)
            assert np.array_equal(st.r_nn[u, s_i], r_ref)


def test_stacked_link_zero_gain_equals_direct_capacity():
    rng = np.random.default_rng(6)
    h1 = _rand_h(rng, 4, 8)
    h2 = _rand_h(rng, 4, 1)
    w = relay_rx_beamformer(h1, np.eye(4), 1)
    eff = compose_af_link(h1, w, 0.0, h2, np.eye(4), np.eye(4))
    direct = EffectiveLink(h1[None], np.eye(4)[None])
    st = stack_rx(direct, eff)
    a_d = h1 * 0.5
    a_s = st.h_eff[0] * 0.5
    c_d = mutual_information(a_d, direct.r_nn[0])
    c_s = mutual_information(a_s, st.r_nn[0])
    assert abs(c_s - c_d) < 1e-9


def test_stacking_receive_paths_never_hurts():
    rng = np.random.default_rng(7)
    for _ in range(100):
        h_d = _rand_h(rng, 4, 8)
        h_r = _rand_h(rng, 2, 8) * rng.uniform(0.05, 2.0)
        direct = EffectiveLink(h_d[None], np.eye(4)[None])
        relayed = EffectiveLink(h_r[None],
                                rng.uniform(0.5, 2.0) * np.eye(2)[None])
        st = stack_rx(direct, relayed)
        c_d = mutual_information(h_d * 0.3, direct.r_nn[0])
        c_s = mutual_information(st.h_eff[0] * 0.3, st.r_nn[0])
        assert c_s >= c_d - 1e-9


def test_transmit_stack_concatenates_columns():
    rng = np.random.default_rng(8)
    h_d = _rand_h(rng, 4, 2)
    relayed = EffectiveLink(_rand_h(rng, 4, 1)[None], np.eye(4)[None])
    st = stack_tx(h_d, relayed)
    assert st.h_eff.shape == (1, 4, 3)
    assert np.allclose(st.h_eff[0, :, :2], h_d)
    assert np.allclose(st.r_nn, relayed.r_nn)
