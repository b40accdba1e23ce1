"""Device-collaboration core: the helper's receive beamformer and AGC gain,
the frequency-translation AF hop, and rank-augmented stacked links."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass
class EffectiveLink:
    h_eff: np.ndarray           # (S, n_rx, n_in)
    r_nn: np.ndarray            # (S, n_rx, n_rx)


def relay_rx_beamformer(h_first: np.ndarray, r_int: np.ndarray,
                        n_out: int) -> np.ndarray:
    """Whitened-MRC receive beamformer at the relay.

    Rows are the top left singular vectors of R^-1/2 H, composed with the
    whitener, so strong interferers in R are nulled in the limit.
    h_first is (..., S, m, n) and r_int (..., S, m, m) with any leading
    batch axes, or (m, n) / (m, m) for a single subband; subbands are
    stacked column-wise so the row space is wideband and R is their mean.
    Returns (..., n_out, m).
    """
    h = np.asarray(h_first)
    if h.ndim == 2:
        h = h[None]
    if n_out > h.shape[-2]:
        raise ValueError("n_out exceeds helper antenna count")
    r = np.asarray(r_int)
    if r.ndim == 2:
        r = r[None]
    hw = np.concatenate(list(np.moveaxis(h, -3, 0)), axis=-1)  # (..., m, S*n)
    ev, evec = np.linalg.eigh(r.mean(axis=-3))
    ev = np.maximum(ev, 1e-18 * np.maximum(ev[..., -1:], 1e-300))
    r_isqrt = np.einsum("...ab,...b,...cb->...ac", evec,
                        1.0 / np.sqrt(ev), evec.conj())
    u, _, _ = np.linalg.svd(r_isqrt @ hw, full_matrices=False)
    return np.swapaxes(u[..., :n_out].conj(), -1, -2) @ r_isqrt


def relay_gain(input_power_dbm: float, cap_dbm: float) -> float:
    """Full-AGC linear amplitude gain driving the output to the power cap."""
    if not math.isfinite(input_power_dbm):
        raise ValueError("input power must be finite")
    return 10.0 ** ((cap_dbm - input_power_dbm) / 20.0)


def compose_af_link(h_first: np.ndarray, w: np.ndarray, gain,
                    h_second: np.ndarray, r_first: np.ndarray,
                    r_second: np.ndarray) -> EffectiveLink:
    """End-to-end channel and noise covariance of one frequency-translation
    AF hop, over any leading batch axes (2-D inputs are one subband): the
    first-hop channel h_first (..., S, m, n_tx), the helper's wideband
    receive beamformer w (..., n_out, m) and amplitude gain (a scalar or
    (..., n_out)), the second-hop channel h_second (..., S, p, n_out) in
    the other band, and the noise covariances r_first, r_second at the two
    receivers.  With G = diag(gain): H_eff = H2 G W H1 and
    R_eff = H2 G W R1 W^H G H2^H + R2."""
    g = np.asarray(gain, dtype=float)
    if np.any(g < 0):
        raise ValueError("gain must be >= 0")
    h1, h2 = np.asarray(h_first), np.asarray(h_second)
    r1, r2 = np.asarray(r_first), np.asarray(r_second)
    w = np.asarray(w)
    if h2.shape[-1] != w.shape[-2] or w.shape[-1] != h1.shape[-2]:
        raise ValueError("relay chain dimension mismatch")
    gw = (g[..., None] * w)[..., None, :, :]           # (..., 1, n_out, m)
    h_eff = h2 @ (gw @ h1)
    fwd = gw @ r1 @ np.swapaxes(gw, -1, -2).conj()     # forwarded noise
    r_eff = h2 @ fwd @ np.swapaxes(h2, -1, -2).conj() + r2
    return EffectiveLink(h_eff, r_eff)


def stack_rx(*links: EffectiveLink) -> EffectiveLink:
    """DL rank augmentation: vertically stack the receive paths of any
    number of links (h_eff (..., m_i, n), r_nn (..., m_i, m_i), leading
    batch axes broadcast); noises are independent so the covariance is
    block diagonal."""
    hs = [np.asarray(link.h_eff) for link in links]
    rs = [np.asarray(link.r_nn) for link in links]
    lead = np.broadcast_shapes(*(x.shape[:-2] for x in hs + rs))
    h = np.concatenate([np.broadcast_to(x, lead + x.shape[-2:]) for x in hs],
                       axis=-2)
    m = h.shape[-2]
    r = np.zeros(lead + (m, m), dtype=complex)
    i = 0
    for x in rs:
        r[..., i:i + x.shape[-1], i:i + x.shape[-1]] = x
        i += x.shape[-1]
    return EffectiveLink(h, r)


def stack_tx(h_direct: np.ndarray, relayed: EffectiveLink) -> EffectiveLink:
    """UL rank augmentation: horizontally stack direct transmit columns with
    the relayed effective columns; both signals land on the same receiver so
    the relayed covariance (which already includes the receiver noise) is
    the stacked covariance.  h_direct (..., m, n1) and relayed.h_eff
    (..., m, n2) broadcast over their leading batch axes."""
    hd = np.asarray(h_direct)
    hr = np.asarray(relayed.h_eff)
    lead = np.broadcast_shapes(hd.shape[:-1], hr.shape[:-1])
    h = np.concatenate([np.broadcast_to(hd, lead + hd.shape[-1:]),
                        np.broadcast_to(hr, lead + hr.shape[-1:])], axis=-1)
    return EffectiveLink(h, relayed.r_nn)
