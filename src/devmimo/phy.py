"""Precoding, rank selection, MMSE-IRC per-layer SINR and spectral
efficiency."""

from __future__ import annotations

import math

import numpy as np

SE_CAP_BPS_HZ = 7.4        # per-layer cap (~256-QAM max efficiency)
_RANK_TOL = 1e-10
N_BEAMS = 4                # beams combined by the codebook precoder
OVERSAMPLING = 4           # DFT grid rotations it searches


def _dft_beams(n_tx: int, shift: int) -> np.ndarray:
    """Orthonormal DFT beam basis for one of the OVERSAMPLING rotations."""
    n = np.arange(n_tx)[:, None]
    m = np.arange(n_tx)[None, :]
    return np.exp(2j * math.pi * n * (m + shift / OVERSAMPLING) / n_tx) / math.sqrt(n_tx)


AMP_LEVELS = np.concatenate([[0.0], np.sqrt(2.0) ** -(np.arange(6, -1, -1))])


def _layer_sinr(g: np.ndarray) -> np.ndarray:
    """Per-layer MMSE SINR 1 / [(I + G)^-1]_kk - 1 from G = A^H R^-1 A,
    for any leading batch axes (..., r, r) -> (..., r)."""
    t = np.eye(g.shape[-1]) + g
    diag = np.real(np.einsum("...kk->...k", np.linalg.inv(t)))
    return np.maximum(1.0 / np.maximum(diag, 1e-300) - 1.0, 0.0)


def sinr_to_se(sinr):
    """Shannon mapping capped at SE_CAP_BPS_HZ, per layer."""
    s = np.asarray(sinr, dtype=float)
    se = np.minimum(np.log2(1.0 + np.maximum(s, 0.0)), SE_CAP_BPS_HZ)
    return se if se.ndim else float(se)


def effective_se(sinr: np.ndarray):
    """Sum over layers of the subband-mean capped SE.

    `sinr` is (..., n_subbands, n_layers) with any leading batch axes
    (a 1-D input is a single layer); returns (...), a float for one link.
    """
    s = np.asarray(sinr, dtype=float)
    if s.ndim == 1:
        s = s[:, None]
    if s.shape[-2] == 0 or s.shape[-1] == 0:
        raise ValueError("empty SINR set")
    se = np.sum(np.mean(sinr_to_se(s), axis=-2), axis=-1)
    return se if se.ndim else float(se)


# ---------------------------------------------------------------------------
# batched link-adaptation kernels (the drop path)
# ---------------------------------------------------------------------------

def batched_rank_select(h: np.ndarray, power: np.ndarray, noise_w: float,
                        max_rank: int):
    """Rank selection under white noise for a batch of channels.

    h is (U, S, m, n); returns (ranks (U,), v (U, n, r)) where v holds the
    top r <= max_rank right singular vectors of the wideband channel.
    """
    if max_rank < 1:
        raise ValueError("max_rank must be >= 1")
    u_n, s_n, m, n = h.shape
    hw = h.reshape(u_n, s_n * m, n)
    _, sv, vh = np.linalg.svd(hw, full_matrices=False)
    v = vh[:, :max_rank].conj().transpose(0, 2, 1)             # (U, n, r)
    num_rank = np.sum(sv > _RANK_TOL * np.maximum(sv[:, :1], 1e-300), axis=1)

    best_se = np.full(u_n, -1.0)
    ranks = np.ones(u_n, dtype=int)
    for r in range(1, min(max_rank, v.shape[-1]) + 1):
        p = v[:, :, :r] * np.sqrt(power / r)[:, None, None]
        a = h @ p[:, None]                                     # (U, S, m, r)
        sinr = _layer_sinr(a.conj().transpose(0, 1, 3, 2) @ a / noise_w)
        se = effective_se(sinr)
        ok = (r <= num_rank) & (se > best_se + 1e-12)
        ranks[ok] = r
        best_se[ok] = se[ok]
    return ranks, v


def batched_beam_precoder(h: np.ndarray, ranks: np.ndarray,
                          v: np.ndarray | None = None):
    """Batched simplified beam-combination precoder.

    `v` (U, n_tx, >= rmax) may pass the right singular vectors of the
    wideband channel that `batched_rank_select` returned for the same h;
    without it they are computed here.  Returns (U, n_tx, rmax) with
    orthonormal columns; columns beyond each UE's rank are zeroed.
    """
    u_n = h.shape[0]
    hw = h.reshape(u_n, -1, h.shape[-1])
    n_tx = hw.shape[-1]
    rmax = int(ranks.max())
    bases = np.stack([_dft_beams(n_tx, q) for q in range(OVERSAMPLING)])
    n_beams = min(N_BEAMS, n_tx)
    if v is None:
        _, _, vh = np.linalg.svd(hw, full_matrices=False)
        v = vh[:, :rmax].conj().transpose(0, 2, 1)
    v = v[..., :rmax]                                          # (U, n, rmax)

    pw = np.stack([np.sum(np.abs(hw @ bases[q]) ** 2, axis=1)
                   for q in range(OVERSAMPLING)])              # (O, U, n)
    top = -np.sort(-pw, axis=2)[:, :, :n_beams].sum(axis=2)    # (O, U)
    qsel = np.argmax(top, axis=0)                              # (U,)
    pw_sel = pw[qsel, np.arange(u_n)]                          # (U, n)
    idx = np.sort(np.argsort(-pw_sel, axis=1)[:, :n_beams], axis=1)
    basis = np.take_along_axis(bases[qsel], idx[:, None, :], axis=2)  # (U,n,nb)

    coef = np.einsum("unb,unr->ubr", basis.conj(), v)          # (U, nb, rmax)
    mag = np.abs(coef)
    ref = np.argmax(mag, axis=1)                               # (U, rmax)
    mx = np.take_along_axis(mag, ref[:, None, :], axis=1)      # (U, 1, rmax)
    mx = np.maximum(mx, 1e-300)
    lev = AMP_LEVELS[np.argmin(np.abs(mag[..., None] / mx[..., None]
                                      - AMP_LEVELS), axis=-1)]
    ref_ph = np.take_along_axis(np.angle(coef), ref[:, None, :], axis=1)
    ph = np.round((np.angle(coef) - ref_ph) / (math.pi / 4.0)) * (math.pi / 4.0)
    coef_q = mx * lev * np.exp(1j * (ph + ref_ph))

    p = basis @ coef_q                                         # (U, n, rmax)
    # pad rank-deficient columns with SVD directions for a stable QR
    col = np.arange(rmax)[None, :]
    dead = col >= ranks[:, None]
    p = np.where(dead[:, None, :], v, p)
    qm, rm = np.linalg.qr(p)
    bad = np.min(np.abs(np.einsum("ukk->uk", rm)), axis=1) < 1e-9
    if np.any(bad):
        qm[bad] = v[bad]
    qm = np.where(dead[:, None, :], 0.0, qm)
    return qm


def interference_cov(h: np.ndarray, q: np.ndarray, p_layer: np.ndarray,
                     noise_w) -> np.ndarray:
    """Covariance sum_k p_layer[k] (H_k Q_k)(H_k Q_k)^H + noise_w I of
    precoded interferers plus white noise: h (V,K,S,m,n) links of each
    victim's K interferers, q (V,K,n,r) their precoders, p_layer (V,K)
    their per-layer powers (0 for a silent interferer), noise_w one noise
    power or (V,) one per victim.  Returns (V,S,m,m)."""
    # name (S, m) in h's memory order (realize_links' depends on the array
    # sizes), so einsum's matmul reshape is a view, not a copy of the links
    if h.strides[3] > h.strides[2]:
        b = np.einsum("vkmsn,vknr->vksmr", h.swapaxes(2, 3), q, optimize=True)
    else:
        b = np.einsum("vksmn,vknr->vksmr", h, q, optimize=True)
    r = np.einsum("vk,vksmr,vkslr->vsml", p_layer, b, b.conj(),
                  optimize=True)
    return r + np.reshape(noise_w, (-1, 1, 1, 1)) * np.eye(h.shape[3])


def batched_mmse_sinr(h: np.ndarray, p: np.ndarray, p_layer: np.ndarray,
                      r_nn: np.ndarray, owner: np.ndarray | None = None
                      ) -> np.ndarray:
    """Per-layer MMSE-IRC SINR for batched links, uncapped.

    SINR_k = 1 / [(I + A^H R^-1 A)^-1]_kk - 1 with A = H P sqrt(p_layer).
    h (U,S,m,n), p (U,n,r), p_layer (U,), r_nn (C,S,m,m) shared
    covariances, UE u seeing r_nn[owner[u]]; the default owner = arange(U)
    gives each UE its own.  Each covariance is factored once: the columns
    of all its UEs are solved together, padded with zero columns to the
    most-shared covariance.  Returns (U, S, r).
    """
    u_n, s_n, m, _ = h.shape
    r_n = p.shape[-1]
    if owner is None:
        owner = np.arange(u_n)
    a = h @ (p[:, None] * np.sqrt(p_layer)[:, None, None, None])
    # column block of each UE within its covariance's right-hand side
    order = np.argsort(owner, kind="stable")
    count = np.bincount(owner, minlength=r_nn.shape[0])
    first = np.cumsum(count) - count
    slot = np.empty(u_n, dtype=int)
    slot[order] = np.arange(u_n) - first[owner[order]]
    width = int(count.max(initial=0))
    c_n = r_nn.shape[0]
    rhs = np.zeros((c_n, s_n, m, width, r_n), dtype=complex)
    rhs[owner, :, :, slot] = a
    # one system per (covariance, subband), solved in r_nn's own layout
    x = np.linalg.solve(r_nn, rhs.reshape((c_n, s_n, m, width * r_n)))
    ra = x.reshape(rhs.shape)[owner, :, :, slot]              # (U, S, m, r)
    return _layer_sinr(a.conj().transpose(0, 1, 3, 2) @ ra)


def batched_mmse_se(h: np.ndarray, p: np.ndarray, p_layer: np.ndarray,
                    r_nn: np.ndarray, owner: np.ndarray | None = None
                    ) -> np.ndarray:
    """Per-subband capped SE (U, S) of `batched_mmse_sinr`'s links, summed
    over the layers whose precoder column is nonzero (p has
    orthonormal-or-zero columns)."""
    sinr = batched_mmse_sinr(h, p, p_layer, r_nn, owner)
    active = np.real(np.einsum("unk,unk->uk", p.conj(), p)) > 0.5  # (U, r)
    return np.sum(sinr_to_se(sinr) * active[:, None, :], axis=2)
