"""Precoding, MMSE-IRC combining, per-layer SINR and spectral efficiency."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import RankDeficiencyError

SE_CAP_BPS_HZ = 7.4        # per-layer cap (~256-QAM max efficiency)
_RANK_TOL = 1e-10


@dataclass
class Precoder:
    matrix: np.ndarray          # (n_tx, n_layers), orthonormal columns
    power_per_layer: float      # watts

    def __post_init__(self):
        p = np.asarray(self.matrix)
        g = p.conj().T @ p
        if not np.allclose(g, np.eye(p.shape[1]), atol=1e-9):
            raise ValueError("precoder columns must be orthonormal")

    @property
    def n_layers(self) -> int:
        return self.matrix.shape[1]

    @property
    def total_power(self) -> float:
        return self.power_per_layer * self.n_layers


@dataclass
class LinkReport:
    h_eff: np.ndarray           # (S, n_rx, n_tx) effective channel
    r_nn: np.ndarray            # (S, n_rx, n_rx) noise covariance
    sinr: np.ndarray            # (S, n_layers) linear
    se_bps_hz: float
    rank: int


def _wideband(h: np.ndarray) -> np.ndarray:
    """Collapse an (S, m, n) channel to a single matrix for precoding by
    stacking subbands vertically (preserves the row space per subband)."""
    h = np.asarray(h)
    if h.ndim == 2:
        return h
    return h.reshape(-1, h.shape[-1])


def svd_precoder(h: np.ndarray, rank: int, power: float) -> Precoder:
    """Top right singular vectors of the (wideband) channel, equal power."""
    hw = _wideband(h)
    if rank < 1 or rank > min(hw.shape):
        raise RankDeficiencyError(f"rank {rank} infeasible for shape {hw.shape}")
    _, s, vh = np.linalg.svd(hw, full_matrices=False)
    if s[rank - 1] <= _RANK_TOL * max(s[0], 1e-300):
        raise RankDeficiencyError(
            f"rank {rank} exceeds numerical channel rank")
    return Precoder(vh[:rank].conj().T, power / rank)


def _dft_beams(n_tx: int, shift: int, oversampling: int) -> np.ndarray:
    """Orthonormal DFT beam basis for one oversampling rotation."""
    n = np.arange(n_tx)[:, None]
    m = np.arange(n_tx)[None, :]
    return np.exp(2j * math.pi * n * (m + shift / oversampling) / n_tx) / math.sqrt(n_tx)


AMP_LEVELS = np.concatenate([[0.0], np.sqrt(2.0) ** -(np.arange(6, -1, -1))])


def type2_like_precoder(h_est: np.ndarray, n_beams: int, rank: int,
                        power: float, oversampling: int = 4,
                        quantize: bool = True) -> Precoder:
    """Beam-combination codebook precoder.

    Per layer, a linear combination of the strongest orthogonal grid-DFT
    beams (one oversampling rotation) with 3-bit wideband amplitudes and
    8-PSK co-phasing, chosen to track the top singular directions of the
    channel estimate.  With n_beams == n_tx and quantization off this
    reduces to the SVD precoder up to a unitary basis change.
    """
    hw = _wideband(h_est)
    n_tx = hw.shape[1]
    n_beams = min(n_beams, n_tx)
    if n_beams < rank:
        raise ValueError("n_beams must be >= rank")

    best = None
    for q in range(oversampling):
        basis = _dft_beams(n_tx, q, oversampling)
        pwr = np.sum(np.abs(hw @ basis) ** 2, axis=0)
        idx = np.argsort(pwr)[::-1][:n_beams]
        cap = float(np.sum(pwr[idx]))
        if best is None or cap > best[0]:
            best = (cap, basis[:, np.sort(idx)])
    b_sel = best[1]

    _, s, vh = np.linalg.svd(hw, full_matrices=False)
    v = vh[:rank].conj().T                       # (n_tx, rank)
    coef = b_sel.conj().T @ v                    # (n_beams, rank)
    if quantize:
        qc = np.zeros_like(coef)
        for l in range(rank):
            c = coef[:, l]
            ref = np.argmax(np.abs(c))
            mx = np.abs(c[ref])
            if mx <= 0:
                continue
            amp = AMP_LEVELS[np.argmin(
                np.abs(np.abs(c[:, None]) / mx - AMP_LEVELS[None, :]), axis=1)]
            ph = np.angle(c) - np.angle(c[ref])
            ph = np.round(ph / (math.pi / 4.0)) * (math.pi / 4.0)
            qc[:, l] = mx * amp * np.exp(1j * (ph + np.angle(c[ref])))
        coef = qc
    p = b_sel @ coef
    # re-orthonormalize; fall back to untouched columns on degeneracy
    qmat, rmat = np.linalg.qr(p)
    if np.min(np.abs(np.diag(rmat))) < 1e-12:
        return svd_precoder(h_est, rank, power)
    return Precoder(qmat, power / rank)


def _solve_psd(r: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve r x = b for Hermitian PSD r, regularizing near singularity."""
    try:
        return np.linalg.solve(r, b)
    except np.linalg.LinAlgError:
        n = r.shape[-1]
        eps = 1e-12 * np.trace(r).real / n + 1e-300
        return np.linalg.solve(r + eps * np.eye(n), b)


def mmse_irc_combine(h_eff: np.ndarray, precoder: Precoder,
                     r_nn: np.ndarray):
    """MMSE-IRC combiner and per-layer post-combining SINR.

    W = (A A^H + R)^-1 A with A = H P diag(sqrt(power)),
    SINR_k = 1 / [(I + A^H R^-1 A)^-1]_kk - 1.

    h_eff may be (m, n) or batched (S, m, n); r_nn broadcasts accordingly.
    Returns (w, sinr) with matching leading dimensions.
    """
    h = np.asarray(h_eff)
    squeeze = h.ndim == 2
    if squeeze:
        h = h[None]
    r = np.asarray(r_nn)
    if r.ndim == 2:
        r = np.broadcast_to(r, (h.shape[0],) + r.shape)
    a = h @ (precoder.matrix * math.sqrt(precoder.power_per_layer))
    w = _solve_psd(a @ a.conj().transpose(0, 2, 1) + r, a)
    t = np.eye(a.shape[2]) + a.conj().transpose(0, 2, 1) @ _solve_psd(r, a)
    tinv = np.linalg.inv(t)
    diag = np.real(np.einsum("skk->sk", tinv))
    sinr = np.maximum(1.0 / np.maximum(diag, 1e-300) - 1.0, 0.0)
    if squeeze:
        return w[0], sinr[0]
    return w, sinr


def sinr_to_se(sinr, cap_bps_hz: float = SE_CAP_BPS_HZ):
    """Capped Shannon mapping, per layer."""
    s = np.asarray(sinr, dtype=float)
    se = np.minimum(np.log2(1.0 + np.maximum(s, 0.0)), cap_bps_hz)
    return se if se.ndim else float(se)


def effective_se(sinr: np.ndarray, cap_bps_hz: float = SE_CAP_BPS_HZ) -> float:
    """Sum over layers of the subband-mean capped SE.

    `sinr` is (n_subbands, n_layers) (a 1-D input is a single layer).
    """
    s = np.atleast_2d(np.asarray(sinr, dtype=float))
    if s.size == 0:
        raise ValueError("empty SINR set")
    if np.asarray(sinr).ndim == 1:
        s = s.T
    return float(np.sum(np.mean(sinr_to_se(s, cap_bps_hz), axis=0)))


def mutual_information(a: np.ndarray, r_nn: np.ndarray) -> float:
    """log2 det(I + A^H R^-1 A), the exact-covariance capacity in bits."""
    a = np.asarray(a)
    t = np.eye(a.shape[-1]) + a.conj().T @ _solve_psd(np.asarray(r_nn), a)
    sign, logdet = np.linalg.slogdet(t)
    return float(logdet / math.log(2.0))


def link_report(h_eff: np.ndarray, precoder: Precoder, r_nn: np.ndarray,
                cap_bps_hz: float = SE_CAP_BPS_HZ) -> LinkReport:
    h = np.asarray(h_eff)
    if h.ndim == 2:
        h = h[None]
    _, sinr = mmse_irc_combine(h, precoder, r_nn)
    return LinkReport(h, np.asarray(r_nn), sinr,
                      effective_se(sinr, cap_bps_hz), precoder.n_layers)


def select_rank(h_eff: np.ndarray, r_nn: np.ndarray, power: float,
                max_rank: int, cap_bps_hz: float = SE_CAP_BPS_HZ) -> int:
    """Rank in [1, max_rank] maximizing effective SE under SVD precoding
    with an equal power split."""
    if max_rank < 1:
        raise ValueError("max_rank must be >= 1")
    h = np.asarray(h_eff)
    hw = _wideband(h)
    s = np.linalg.svd(hw, compute_uv=False)
    num_rank = int(np.sum(s > _RANK_TOL * max(s[0], 1e-300)))
    best_r, best_se = 1, -1.0
    for r in range(1, min(max_rank, num_rank) + 1):
        pre = svd_precoder(h, r, power)
        _, sinr = mmse_irc_combine(h if h.ndim == 3 else h[None], pre, r_nn)
        se = effective_se(sinr, cap_bps_hz)
        if se > best_se + 1e-12:
            best_r, best_se = r, se
    return best_r
