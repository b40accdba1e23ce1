"""Reference helpers that only the tests use.

`ray_channel` is a single-link reference for the clustered channel of
`channel.realize_links`: it draws one link's rays from the generator in
the order `realize_links` draws a batch of one and sums their outer
products subband by subband, ray by ray.  Only the angle and
sector-pattern helpers are shared with the code under test.

`mutual_information` is the exact-covariance capacity that the MIMO
tests and acceptance criteria 1 and 2 compare against, and
`median_aoa_error` the per-case median of criterion 6.

`grid_spectrum` is the localization spectrum on every point of a grid,
which the direction search must match where it evaluates, and which
criterion 7 checks for phase and ordering invariance.
"""

import math

import numpy as np

from devmimo import channel as ch
from devmimo import localization


def _array_response(positions, rotation, az_deg, el_deg, f_ghz, sector):
    """Narrowband responses (n_elements, R) of one array for R rays."""
    u_local = ch.direction_unit(az_deg, el_deg) @ rotation      # R^T u
    k = 2.0 * math.pi * f_ghz * 1e9 / ch.C_LIGHT
    resp = np.exp(1j * k * positions @ u_local.T)
    if sector:
        resp = resp * ch.sector_element_amplitude(
            *ch.angles_from_vector(u_local))
    return resp


def ray_channel(rng, f_ghz, subc_hz, tx_pos, rx_pos, tx_rot, rx_rot,
                tx_elem, rx_elem, loss_db, los,
                tx_sector=False, rx_sector=False):
    """Channel (S, n_rx, n_tx) of one link:
    H[s] = 10^(-loss/20) sum_r sqrt(p_r) e^{j phi_r} e^{-j 2 pi f_s tau_r}
    a_rx(aoa_r) a_tx(aod_r)^H, ray 0 the geometric (LOS) ray."""
    d = rx_pos - tx_pos
    n_c = ch.N_CLUSTERS
    excess = rng.exponential(ch.DELAY_RMS_S, n_c)
    w = np.exp(-excess / ch.DELAY_RMS_S) * 10.0 ** (
        rng.normal(0.0, ch.CLUSTER_SHADOW_STD_DB, n_c) / 10.0)
    k_lin = 10.0 ** (ch.K_FACTOR_DB / 10.0) if los else 0.0
    power = np.append(k_lin, w / np.sum(w)) / (k_lin + 1.0)
    delay = np.append(0.0, excess) + np.linalg.norm(d) / ch.C_LIGHT

    def spread(angles):       # the geometric angle, then one per cluster
        return [np.append(a, a + rng.laplace(0.0, s / math.sqrt(2.0), n_c))
                for a, s in zip(angles, (ch.AZ_SPREAD_DEG, ch.EL_SPREAD_DEG))]

    aod = spread(ch.angles_from_vector(d))
    aoa = spread(ch.angles_from_vector(-d))
    phase = np.append(0.0, rng.uniform(-math.pi, math.pi, n_c))

    a_tx = _array_response(tx_elem, tx_rot, *aod, f_ghz, tx_sector)
    a_rx = _array_response(rx_elem, rx_rot, *aoa, f_ghz, rx_sector)
    h = np.zeros((len(subc_hz), len(rx_elem), len(tx_elem)), dtype=complex)
    for s, f in enumerate(subc_hz):
        for r in range(n_c + 1):
            g = np.sqrt(power[r]) * np.exp(
                1j * (phase[r] - 2.0 * math.pi * f * delay[r]))
            h[s] += g * np.outer(a_rx[:, r], a_tx[:, r].conj())
    return 10.0 ** (-loss_db / 20.0) * h


def _solve_psd(r: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve r x = b for Hermitian PSD r, regularizing near singularity."""
    try:
        return np.linalg.solve(r, b)
    except np.linalg.LinAlgError:
        n = r.shape[-1]
        eps = 1e-12 * np.trace(r).real / n + 1e-300
        return np.linalg.solve(r + eps * np.eye(n), b)


def mutual_information(a: np.ndarray, r_nn: np.ndarray) -> float:
    """log2 det(I + A^H R^-1 A), the exact-covariance capacity in bits."""
    a = np.asarray(a)
    t = np.eye(a.shape[-1]) + a.conj().T @ _solve_psd(np.asarray(r_nn), a)
    sign, logdet = np.linalg.slogdet(t)
    return float(logdet / math.log(2.0))


def median_aoa_error(results) -> float:
    """Median AoA error [deg] of localization results."""
    return float(np.median([r.aoa_err_deg for r in results]))


def grid_spectrum(va, covs, az_grid, el_grid, f_ghz: float,
                  method: str) -> np.ndarray:
    """Combined spectrum (A, E) at every point of the az × el grid."""
    spec, _ = localization._evaluate(
        localization._devices(va, covs, method),
        localization._grid_units(az_grid, el_grid), f_ghz, method)
    return spec.reshape(len(az_grid), len(el_grid))
