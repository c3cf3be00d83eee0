"""Direct EnKPF formulas, kept as test oracles for the production path.

The package computes the EnKPF through one path: GammaWeightSolver for the
mixture weights and _enkpf_rows_update for both update stages. The functions
here evaluate the same quantities the textbook way, forming the stage-1 gain,
the factored spread matrix Q and the weight covariance HQH' + R/(1-gamma)
explicitly, so the tests can compare the two. enkpf_perturbations draws
through production's own stage-2 gain (_enkpf_rows_machinery), so a
covariance check of its draws checks that gain.
"""

from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla

from enkpf.core import _chol, _members_of, _p_slices
from enkpf.global_filters import _enkpf_rows_machinery, _eps_draws
from enkpf.resampling import MixtureWeights


@dataclass(frozen=True)
class QFactor:
    """Factored spread matrix Q = gamma^{-1} K_gamma R K_gamma'.

    Stored as (k_gamma, r_diag, gamma); supports products Q z and exact draws
    e = gamma^{-1/2} K_gamma (sqrt(r) * eta) with eta standard normal. The
    gamma = 0 limit is Q = 0 (scale stored as 0, no division).
    """

    k_gamma: np.ndarray
    r_diag: np.ndarray
    gamma: float

    @property
    def scale(self):
        return 0.0 if self.gamma == 0.0 else self.gamma**-0.5

    def matvec(self, z):
        if self.gamma == 0.0:
            return np.zeros(self.k_gamma.shape[0])
        w = self.r_diag * (self.k_gamma.T @ z)
        return (self.k_gamma @ w) / self.gamma

    def draw(self, eta_raw):
        """Map (n, m) standard normals to n draws from N(0, Q)."""
        return self.scale * (eta_raw * np.sqrt(self.r_diag)) @ self.k_gamma.T


@dataclass(frozen=True)
class EnkpfIntermediate:
    """First-stage output: centers nu (k, d), factored Q, and gamma."""

    nu: np.ndarray
    q_factor: QFactor
    gamma: float


def enkpf_stage1(ens, obs, P, gamma):
    """Gamma-dampened Kalman stage: nu_i = x_i + K(gamma P)(y - Hx_i).

    Returns the mixture centers and Q = gamma^{-1} K(gamma P) R K(gamma P)'
    in factored form. gamma = 0 is the exact limit nu = x, Q = 0.
    """
    if not 0.0 <= gamma <= 1.0:
        raise ValueError("gamma must lie in [0, 1]")
    x = _members_of(ens)
    k, d = x.shape
    obs.check_dim(d)
    m = obs.m
    if m == 0 or gamma == 0.0:
        k_gamma = np.zeros((d, m))
        return EnkpfIntermediate(x.copy(), QFactor(k_gamma, obs.r_diag, gamma), gamma)
    p_cols, s_oo = _p_slices(P, obs.h_rows)
    factor = _chol(gamma * s_oo + np.diag(obs.r_diag), "stage-1 innovation covariance")
    k_gamma = gamma * sla.cho_solve(factor, p_cols.T).T
    nu = x + (obs.y - obs.project(x)) @ k_gamma.T
    return EnkpfIntermediate(nu, QFactor(k_gamma, obs.r_diag, gamma), gamma)


def enkpf_weights(inter, obs):
    """Mixture weights alpha_i ~ N(y; H nu_i, HQH' + R/(1-gamma)).

    gamma = 1 returns uniform weights by convention (the 1/(1-gamma) variance
    diverges and the particle stage is skipped).
    """
    k = inter.nu.shape[0]
    if inter.gamma == 1.0:
        return MixtureWeights.uniform(k)
    if obs.m == 0:
        return MixtureWeights.uniform(k)
    a = inter.q_factor.k_gamma[obs.h_rows]
    if inter.gamma == 0.0:
        hqh = np.zeros((obs.m, obs.m))
    else:
        hqh = (a * obs.r_diag) @ a.T / inter.gamma
    sigma_w = hqh + np.diag(obs.r_diag / (1.0 - inter.gamma))
    factor = _chol(sigma_w, "weight covariance")
    resid = obs.y - inter.nu[:, obs.h_rows]
    half = sla.cho_solve(factor, resid.T)
    log_w = -0.5 * np.sum(resid.T * half, axis=0)
    return MixtureWeights.from_log(log_w)


def enkpf_perturbations(P, obs, gamma, n_draws, rng):
    """n draws of eps ~ N(0, P^{a,gamma}) without forming the covariance.

    Uses production's gains for the rows of P; eta is drawn before e_R.
    """
    if gamma == 1.0:
        raise ValueError("perturbation draws are defined for gamma < 1")
    p_ro, s_oo = _p_slices(P, obs.h_rows)
    k_ro, a, k2_ro = _enkpf_rows_machinery(obs, p_ro, s_oo, gamma)
    eta = rng.standard_normal((n_draws, obs.m))
    er = rng.standard_normal((n_draws, obs.m))
    return _eps_draws(k_ro, a, k2_ro, obs.r_diag, gamma, eta, er)
