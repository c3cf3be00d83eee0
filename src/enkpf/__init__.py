"""Ensemble Kalman particle filters, localized variants, and a 1D
convective-scale shallow-water testbed for cycled twin experiments."""

from enkpf.grid import GridGeometry, StateLayout
from enkpf.taper import TaperSpec, gaspari_cohn
from enkpf.core import ensemble_moments
from enkpf.obs import GaussObs
from enkpf.resampling import balanced_resample, ess
from enkpf.global_filters import adaptive_gamma, enkf_update, enkpf_update, pf_weights
from enkpf.local_filters import (
    LocalWindowSpec,
    ObservationBlock,
    block_lenkpf_update,
    compute_uvw,
    lenkf_update,
    naive_lenkpf_update,
    schedule_blocks,
)
from enkpf.sweq import ModelParams, RadarObs, gen_observations
from enkpf.scoring import field_crps

__version__ = "0.1.0"
