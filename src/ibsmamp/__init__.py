"""Interleaved block-sparse transforms and cross-domain memory AMP."""

from .denoisers import DenoiserResult, denoise_bernoulli_gaussian, denoise_qpsk
from .errors import ConfigurationError, MaterializationLimitError, NormalizationError
from .estimators import (CostMeter, EstimatorRun, MampConfig, MampState, TrajectoryPoint,
                         damping_update, lmmse_estimate_gaussian, lmmse_mse_gaussian,
                         mle_step, nle_orthogonalize, run_cd_mamp, run_cd_oamp)
from .ibs import (BASES, DIRECTIONS, VARIANTS, IbsOperator, IbsSpec, build_ibs_transform,
                  relative_complexity)
from .kernels import fft_adjoint, fft_forward, fft_operator, fwht_forward, is_power_of_two
from .operators import DiagonalOperator, LinearOperator, materialize_dense
from .rng import generator, make_permutation, raw_words
from .scenarios import (BernoulliGaussianPrior, CirculantOperator, QpskPrior, SystemInstance,
                        TimeVaryingChannelOperator, ber_qpsk, doppler_preset_4ghz_100kmh_15khz,
                        gen_multipath_channel, gen_sensing_diagonal, mse, mse_db,
                        simulate_observation)
from .spectral import (SpectralProfile, eigen_bounds, gram_eigenvalues, spectral_profile,
                       trace_moments)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
