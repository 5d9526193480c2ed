"""Linear MMSE estimation through the additive-noise test channel.

The channel observes U = X + Z with Z ~ N(0, p I) independent of X.  The
optimal estimate of X from U is linear and diagonal in the covariance's
eigenbasis: mode k of U is scaled by lambda_k/(lambda_k+p), so mode k of the
error is N(0, lambda_k p/(lambda_k+p)), which ``sim.simulate_dsc`` draws
directly.  ``mmse_estimate`` forms the N x N filter V diag(lambda/(lambda+p))
V^T for each call, and ``avg_mmse_from_eigvals`` gives the mean error over
the sensors from the eigenvalues alone.  Both work on the covariance pack's
cached eigendecomposition (a shift of the eigenvalues by p) rather than an
explicit inverse, which stays stable for near-singular band-limited
covariances across p sweeps.
"""

import numpy as np

from .errors import ConditioningError


def mmse_estimate(cov, p, u):
    """Best linear estimate of X given u = x + z, z ~ N(0, p I).

    Accepts a length-N vector or an (m, N) batch of observations.  With p = 0
    the channel is noiseless and the estimate is u itself, which is only
    meaningful if the covariance did not need clamping.
    """
    if p < 0:
        raise ValueError("noise variance must be nonnegative")
    if p == 0.0 and cov.n_clamped:
        raise ConditioningError(
            f"p = 0 with {cov.n_clamped} clamped eigenvalue(s): "
            "the noiseless solve is not trustworthy"
        )
    u = np.asarray(u, dtype=float)
    if u.shape[-1] != cov.n:
        raise ValueError(f"observation length {u.shape[-1]} != {cov.n}")
    return u @ ((cov.eigvecs * (cov.eigvals / (cov.eigvals + p))) @ cov.eigvecs.T)


def avg_mmse_from_eigvals(eigvals, p):
    """Average MSE of the optimal estimate, O(N) from eigenvalues alone."""
    if p == 0.0:
        return 0.0
    return float(np.mean(eigvals * p / (eigvals + p)))
