"""Generalised likelihood-ratio scans for regression-type change models.

A change model here is ``x = Z b + c_tau * phi + G e`` with base
covariates ``Z`` (the no-change part), a per-location change covariate
``c_tau``, an invertible noise mixing matrix ``G`` and standard Gaussian
``e``.  Whitening by ``G`` and projecting ``c_tau`` onto the
orthocomplement of the whitened base columns turns the likelihood-ratio
test for ``phi = 0`` into a scan ``max_tau |u_tau . (G^-1 x)|`` with unit
directions ``u_tau``; for the plain mean-change design this reduces to
the CUSUM scan of :mod:`cpdlab.cusum` up to sign.

The type-specific (oracle) scans and the min-BIC adaptive classifier
over five candidate change models read from three per-tau kernels, each
taking one series (n,) or a batch (N, n):

- mean change: :func:`cpdlab.cusum.cusum_statistic`, whose square is
  the drop in residual sum from the constant mean;
- variance change: :func:`_variance_change`, per-split segment
  variances from one prefix sum of squared deviations;
- slope change: :func:`_slope_change`, per-hinge statistics from suffix
  sums of the straight-line residual and a closed-form hinge norm.

Any other design goes through :func:`glr_directions`, whose rows act on
the raw series, so :func:`glr_statistic` is one product with a batch and
:func:`cpdlab.network.embed_directions` gives the scan's exact ReLU form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .cusum import _as_rows, _peak, cusum_statistic

__all__ = [
    "ChangeDesign",
    "GlrDirections",
    "mean_change_design",
    "slope_change_design",
    "glr_directions",
    "glr_statistic",
    "lr_variance_scan",
    "lr_slope_scan",
    "adaptive_classify",
    "CLASS_NO_CHANGE",
    "CLASS_MEAN_CHANGE",
    "CLASS_VARIANCE_CHANGE",
    "CLASS_SLOPE_NO_CHANGE",
    "CLASS_SLOPE_CHANGE",
]

# Class labels of the adaptive classifier, in BIC-candidate order.
CLASS_NO_CHANGE = 1
CLASS_MEAN_CHANGE = 2
CLASS_VARIANCE_CHANGE = 3
CLASS_SLOPE_NO_CHANGE = 4
CLASS_SLOPE_CHANGE = 5

# Floor applied to maximum-likelihood variance estimates so degenerate
# segments (identical values) stay finite.
VARIANCE_FLOOR = 1e-12

# Relative residual norm below which a change covariate is treated as
# lying in the span of the base covariates (scan statistic forced to 0).
DEGENERACY_TOL = 1e-10


@dataclass(frozen=True)
class ChangeDesign:
    """Covariate layout of a regression-type change model.

    Parameters
    ----------
    base : (n, p) array
        Covariates of the no-change model; must have full column rank.
    change_covariates : dict[int, (n,) array]
        Maps each candidate change location tau to its covariate.
    noise_transform : (n, n) array, optional
        Invertible mixing matrix applied to the white noise; ``None``
        means the identity.
    """

    base: np.ndarray
    change_covariates: dict[int, np.ndarray] = field(repr=False)
    noise_transform: np.ndarray | None = None

    def __post_init__(self):
        base = np.atleast_2d(np.asarray(self.base, dtype=np.float64))
        if base.ndim != 2:
            raise ValueError("base covariates must form a 2-D matrix")
        n, p = base.shape
        if p < 1 or n < 2:
            raise ValueError(f"base covariate matrix has invalid shape {base.shape}")
        if np.linalg.matrix_rank(base) < p:
            raise ValueError("base covariate matrix is rank deficient")
        covs = {}
        for tau, c in self.change_covariates.items():
            c = np.asarray(c, dtype=np.float64)
            if c.shape != (n,):
                raise ValueError(
                    f"change covariate at tau={tau} has shape {c.shape}, expected ({n},)"
                )
            covs[int(tau)] = c
        gamma = self.noise_transform
        if gamma is not None:
            gamma = np.asarray(gamma, dtype=np.float64)
            if gamma.shape != (n, n):
                raise ValueError(
                    f"noise transform has shape {gamma.shape}, expected ({n}, {n})"
                )
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "change_covariates", covs)
        object.__setattr__(self, "noise_transform", gamma)


@dataclass(frozen=True)
class GlrDirections:
    """Scan directions of a :class:`ChangeDesign`, acting on the raw series.

    ``|directions[k] . x|`` is the likelihood-ratio statistic for a change
    at ``taus[k]``.  Without a noise transform the rows are unit vectors.
    """

    taus: np.ndarray
    directions: np.ndarray


def mean_change_design(n: int, noise_transform=None, taus=None) -> ChangeDesign:
    """Design for one mean shift: intercept base, step covariates."""
    if taus is None:
        taus = range(1, n)
    base = np.ones((n, 1))
    idx = np.arange(1, n + 1)
    covs = {int(t): (idx > t).astype(np.float64) for t in taus}
    return ChangeDesign(base, covs, noise_transform)


def slope_change_design(n: int, noise_transform=None, taus=None) -> ChangeDesign:
    """Design for one continuous slope change: intercept+trend base, hinge covariates."""
    if taus is None:
        taus = range(1, n)
    idx = np.arange(1, n + 1, dtype=np.float64)
    base = np.column_stack([np.ones(n), idx])
    covs = {int(t): np.maximum(0.0, idx - t) for t in taus}
    return ChangeDesign(base, covs, noise_transform)


def glr_directions(design: ChangeDesign) -> GlrDirections:
    """Build the scan directions of the likelihood-ratio test for ``design``.

    Each change covariate is whitened, projected onto the orthocomplement
    of the whitened base columns, and normalised to a unit direction
    ``u``.  Covariates whose residual norm falls below ``DEGENERACY_TOL``
    relative to the whitened covariate are left out: a change there is
    indistinguishable from the no-change model.  With a noise transform
    ``G`` each direction becomes ``G^-T u``, which acts on the raw series
    as ``u`` acts on the whitened one.  Raises ``ValueError`` if every
    covariate is degenerate, since the scan is then empty.
    """
    taus = np.array(sorted(design.change_covariates), dtype=np.int64)
    if taus.size == 0:
        raise ValueError("design has no change covariates")
    cmat = np.column_stack([design.change_covariates[t] for t in taus])
    gamma = design.noise_transform
    if gamma is None:
        z_w, c_w = design.base, cmat
    else:
        try:
            z_w = np.linalg.solve(gamma, design.base)
            c_w = np.linalg.solve(gamma, cmat)
        except np.linalg.LinAlgError as exc:
            raise ValueError("noise transform is singular") from exc
    q, _ = np.linalg.qr(z_w)
    resid = c_w - q @ (q.T @ c_w)
    resid_norm = np.linalg.norm(resid, axis=0)
    c_norm = np.linalg.norm(c_w, axis=0)
    keep = resid_norm >= DEGENERACY_TOL * np.maximum(c_norm, 1e-300)
    if not keep.any():
        raise ValueError("all change directions are degenerate; nothing to scan")
    units = resid[:, keep] / resid_norm[keep]
    directions = units if gamma is None else np.linalg.solve(gamma.T, units)
    return GlrDirections(taus[keep], np.ascontiguousarray(directions.T))


def glr_statistic(x, dirs: GlrDirections):
    """Return ``(max_tau |u_tau . x|, argmax tau)``, smallest tau on ties.

    For a batch (N, n) both entries are length-N arrays; a series of
    another length than the design raises ``ValueError``.
    """
    return _peak(np.abs(_as_rows(x) @ dirs.directions.T), dirs.taus)


def _variance_change(x):
    """Per-split variance-change statistics of each row and its ML variance.

    Returns ``(taus, stats, total)``: the splits tau in [2, n-2], twice the
    Gaussian log likelihood ratio ``n log s0^2 - tau log s1^2 - (n-tau) log s2^2``
    at each split (segment variances floored at ``VARIANCE_FLOOR``), and
    ``s0^2``, the variance of the whole row around its mean.
    """
    n = x.shape[-1]
    d2 = (x - x.mean(axis=-1, keepdims=True)) ** 2
    prefix = np.cumsum(d2, axis=-1)
    taus = np.arange(2, n - 1)
    left = prefix[..., taus - 1] / taus
    right = (prefix[..., -1:] - prefix[..., taus - 1]) / (n - taus)
    total = prefix[..., -1] / n
    # Scalar libm log per row keeps the result bit-equal to a one-series scan.
    log_total = np.array([math.log(max(s, VARIANCE_FLOOR)) for s in np.ravel(total)])
    stats = (
        n * log_total.reshape(np.shape(total) + (1,))
        - taus * np.log(np.maximum(left, VARIANCE_FLOOR))
        - (n - taus) * np.log(np.maximum(right, VARIANCE_FLOOR))
    )
    return taus, stats, total


def _slope_change(x):
    """Per-hinge slope-change statistics of each row and its straight-line residual sum.

    With ``r`` the residual of the least-squares line and hinge
    ``h_tau = max(0, t - tau)``, the statistic at tau is
    ``|h_tau . r| / ||(I - P) h_tau||``, ``P`` projecting onto the line.
    ``h_tau . r`` is a suffix sum of suffix sums of ``r``, and with
    ``m = n - tau`` the squared norm has the closed form

        tau (tau-1) m (m+1) (2 tau (m+1) - n + 1) / (6 n (n^2 - 1)),

    which vanishes at tau = 1 (the hinge is then the line itself), so
    the scan runs over tau in [2, n-1].  Returns ``(taus, stats, rss_line)``.
    """
    n = x.shape[-1]
    tc = np.arange(1, n + 1) - (n + 1) / 2.0
    xc = x - x.mean(axis=-1, keepdims=True)
    slope = np.sum(xc * tc, axis=-1, keepdims=True) / (n * (n * n - 1) / 12.0)
    r = xc - slope * tc
    tail = np.cumsum(r[..., ::-1], axis=-1)
    hinge_dot = np.cumsum(tail, axis=-1)[..., ::-1]  # entry tau: h_tau . r
    taus = np.arange(2, n)
    tau, m = taus.astype(np.float64), (n - taus).astype(np.float64)
    norm2 = tau * (tau - 1) * m * (m + 1) * (2 * tau * (m + 1) - n + 1) / (6 * n * (n * n - 1))
    stats = np.abs(hinge_dot[..., 2:n]) / np.sqrt(norm2)
    return taus, stats, np.sum(r * r, axis=-1)


def lr_variance_scan(x):
    """Scan for one variance change around a common mean.

    Returns twice the maximised Gaussian log likelihood ratio over tau in
    [2, n-2] and its argmax, smallest tau on ties (see
    :func:`_variance_change`).  For a batch (N, n) both are length-N arrays.
    """
    taus, stats, _ = _variance_change(_as_rows(x, min_len=4))
    return _peak(stats, taus)


def lr_slope_scan(x):
    """Scan for one continuous slope change against a single linear trend.

    Returns the largest likelihood-ratio statistic over tau in [2, n-1]
    and its argmax, smallest tau on ties; it equals :func:`glr_statistic`
    on :func:`slope_change_design`.  For a batch (N, n) both are
    length-N arrays.
    """
    taus, stats, _ = _slope_change(_as_rows(x, min_len=4))
    return _peak(stats, taus)


def adaptive_classify(x):
    """Pick a change type by minimum BIC over five candidate models.

    Candidates, in label order: constant mean (1), one mean change (2),
    one variance change (3), single linear trend (4), one continuous
    slope change (5).  Each is fitted by maximum Gaussian likelihood
    (scanning tau where applicable) and scored with
    ``BIC = -2 loglik + k log n`` using free-parameter counts
    (2, 4, 4, 3, 5); sigma is counted once per model.  The best residual
    sums come from the scans: ``TSS - cusum^2`` for a mean change and
    ``RSS(line) - slope^2`` (tau in [2, n-2]) for a kink, and the
    variance change gains its likelihood ratio over the constant mean.
    Ties break toward the smallest label.  Returns one label for a
    series (n,) and a length-N array for a batch (N, n).
    """
    x = _as_rows(x, min_len=6)
    n = x.shape[-1]
    _, var_stats, total = _variance_change(x)
    _, slope_stats, rss_line = _slope_change(x)
    tss = n * total
    rss = np.stack([
        tss,
        tss - cusum_statistic(x)[0] ** 2,
        tss,
        rss_line,
        rss_line - slope_stats[..., :-1].max(axis=-1) ** 2,
    ], axis=-1)
    # -2 loglik = n log(2 pi sigma^2) + n; the constant terms are dropped.
    deviance = n * np.log(np.maximum(rss / n, VARIANCE_FLOOR))
    deviance[..., 2] -= var_stats.max(axis=-1)
    bic = deviance + np.array([2.0, 4.0, 4.0, 3.0, 5.0]) * math.log(n)
    labels = np.argmin(bic, axis=-1) + 1
    return int(labels) if x.ndim == 1 else labels
