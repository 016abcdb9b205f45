"""Base causal discovery methods mapping a series to a lag-indexed graph.

Two deterministic methods, each the one lagged least-squares fit (``fit_var``)
plus its own edge rule:

* ``varlingam``: orders the fit's residuals by a non-Gaussianity contrast to
  recover an acyclic instantaneous layer, and re-expresses the lagged
  coefficients in structural form.
* ``lagreg``: keeps the lagged coefficients passing a two-sided normal
  significance test, no instantaneous layer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from statistics import NormalDist
from typing import NamedTuple, Protocol

import numpy as np

from .series import Edge, MultivariateSeries, WindowGraph, require_field_kinds

# Constants of the maximum-entropy approximation used by the pairwise
# non-Gaussianity contrast (log-cosh and Gaussian-moment terms).
_K1 = 79.047
_K2 = 7.4129
_GAMMA = 0.37457

_ZERO_TOLERANCE = 1e-12


@dataclass(frozen=True)
class DiscovererConfig:
    """Shared knobs for the base methods.

    ``alpha`` is only read by the lagged-regression method; ``prune_threshold``
    drops estimated edges with |weight| below it for both methods.
    """

    max_lag: int = 3
    prune_threshold: float = 0.05
    alpha: float = 0.01

    def __post_init__(self) -> None:
        require_field_kinds(self)
        if self.max_lag < 1:
            raise ValueError(f"max_lag must be >= 1, got {self.max_lag}")
        if not np.isfinite(self.prune_threshold) or self.prune_threshold < 0:
            raise ValueError(f"prune_threshold must be finite and >= 0, got {self.prune_threshold}")
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError(f"alpha must lie in [0, 1], got {self.alpha}")


class VarFit(NamedTuple):
    """Least-squares fit of x_t on an intercept and lags 1..p.

    ``coefs[l-1][j, i]`` weights x_{t-l}(i) in the regression for x_t(j) and
    ``stderr[l-1][j, i]`` is its standard error; the residual rows follow the
    temporal order of the regressed steps.
    """

    coefs: np.ndarray
    residuals: np.ndarray
    stderr: np.ndarray


def _qr_solve(Z: np.ndarray, Y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Solve min ||Z b - Y|| by QR; raises on rank-deficient regressors."""
    Q, R = np.linalg.qr(Z)
    tol = max(Z.shape) * np.finfo(float).eps
    # An entry of R is the distance of one column from the span of the columns
    # before it; below ``tol`` of the column's own norm the column is dependent,
    # whatever its scale. R's column norms are Z's; hypot sums their squares
    # without overflow. A NaN fails too.
    if not (np.abs(np.diag(R)) > tol * np.hypot.reduce(R, axis=0)).all():
        raise ValueError(
            "rank-deficient regressor matrix (constant or duplicate columns, or too few rows)"
        )
    beta = np.linalg.solve(R, Q.T @ Y)
    return beta, R


# The fit falls back to QR when a diagonal entry of the Cholesky factor of Z'Z
# is not above this ratio of its column's norm (the sine of the column's angle
# to the span of the columns before it). Refined once, the Cholesky solution
# stays as close to the exact one as QR's down to this ratio; trended n=15,
# T=4000 designs reach 1.2e-4.
_MIN_CHOLESKY_RATIO = 1e-5


def _gram_factor(gram: np.ndarray) -> np.ndarray | None:
    """The lower Cholesky factor of ``gram``, or None when a design column is nearly dependent."""
    with np.errstate(invalid="ignore"):
        try:
            L = np.linalg.cholesky(gram)
        except np.linalg.LinAlgError:
            return None
        usable = (np.diag(L) > _MIN_CHOLESKY_RATIO * np.sqrt(np.diag(gram))).all()
    return L if usable else None


def _lagged_ols(values: np.ndarray, p: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Least squares of x_t on an intercept and lags 1..p: ``(beta, residuals, R)``.

    ``beta`` rows are the intercept then lag-major blocks of n regressors;
    ``R`` is upper triangular with R'R = Z'Z for the design Z, for coefficient
    variances. Z is never formed: Z'Z and Z'Y are blocks of one bordered
    matrix [Z Y]'[Z Y], whose diagonal and first row set the supported range;
    it, Z'M and Z b are summed over Z's lag blocks, views of ``values``. The
    normal equations are solved by Cholesky, and one refinement step on the
    residual wins back the digits they lose on trended designs; a nearly
    dependent column sends the fit to ``_qr_solve`` on the formed design.
    """
    if p < 1:
        raise ValueError(f"lag order must be >= 1, got {p}")
    T, n = values.shape
    if T <= n * p + p + 1:
        raise ValueError(f"need more than {n * p + p + 1} steps to fit {n} variables at lag {p}, got {T}")
    lags = [values[p - lag : T - lag] for lag in range(1, p + 1)]
    Y = values[p:]

    def cross(M: np.ndarray) -> np.ndarray:
        """Z'M."""
        return np.vstack([M.sum(axis=0), *(block.T @ M for block in lags)])

    def fitted(beta: np.ndarray) -> np.ndarray:
        """Z beta."""
        out = np.full(Y.shape, beta[0])
        for block, coefs in zip(lags, beta[1:].reshape(p, n, -1)):
            out += block @ coefs
        return out

    ones = np.ones((T - p, 1))
    k = 1 + n * p
    with np.errstate(over="ignore", invalid="ignore"):
        top = np.hstack([cross(M) for M in (ones, *lags, Y)])
        bordered = np.vstack([top, np.hstack([top[:, k:].T, Y.T @ Y])])
    # Squares that overflow or underflow would pass for a dependent or a
    # well-posed design alike; an all-zero column is left to the rank test.
    lowest = np.finfo(float).tiny / np.finfo(float).eps
    if not np.isfinite(bordered).all() or ((np.diag(bordered) < lowest) & (bordered[0] != 0.0)).any():
        raise ValueError(
            f"series values out of range: a column's sum of squares is not finite or below {lowest:.0e}"
        )
    L = _gram_factor(bordered[:k, :k])
    if L is None:
        Z = np.hstack([ones, *lags])
        beta, R = _qr_solve(Z, Y)
        return beta, Y - Z @ beta, R

    def solve(rhs: np.ndarray) -> np.ndarray:
        return np.linalg.solve(L.T, np.linalg.solve(L, rhs))

    beta = solve(bordered[:k, k:])
    beta += solve(cross(Y - fitted(beta)))
    return beta, Y - fitted(beta), L.T


def fit_var(series: MultivariateSeries, p: int) -> VarFit:
    """Ordinary least squares fit of a lag-p autoregression with intercept."""
    beta, residuals, R = _lagged_ols(series.values, p)
    n = series.n_vars
    coefs = np.stack([beta[1 + (lag - 1) * n : 1 + lag * n].T for lag in range(1, p + 1)])
    sigma2 = (residuals**2).sum(axis=0) / (len(residuals) - len(R))
    # Rooted apart, and R^-1's rows normed by hypot: in far-apart units the
    # product of the two variances, or the squares of R^-1, can leave the float
    # range where the standard error does not.
    unit_sd = np.hypot.reduce(np.linalg.solve(R, np.eye(len(R))), axis=1)
    stderr = np.sqrt(sigma2)[None, :, None] * unit_sd[1:].reshape(p, 1, n)
    return VarFit(coefs, residuals, stderr)


def _entropy(u: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Differential-entropy proxy of each standardized sample along the last axis.

    ``a`` and ``b`` are scratch arrays of ``u``'s shape, overwritten. log cosh(u)
    is taken as |u| + log1p(exp(-2|u|)) - log 2, which stays finite for any
    finite u (cosh itself overflows once |u| > ~710). Each mean is the sum
    divided by the count, as ``ndarray.mean`` computes it, without its overhead.
    """
    count = u.shape[-1]
    np.abs(u, out=a)
    np.multiply(a, -2.0, out=b)
    np.exp(b, out=b)
    np.log1p(b, out=b)
    b += a
    log_cosh = np.add.reduce(b, axis=-1) / count - math.log(2.0)
    np.multiply(u, u, out=a)
    a *= -0.5
    np.exp(a, out=a)
    a *= u
    gauss = np.add.reduce(a, axis=-1) / count
    return (1.0 + math.log(2.0 * math.pi)) / 2.0 - _K1 * (log_cosh - _GAMMA) ** 2 - _K2 * gauss**2


def _unit_rows(x: np.ndarray, sq: np.ndarray) -> np.ndarray:
    """``x`` with each centred row (along the last axis) divided in place by its deviation,
    which must exceed 1e-12: the ordering's one degeneracy rule, as every work column
    starts at deviation 1. ``sq`` is a scratch array of ``x``'s shape, overwritten."""
    np.multiply(x, x, out=sq)
    std = np.sqrt(np.add.reduce(sq, axis=-1, keepdims=True) / x.shape[-1])
    if (std <= _ZERO_TOLERANCE).any():
        raise ValueError("degenerate (near-constant) residual column")
    x /= std
    return x


# Candidates are scored in batches of at most this many slab values (256 KiB), at least
# one candidate a batch, so a step's working set stays small at any length: one slab of
# every candidate at once was slower than one candidate at a time at T=4000.
_BATCH_VALUES = 2**15


def _scratch(rows: int, n: int) -> np.ndarray:
    """The three buffers ``_select_exogenous`` computes in for ``rows`` x ``n`` work columns:
    each holds a batch of candidate slabs or all the active rows."""
    return np.empty((3, max(_BATCH_VALUES, rows * n)))


def _select_exogenous(work: np.ndarray, active: list[int], scratch: np.ndarray) -> int:
    """Pick the most plausibly exogenous variable among the active columns.

    For each ordered pair the score contrasts the entropy proxy of one
    variable plus the other's regression residual against the reverse
    direction; the candidate minimising the squared negative part wins,
    with ties broken toward the lowest variable index.

    The rows stay centred, so one product gives every correlation. A
    candidate's residuals form one (m - 1, T) slab, and the candidates are
    scored in batches of as many slabs as fit ``_BATCH_VALUES`` (at least
    one), computed in place in ``scratch`` (see ``_scratch``): memory is
    O(max(2**15, T*n)), whatever the step.
    """
    x = work.T[active]  # a copy, scaled in place below
    m, T = x.shape
    sq, a, b = (buf[: m * T].reshape(m, T) for buf in scratch)
    entropy = _entropy(_unit_rows(x, sq), a, b)
    corr = x @ x.T / T
    # Row i of the off-diagonal pattern: others[i] are the active rows other than i, in order,
    # and weights[i, k] is row i's correlation with others[i, k].
    off = ~np.eye(m, dtype=bool)
    others = np.nonzero(off)[1].reshape(m, m - 1)
    weights = corr[off].reshape(m, m - 1, 1)
    # pair_entropy[i, k]: entropy proxy of variable i's residual on others[i, k]
    pair_entropy = np.empty((m, m - 1))
    batch = max(1, _BATCH_VALUES // ((m - 1) * T))
    for start in range(0, m, batch):
        rows = slice(start, start + batch)
        block = others[rows]
        r, a, b = (buf[: block.size * T].reshape(*block.shape, T) for buf in scratch)
        # Every index is in range; "clip" lets take write into r without a buffered copy.
        np.take(x, block, axis=0, out=r, mode="clip")
        r *= weights[rows]
        np.subtract(x[rows, None], r, out=r)
        pair_entropy[rows] = _entropy(_unit_rows(r, a), a, b)
    residual_entropy = np.zeros((m, m))
    residual_entropy[off] = pair_entropy.ravel()
    direction = (entropy[None, :] + residual_entropy) - (entropy[:, None] + residual_entropy.T)
    scores = np.square(np.minimum(direction, 0.0)).sum(axis=1)
    if not np.isfinite(scores).all():
        raise ValueError("non-finite exogeneity score in the causal ordering")
    return active[int(np.argmin(scores))]


def direct_lingam_order(residuals: np.ndarray) -> tuple[list[int], np.ndarray]:
    """Recover a causal order and instantaneous coefficients from iid residual rows.

    Returns ``(order, b0)`` where ``order`` lists variables from most to least
    exogenous and ``b0[effect, cause]`` holds the OLS coefficients of each
    variable on its predecessors (strictly triangular under ``order``). Each
    chosen variable is regressed out of the remaining standardized columns
    (modified Gram-Schmidt), and b0 is read off those regressions, so neither
    the order nor b0 depends on the scale of the input columns.
    """
    E = np.asarray(residuals, dtype=float)
    if E.ndim != 2:
        raise ValueError(f"residuals must be 2-dimensional, got shape {E.shape}")
    if not np.isfinite(E).all():
        raise ValueError("residuals must be finite")
    rows, n = E.shape
    if rows < 10 * n:
        raise ValueError(f"need at least {10 * n} residual rows for {n} variables, got {rows}")

    # Standardized once, so every degeneracy test below is relative to its column's scale.
    centred = E - E.mean(axis=0)
    scale = np.sqrt((centred * centred).mean(axis=0))
    if not (scale > _ZERO_TOLERANCE * np.abs(E).max(axis=0)).all():
        raise ValueError("degenerate (near-constant) residual column")
    work = centred / scale
    # deflation[a, c]: the multiple of pivot c's work column taken out of column a
    deflation = np.zeros((n, n))
    scratch = _scratch(rows, n)
    active = list(range(n))
    order: list[int] = []
    while active:
        chosen = active[0] if len(active) == 1 else _select_exogenous(work, active, scratch)
        order.append(chosen)
        active.remove(chosen)
        if active:
            # The pivot passed the degeneracy rule in this step's selection. Each mean, and
            # the variance, is the sum over the count that ndarray.mean and .var compute.
            pivot = work[:, chosen]
            rest = work[:, active]
            pivot_mean = np.add.reduce(pivot) / rows
            centred_pivot = pivot - pivot_mean
            variance = float(np.add.reduce(centred_pivot * centred_pivot) / rows)
            means = np.add.reduce(rest, axis=0) / rows
            covs = np.add.reduce(rest * pivot[:, None], axis=0) / rows - means * float(pivot_mean)
            deflation[active, chosen] = covs / variance
            work[:, active] = rest - np.outer(pivot, deflation[active, chosen])

    # The final work columns W are the residuals of the standardized columns S on
    # their predecessors. With G = deflation, S = W (I + G)' and S (I - b0)' = W,
    # so b0 = I - (I + G)^-1, solved row by row in causal order.
    b0 = np.zeros((n, n))
    for idx in range(1, n):
        target, preds = order[idx], order[:idx]
        b0[target, preds] = deflation[target, preds] @ (np.eye(idx) - b0[np.ix_(preds, preds)])
    # Clamped in standardized units, so the zero pattern is the same in any units.
    b0[np.abs(b0) < _ZERO_TOLERANCE] = 0.0
    b0 *= scale[:, None] / scale
    return order, b0


def _window_graph(weights: np.ndarray, keep: np.ndarray | bool, first_lag: int,
                  config: DiscovererConfig) -> WindowGraph:
    """The graph of the entries of ``weights[lag - first_lag, effect, cause]`` where
    ``keep`` holds and the weight is non-zero and at least ``prune_threshold``."""
    keep = keep & (weights != 0.0) & (np.abs(weights) >= config.prune_threshold)
    lag, effect, cause = np.nonzero(keep)
    edges = frozenset(map(Edge, cause.tolist(), effect.tolist(), (lag + first_lag).tolist(),
                          weights[keep].tolist()))
    return WindowGraph(weights.shape[1], first_lag + len(weights) - 1, edges)


def varlingam_discover(series: MultivariateSeries, config: DiscovererConfig) -> WindowGraph:
    """Ordered-residual discovery: lag fit, residual ordering, structural rewrite."""
    fit = fit_var(series, config.max_lag)
    _, b0 = direct_lingam_order(fit.residuals)
    structural = (np.eye(series.n_vars) - b0) @ fit.coefs
    return _window_graph(np.concatenate([b0[None], structural]), True, 0, config)


def lagreg_discover(series: MultivariateSeries, config: DiscovererConfig) -> WindowGraph:
    """Per-target lagged regression keeping significant, non-trivial coefficients."""
    fit = fit_var(series, config.max_lag)
    critical = NormalDist().inv_cdf(1.0 - config.alpha / 2.0) if config.alpha > 0.0 else math.inf
    with np.errstate(divide="ignore", invalid="ignore"):
        significant = (fit.stderr > 0.0) & (np.abs(fit.coefs) / fit.stderr > critical)
    return _window_graph(fit.coefs, significant, 1, config)


class BaseDiscoverer(Protocol):
    """A base method: any deterministic map from a multivariate series to a window graph."""

    def discover(self, series: MultivariateSeries) -> WindowGraph: ...


DISCOVERERS = ("lagreg", "varlingam")


class Discoverer(NamedTuple):
    """One of the shipped base methods with its configuration; ``make_discoverer`` checks the id."""

    method_id: str
    config: DiscovererConfig

    def discover(self, series: MultivariateSeries) -> WindowGraph:
        # Looked up by module-global name at call time, so a rebound function is the one called.
        method = varlingam_discover if self.method_id == "varlingam" else lagreg_discover
        return method(series, self.config)


def make_discoverer(method_id: str, config: DiscovererConfig = DiscovererConfig()) -> Discoverer:
    if method_id not in DISCOVERERS:
        raise ValueError(f"unknown discoverer {method_id!r}, expected one of: {', '.join(DISCOVERERS)}")
    return Discoverer(method_id, config)
