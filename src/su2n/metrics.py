"""Numerical Cartan projection, representation norms, and envelope fitting.

mu(g) is computed in a fixed orthonormal basis S that diagonalizes the
Hermitian form: the two hyperbolic pairs (e1, e_{n+2}) and (e2, e_{n+1}) are
rotated to (+/-) combinations over sqrt(2), so K becomes block-unitary and
the Cartan A+-part is read off the top singular values of S^dagger g S.

|rho(g)| is the max absolute 2x2 minor of g (second exterior power); an
independent oracle builds the full wedge-square matrix from g (x) g.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
import numpy as np

from .config import DEFAULT
from .shapes import MuShape


class NonFinite(ArithmeticError):
    """Matrix overflow / non-finite entries; sample below the norm ceiling."""


class InsufficientRange(ValueError):
    pass


class SymbolicShape(ValueError):
    pass


@dataclass(frozen=True)
class CartanPoint:
    a1: float
    a2: float

    def __post_init__(self):
        if not (self.a1 >= self.a2 >= 1.0 - 1e-9):
            raise ValueError(f"not in the closed chamber: {self.a1}, {self.a2}")

    def as_tuple(self):
        return (self.a1, self.a2)

    def matrix(self, n) -> np.ndarray:
        """The chamber point as the complex matrix diag(a1, a2, 1, ..., 1, 1/a2, 1/a1)."""
        d = np.ones(n + 2, dtype=complex)
        d[0], d[1], d[n], d[n + 1] = self.a1, self.a2, 1 / self.a2, 1 / self.a1
        return np.diag(d)


def _per_matrix(values):
    """A float for one matrix, the array of values for a stack."""
    return float(values) if values.ndim == 0 else values


def sup_norm(g):
    """Max |entry| of a matrix, or of each matrix in a (..., m, m) stack."""
    a = np.asarray(g, dtype=complex)
    return _per_matrix(np.abs(a).max(axis=(-2, -1)))


def _minor_tables(m):
    idx = [(i, j) for i in range(m) for j in range(i + 1, m)]
    I = np.array([p[0] for p in idx])
    J = np.array([p[1] for p in idx])
    return I, J


def rho_norm(g):
    """Max |det| over all 2x2 submatrices, per matrix of a (..., m, m) stack."""
    a = np.asarray(g, dtype=complex)
    I, J = _minor_tables(a.shape[-1])
    # minors[..., p, q] = a[i_p, k_q] a[j_p, l_q] - a[i_p, l_q] a[j_p, k_q]
    rows_i, rows_j = a[..., I, :], a[..., J, :]
    minors = rows_i[..., I] * rows_j[..., J] - rows_i[..., J] * rows_j[..., I]
    return _per_matrix(np.abs(minors).max(axis=(-2, -1)))


def rho_wedge_matrix(g) -> np.ndarray:
    """The wedge-square matrix built by brute force from g (x) g.

    Rows/columns indexed by pairs (i < j) with basis (e_i ^ e_j); entries are
    the 2x2 minors, but assembled through the Kronecker square so it is an
    independent construction from rho_norm's direct minor sweep.
    """
    a = np.asarray(g, dtype=complex)
    m = a.shape[0]
    big = np.kron(a, a)
    idx = [(i, j) for i in range(m) for j in range(i + 1, m)]
    P = np.zeros((len(idx), m * m))
    r2 = math.sqrt(2.0)
    for r, (i, j) in enumerate(idx):
        P[r, i * m + j] = 1 / r2
        P[r, j * m + i] = -1 / r2
    return P @ big @ P.T


def rho_norm_oracle(g) -> float:
    return float(np.abs(rho_wedge_matrix(g)).max())


def basis_change(n: int) -> np.ndarray:
    """Columns: (e1+e_{n+2})/r2, (e2+e_{n+1})/r2, middle, (e2-e_{n+1})/r2,
    (e1-e_{n+2})/r2.  Orthogonal, and S^T J S = diag(1,...,1,-1,-1)."""
    m = n + 2
    S = np.zeros((m, m))
    r2 = math.sqrt(2.0)
    S[0, 0] = S[m - 1, 0] = 1 / r2
    S[1, 1] = S[n, 1] = 1 / r2
    for k in range(2, n):
        S[k, k] = 1.0
    S[1, m - 2] = 1 / r2
    S[n, m - 2] = -1 / r2
    S[0, m - 1] = 1 / r2
    S[m - 1, m - 1] = -1 / r2
    return S


def mu(g, tol=None) -> CartanPoint:
    """Cartan projection: g in K mu(g) K, mu(g) = diag(a1, a2, ...) in A+.

    Singular values of S^dagger g S pair off as (s, 1/s); the top two give
    (a1, a2).  Invariant under J-compatible unitaries on either side and
    under inversion.
    """
    tol = tol or DEFAULT
    a = np.asarray(g, dtype=complex)
    if not np.all(np.isfinite(a)):
        raise NonFinite("non-finite matrix entries")
    m = a.shape[0]
    n = m - 2
    S = basis_change(n)
    try:
        sv = np.linalg.svd(S.T @ a @ S, compute_uv=False)
    except np.linalg.LinAlgError as e:  # pragma: no cover
        raise NonFinite(str(e))
    # reciprocal pairing check, greedy from the top; the tolerance widens
    # with the conditioning sv[0]^2 since the small partners lose relative
    # digits near the sampling ceiling (the top values stay accurate)
    pair_tol = tol.mu_pair_rtol * max(1.0, 1e-9 * float(sv[0]) ** 2)
    for i in range(m // 2):
        prod = sv[i] * sv[m - 1 - i]
        if abs(prod - 1.0) > pair_tol * max(1.0, prod):
            raise NonFinite(
                f"singular values do not pair reciprocally: s{i}*s{m-1-i} = {prod}")
    a1 = float(sv[0])
    a2 = float(sv[1])
    a1 = max(a1, 1.0)
    a2 = min(max(a2, 1.0), a1)
    return CartanPoint(a1, a2)


def sample_compact_pair(n: int, rng) -> np.ndarray:
    """A random element of K: block-unitary in the S-basis."""
    m = n + 2
    S = basis_change(n)

    def haar(k):
        z = rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k))
        q, r = np.linalg.qr(z)
        return q * (np.diagonal(r) / np.abs(np.diagonal(r))).conj()

    block = np.zeros((m, m), dtype=complex)
    block[:n, :n] = haar(n)
    block[n:, n:] = haar(2)
    return S @ block @ S.T


# -- sample clouds and envelope fitting ---------------------------------------

@dataclass
class SampleCloud:
    """Columns of (log10|h|, log10|rho(h)|) with per-sample curve tags."""
    log_norm: np.ndarray
    log_rho: np.ndarray
    tags: list
    meta: dict = field(default_factory=dict)

    def __len__(self):
        return len(self.log_norm)

    @staticmethod
    def collect(points):
        ln, lr, tg = [], [], []
        for (norm, rho, tag) in points:
            if norm <= 1.0:
                continue
            ln.append(math.log10(norm))
            lr.append(math.log10(max(rho, 1e-300)))
            tg.append(tag)
        return SampleCloud(np.array(ln), np.array(lr), tg)

    def to_rows(self):
        t = self.meta.get("t_values", [None] * len(self))
        return [(t[i], float(self.log_norm[i]), float(self.log_rho[i]), self.tags[i])
                for i in range(len(self))]


def _envelope_points(x, y, take_max: bool):
    lo, hi = math.floor(x.min()), math.ceil(x.max())
    pts = []
    for b in range(lo, hi):
        mask = (x >= b) & (x < b + 1)
        if not mask.any():
            continue
        sub = np.where(mask)[0]
        k = sub[np.argmax(y[sub])] if take_max else sub[np.argmin(y[sub])]
        pts.append((x[k], y[k]))
    return pts


def fit_exponents(cloud: SampleCloud, tol=None):
    """Envelope slopes of log|rho| against log|h|.

    Upper slope from least squares through the per-decade maxima, lower from
    the minima.  The first quarter of the decade range is dropped before
    fitting (samples near the identity have not reached their asymptotics and
    would tilt the envelopes), keeping at least 2.5 decades.  Returns
    (s_lo, s_hi, confidence) where confidence is the worst envelope residual.
    Raises InsufficientRange if the cloud has fewer than `min_samples` points
    or spans fewer than `min_decades` decades.
    """
    tol = tol or DEFAULT
    if len(cloud) < tol.min_samples:
        raise InsufficientRange(f"only {len(cloud)} samples")
    x, y = cloud.log_norm, cloud.log_rho
    span = x.max() - x.min()
    if span < tol.min_decades:
        raise InsufficientRange(
            f"norms span {span:.2f} decades < {tol.min_decades}")
    # drop the preasymptotic head, aligned to a decade boundary so the first
    # bin is fully populated (a sliver bin distorts the envelopes)
    cut = min(float(x.min()) + 0.25 * float(span), float(x.max()) - 2.5)
    cut = math.ceil(cut - 1e-9)
    if float(x.max()) - cut < 2.5:
        cut = math.floor(min(float(x.min()) + 0.25 * float(span),
                             float(x.max()) - 2.5))
    if cut > float(x.min()):
        keep = x >= cut
        x, y = x[keep], y[keep]

    def fit(points):
        px = np.array([p[0] for p in points])
        py = np.array([p[1] for p in points])
        slope, icept = np.polyfit(px, py, 1)
        resid = float(np.abs(py - (slope * px + icept)).max())
        return float(slope), resid

    s_hi, r_hi = fit(_envelope_points(x, y, True))
    s_lo, r_lo = fit(_envelope_points(x, y, False))
    return s_lo, s_hi, max(r_lo, r_hi)


def fit_log_power(cloud: SampleCloud, s: float):
    """Regress log|rho| - s log|h| against log log|h|.

    Along an extremal curve with rho ~ |h|^s (log|h|)^p this recovers p.
    log10 columns are converted to natural logs so the coefficient is the
    honest log power.
    """
    ln_norm = cloud.log_norm * math.log(10.0)
    ln_rho = cloud.log_rho * math.log(10.0)
    keep = ln_norm > 1.0
    if keep.sum() < 5:
        raise InsufficientRange("too few samples above |h| = e")
    u = np.log(ln_norm[keep])
    v = ln_rho[keep] - s * ln_norm[keep]
    slope, _ = np.polyfit(u, v, 1)
    return float(slope)


@dataclass
class ShapeReport:
    verdict: bool
    fitted: tuple
    expected: MuShape
    details: dict

    def __bool__(self):
        return self.verdict


def shape_check(cloud: SampleCloud, shape: MuShape, tol=None) -> ShapeReport:
    """Compare a fitted cloud with a predicted MuShape at finite scale.

    Envelope slopes must match the shape's exponents within envelope_tol; for
    log-corrected envelopes the expected log drift is subtracted before the
    slope comparison, and the recovered log power must match within
    log_power_tol.
    """
    tol = tol or DEFAULT
    if shape.symbolic:
        raise SymbolicShape("shape has a symbolic exponent; unverifiable here")
    if shape.kind == "ray":
        k = fit_ray_power(cloud)
        ok = abs(k - float(shape.k)) <= tol.log_power_tol
        return ShapeReport(ok, (k,), shape, {"fitted_k": k})

    details = {}
    x, y = cloud.log_norm, cloud.log_rho
    ln10 = math.log(10.0)

    def corrected(logpow, take_max):
        if logpow == 0:
            return cloud
        yy = y - (float(logpow) * np.log(np.maximum(x * ln10, 1e-9)) / ln10)
        return SampleCloud(x, yy, cloud.tags)

    s_lo_f, _, _ = fit_exponents(corrected(shape.log_lo, False), tol)
    _, s_hi_f, _ = fit_exponents(corrected(shape.log_hi, True), tol)
    details["s_lo_fitted"] = s_lo_f
    details["s_hi_fitted"] = s_hi_f
    ok = (abs(s_lo_f - float(shape.s_lo)) <= tol.envelope_tol
          and abs(s_hi_f - float(shape.s_hi)) <= tol.envelope_tol)
    if ok and shape.log_lo != 0:
        p = fit_log_power(_cloud_min_envelope(cloud), float(shape.s_lo))
        details["log_lo_fitted"] = p
        ok = abs(p - float(shape.log_lo)) <= tol.log_power_tol
    if ok and shape.log_hi != 0:
        p = fit_log_power(_cloud_max_envelope(cloud), float(shape.s_hi))
        details["log_hi_fitted"] = p
        ok = abs(p - float(shape.log_hi)) <= tol.log_power_tol
    return ShapeReport(ok, (s_lo_f, s_hi_f), shape, details)


def _cloud_min_envelope(cloud):
    pts = _envelope_points(cloud.log_norm, cloud.log_rho, False)
    return SampleCloud(np.array([p[0] for p in pts]), np.array([p[1] for p in pts]),
                       ["min"] * len(pts))


def _cloud_max_envelope(cloud):
    pts = _envelope_points(cloud.log_norm, cloud.log_rho, True)
    return SampleCloud(np.array([p[0] for p in pts]), np.array([p[1] for p in pts]),
                       ["max"] * len(pts))


def fit_ray_power(cloud: SampleCloud) -> float:
    """Slope of log(perpendicular drift) against log(ray coordinate).

    The cloud must carry mu points in meta["mu_points"] as (a1, a2) pairs.
    The dominant chamber direction is taken as the ray R; the drift of the
    log-coordinates perpendicular to R grows like (ray coordinate)^0 with
    |s| = (log|r|)^k, i.e. perp = k * log(ray) + const.
    """
    pts = cloud.meta.get("mu_points")
    if pts is None:
        raise InsufficientRange("ray fitting needs mu points in the cloud meta")
    lam = np.log(np.array(pts, dtype=float))  # rows (log a1, log a2)
    norms = np.linalg.norm(lam, axis=1)
    keep0 = norms > 1e-9
    if keep0.sum() < 8:
        raise InsufficientRange("too few usable ray samples")
    lam = lam[keep0]
    ray = cloud.meta.get("ray_direction")
    if ray is not None:
        w = np.array(ray, dtype=float)
    else:
        w = (lam / np.linalg.norm(lam, axis=1)[:, None]).mean(axis=0)
    w = np.abs(w) / np.linalg.norm(w)
    wp = np.array([-w[1], w[0]])
    # Group norms of the two A-factors: exp(rho * w) has sup norm
    # e^{rho * max|w_i|}, likewise for the perpendicular factor.
    log_r = (lam @ w) * float(np.abs(w).max())
    log_s = np.abs(lam @ wp) * float(np.abs(wp).max())
    keep = (log_r > 2.0) & (log_s > 1e-9)
    if keep.sum() < 8:
        raise InsufficientRange("too few usable ray samples")
    slope, _ = np.polyfit(np.log(log_r[keep]), log_s[keep], 1)
    # |s| = (log|r|)^k reads log|s| = k log(log|r|); the slope is k.
    return float(slope)
