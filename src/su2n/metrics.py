"""Numerical Cartan projection, representation norms, and envelope fitting.

mu(g) is computed in a fixed orthonormal basis S that diagonalizes the
Hermitian form: the two hyperbolic pairs (e1, e_{n+2}) and (e2, e_{n+1}) are
rotated to (+/-) combinations over sqrt(2), so K becomes block-unitary and
the Cartan A+-part is read off the top singular values of S^dagger g S.
Like sup_norm and rho_norm, mu takes a matrix or a (..., m, m) stack; a
stack is one product and one batched SVD (lab hands it a block's kept
samples at once).

|rho(g)| is the max absolute 2x2 minor of g (second exterior power); an
independent oracle builds the full wedge-square matrix from g (x) g.
rho_norm gathers the minors through two flat-index tables per m: upper, the
minors an upper-triangular matrix can have nonzero, always taken; and rest,
taken only when a strictly-lower entry is nonzero or an entry is not finite
(K-conjugates, overflowed candidates).  Samples of AN skip rest.  It takes a
stack in passes of at most BLOCK_POINTS matrices, gathering into buffers kept
from call to call (_Scratch, shared with lab's block evaluation), so a call
allocates only its result.

The envelope fits bin a cloud by decade in one sort; shape_check fits once
when both envelopes carry the same log correction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import compress
import numpy as np

from .config import ENVELOPE_TOL, LOG_POWER_TOL, MIN_DECADES, MIN_SAMPLES, MU_PAIR_RTOL
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


# Stacks are evaluated and measured at most BLOCK_POINTS matrices at a time
# (lab's evaluation blocks, rho_norm's passes).
BLOCK_POINTS = 192


class _Scratch:
    """Byte buffers kept from call to call, one per name, handed out as
    C-contiguous views of the shape and dtype asked for; a view is valid
    until the next request of its name, in any dtype.  A buffer grows to
    the largest request of at most LIMIT bytes; a larger request gets a
    fresh array that is not kept.

    A loop that reuses them leaves the allocator nothing to free: freed
    temporaries of a few hundred KB are trimmed off the heap top by glibc
    and faulted back in on the next call, which made the sampling kernels'
    speed depend on the allocator's state.

    One instance, _SCRATCH, serves rho_norm and lab's block evaluation, and
    both name their buffers by the letters "a" to "e".  Each holds its
    views only while it runs and calls no other user meanwhile, so the
    letters serve each in turn and the memory kept is the larger user's,
    not the sum.
    """

    LIMIT = 1 << 22

    def __init__(self):
        self.flat = {}

    def __call__(self, name, shape, dtype=complex):
        try:
            return np.ndarray(shape, dtype, self.flat[name])
        except (KeyError, TypeError):  # no buffer yet, or one too small
            return self._grow(name, shape, dtype)

    def _grow(self, name, shape, dtype):
        nbytes = math.prod(shape) * np.dtype(dtype).itemsize
        if nbytes > self.LIMIT:
            return np.empty(shape, dtype)
        self.flat[name] = np.empty(nbytes, np.uint8)
        return np.ndarray(shape, dtype, self.flat[name])


_SCRATCH = _Scratch()


def sup_norm(g):
    """Max |entry| of a matrix, or of each matrix in a (..., m, m) stack."""
    a = np.asarray(g, dtype=complex)
    return _per_matrix(np.abs(a).max(axis=(-2, -1)))


@lru_cache(maxsize=None)
def _minor_index(m):
    """(upper, rest, low) for m x m matrices flattened to rows of m^2 entries.

    A minor with rows i < j and columns k < l is the flat-index column
    (ik, jl, il, jk) of a (4, K) table: its value is a_ik a_jl - a_il a_jk.
    upper holds the minors with i <= k and j <= l, rest the others; low holds
    the strictly-lower entries.  On a finite matrix whose low entries are all
    zero, every rest minor is exactly +/-0 (one zero factor in each product).
    """
    pairs = [(i, j) for i in range(m) for j in range(i + 1, m)]
    minors = [(i, j, k, l) for i, j in pairs for k, l in pairs]

    def table(keep):
        cols = [(i * m + k, j * m + l, i * m + l, j * m + k)
                for i, j, k, l in minors if (i <= k and j <= l) == keep]
        return np.array(cols, dtype=np.intp).reshape(-1, 4).T.copy()

    low = np.array([i * m + j for i in range(m) for j in range(i)], dtype=np.intp)
    tables = table(True), table(False), low
    for t in tables:
        t.setflags(write=False)
    return tables


def _largest_minor(rows, table, out=None):
    """Max |minor| over the columns of table, for (m^2, N) rows of entries.

    The factors are gathered into scratch arrays (take with mode "clip":
    every index is in range, and the default mode buffers its output) and
    the two products are formed in place."""
    ik, jl, il, jk = table
    shape = (len(ik), rows.shape[1])
    x = rows.take(ik, 0, _SCRATCH("b", shape), "clip")
    y = rows.take(jl, 0, _SCRATCH("c", shape), "clip")
    x *= y
    rows.take(il, 0, y, "clip")
    y *= rows.take(jk, 0, _SCRATCH("d", shape), "clip")
    x -= y
    # y is spent: its bytes take |x|
    return np.abs(x, out=_SCRATCH("c", shape, float)).max(axis=0, out=out)


def _off_triangle(rows, low):
    """Whether a strictly-lower entry (flat indices low) is nonzero or an
    entry is not finite, for (m^2, N) rows; checked in the spent buffer of
    _largest_minor's third factor."""
    lower = rows.take(low, 0, _SCRATCH("d", (len(low), rows.shape[1])), "clip")
    return lower.any() or not np.isfinite(rows, out=_SCRATCH("d", rows.shape, bool)).all()


def _pass_points(m):
    """Matrices per rho_norm pass at size m: BLOCK_POINTS while the upper
    table has at most 105 minors (m <= 6, every gallery size), fewer above,
    so that a pass's factor buffers hold at most BLOCK_POINTS * 105 entries
    of the upper table (at m = 10, its 825 minors take passes of 24)."""
    return min(BLOCK_POINTS, max(1, BLOCK_POINTS * 105 // _minor_index(m)[0].shape[1]))


def rho_norm(g):
    """Max |det| over all 2x2 submatrices, per matrix of a (..., m, m) stack.

    The minors of _minor_index's upper table are always taken; the rest,
    which vanish on upper-triangular matrices (AN samples), are folded in
    only when a strictly-lower entry is nonzero or an entry is not finite,
    decided per pass.  The stack is taken in passes of _pass_points(m)
    matrices, each laid out entry-major in a scratch array, so memory stays
    bounded and only the result is allocated.  The result equals the sweep
    over all minors bit for bit, whatever the passes.
    """
    a = np.asarray(g, dtype=complex)
    m = a.shape[-1]
    upper, rest, low = _minor_index(m)
    flat = a.reshape(-1, m * m)
    largest = np.empty(len(flat))
    step = _pass_points(m)
    for start in range(0, len(flat), step):
        part = flat[start:start + step]
        rows = _SCRATCH("a", part.shape[::-1])
        rows[...] = part.T  # entry-major: each gather is a row
        out = largest[start:start + len(part)]
        _largest_minor(rows, upper, out)
        if rest.size and _off_triangle(rows, low):  # no rest at m = 2
            np.maximum(out, _largest_minor(rows, rest), out=out)
    return _per_matrix(largest.reshape(a.shape[:-2]))


def rho_wedge_matrix(g) -> np.ndarray:
    """The wedge-square matrix built by brute force from g (x) g.

    Rows/columns indexed by pairs (i < j) with basis (e_i ^ e_j); entries are
    the 2x2 minors, but assembled through the Kronecker square so it is an
    independent construction from rho_norm's minor tables.
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


@lru_cache(maxsize=None)
def basis_change(n: int) -> np.ndarray:
    """Columns: (e1+e_{n+2})/r2, (e2+e_{n+1})/r2, middle, (e2-e_{n+1})/r2,
    (e1-e_{n+2})/r2.  Orthogonal, and S^T J S = diag(1,...,1,-1,-1).
    Built once per n and read-only."""
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
    S.setflags(write=False)
    return S


def _first_failing(failed):
    """(index, message prefix) of the first True of failed, a mask over a
    stack's matrices; ((), "") for a single matrix (a 0-d mask)."""
    j = np.unravel_index(int(np.argmax(failed)), failed.shape)
    if not j:
        return j, ""
    return j, f"matrix {j[0] if len(j) == 1 else tuple(map(int, j))}: "


def mu(g):
    """Cartan projection: g in K mu(g) K, mu(g) = diag(a1, a2, ...) in A+,
    of a matrix (a CartanPoint) or of each matrix in a (..., m, m) stack
    (a (..., 2) array of rows (a1, a2)).

    Singular values of S^dagger g S pair off as (s, 1/s); the top two give
    (a1, a2).  Invariant under J-compatible unitaries on either side and
    under inversion.  A matrix and a stack take the same steps: one
    finiteness check, one product and one (batched) SVD.  A non-finite
    entry or a spectrum that does not pair reciprocally raises NonFinite,
    naming the first such matrix of a stack by its index.
    """
    a = np.asarray(g, dtype=complex)
    if not np.isfinite(a).all():
        _, where = _first_failing(~np.isfinite(a).all(axis=(-2, -1)))
        raise NonFinite(where + "non-finite matrix entries")
    m = a.shape[-1]
    S = basis_change(m - 2)
    try:
        sv = np.linalg.svd(S.T @ a @ S, compute_uv=False)
    except np.linalg.LinAlgError as e:  # pragma: no cover
        raise NonFinite(str(e))
    # reciprocal pairing check, greedy from the top; the tolerance widens
    # with the conditioning sv[0]^2 since the small partners lose relative
    # digits near the sampling ceiling (the top values stay accurate)
    half = m // 2
    pair_tol = MU_PAIR_RTOL * np.maximum(1.0, 1e-9 * sv[..., :1] ** 2)
    prod = sv[..., :half] * sv[..., :-half - 1:-1]
    bad = np.abs(prod - 1.0) > pair_tol * np.maximum(1.0, prod)
    if bad.any():
        j, where = _first_failing(bad.any(axis=-1))
        i = int(np.argmax(bad[j]))
        raise NonFinite(where + "singular values do not pair reciprocally: "
                        f"s{i}*s{m-1-i} = {prod[j][i]}")
    top = np.maximum(sv[..., :2], 1.0)  # (a1, a2) with a2 <= a1 below
    np.minimum(top[..., 1], top[..., 0], out=top[..., 1])
    return CartanPoint(*top.tolist()) if top.ndim == 1 else top


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
    def collect(norms, rhos, tags):
        """The cloud of the samples with norm |h| > 1 (rho floored at 1e-300)."""
        norms = np.asarray(norms, dtype=float)
        keep = norms > 1.0
        return SampleCloud(
            np.log10(norms[keep]),
            np.log10(np.maximum(np.asarray(rhos, dtype=float)[keep], 1e-300)),
            list(compress(tags, keep)))

    def to_rows(self):
        t = self.meta.get("t_values", [None] * len(self))
        return [(t[i], float(self.log_norm[i]), float(self.log_rho[i]), self.tags[i])
                for i in range(len(self))]


def _envelope_points(x, y, take_max: bool):
    """The arrays (x, y) of the largest (or least) y in each decade of x.

    The decades run from floor(min x) up to ceil(max x), so a largest x that
    is a whole number lies in none.  One stable lexsort on (decade, -y or y)
    puts each decade's extremum first, the first in index order on a tie, as
    argmax and argmin take it."""
    idx = np.flatnonzero(x < math.ceil(x.max()))
    decade = np.floor(x[idx])
    order = np.lexsort((-y[idx] if take_max else y[idx], decade))
    first = idx[order[np.diff(decade[order], prepend=np.nan) != 0]]
    return x[first], y[first]


def fit_exponents(cloud: SampleCloud):
    """Envelope slopes of log|rho| against log|h|.

    Upper slope from least squares through the per-decade maxima, lower from
    the minima.  The first quarter of the decade range is dropped before
    fitting (samples near the identity have not reached their asymptotics and
    would tilt the envelopes), keeping at least 2.5 decades.  Returns
    (s_lo, s_hi, confidence) where confidence is the worst envelope residual.
    Raises InsufficientRange if the cloud has fewer than MIN_SAMPLES points
    or spans fewer than MIN_DECADES decades.
    """
    if len(cloud) < MIN_SAMPLES:
        raise InsufficientRange(f"only {len(cloud)} samples")
    x, y = cloud.log_norm, cloud.log_rho
    span = x.max() - x.min()
    if span < MIN_DECADES:
        raise InsufficientRange(
            f"norms span {span:.2f} decades < {MIN_DECADES}")
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

    def fit(px, py):
        slope, icept = np.polyfit(px, py, 1)
        resid = float(np.abs(py - (slope * px + icept)).max())
        return float(slope), resid

    s_hi, r_hi = fit(*_envelope_points(x, y, True))
    s_lo, r_lo = fit(*_envelope_points(x, y, False))
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


def shape_check(cloud: SampleCloud, shape: MuShape) -> ShapeReport:
    """Compare a fitted cloud with a predicted MuShape at finite scale.

    Envelope slopes must match the shape's exponents within ENVELOPE_TOL; for
    log-corrected envelopes the expected log drift is subtracted before the
    slope comparison, and the recovered log power must match within
    LOG_POWER_TOL.
    """
    if shape.symbolic:
        raise SymbolicShape("shape has a symbolic exponent; unverifiable here")
    if shape.kind == "ray":
        k = fit_ray_power(cloud)
        ok = abs(k - float(shape.k)) <= LOG_POWER_TOL
        return ShapeReport(ok, (k,), shape, {"fitted_k": k})

    details = {}
    x, y = cloud.log_norm, cloud.log_rho
    ln10 = math.log(10.0)

    def corrected(logpow):
        if logpow == 0:
            return cloud
        yy = y - (float(logpow) * np.log(np.maximum(x * ln10, 1e-9)) / ln10)
        return SampleCloud(x, yy, cloud.tags)

    if shape.log_lo == shape.log_hi:  # one corrected cloud, one fit
        s_lo_f, s_hi_f, _ = fit_exponents(corrected(shape.log_lo))
    else:
        s_lo_f, _, _ = fit_exponents(corrected(shape.log_lo))
        _, s_hi_f, _ = fit_exponents(corrected(shape.log_hi))
    details["s_lo_fitted"] = s_lo_f
    details["s_hi_fitted"] = s_hi_f
    ok = (abs(s_lo_f - float(shape.s_lo)) <= ENVELOPE_TOL
          and abs(s_hi_f - float(shape.s_hi)) <= ENVELOPE_TOL)
    if ok and shape.log_lo != 0:
        p = fit_log_power(_envelope_cloud(cloud, False), float(shape.s_lo))
        details["log_lo_fitted"] = p
        ok = abs(p - float(shape.log_lo)) <= LOG_POWER_TOL
    if ok and shape.log_hi != 0:
        p = fit_log_power(_envelope_cloud(cloud, True), float(shape.s_hi))
        details["log_hi_fitted"] = p
        ok = abs(p - float(shape.log_hi)) <= LOG_POWER_TOL
    return ShapeReport(ok, (s_lo_f, s_hi_f), shape, details)


def _envelope_cloud(cloud, take_max: bool):
    """The per-decade maxima (or minima) of a cloud, tagged "max" (or "min")."""
    px, py = _envelope_points(cloud.log_norm, cloud.log_rho, take_max)
    return SampleCloud(px, py, ["max" if take_max else "min"] * len(px))


def fit_ray_power(cloud: SampleCloud) -> float:
    """Slope of log(perpendicular drift) against log(ray coordinate).

    The cloud must carry mu points in meta["mu_points"] as (a1, a2) pairs
    and its line's a-part (t1, t2) in meta["ray_direction"]; a missing one
    raises InsufficientRange.  The ray R is the chamber image (|t1|, |t2|)
    in descending order, where the mu points lie; the drift of the
    log-coordinates perpendicular to R grows like (ray coordinate)^0 with
    |s| = (log|r|)^k, i.e. perp = k * log(ray) + const.
    """
    pts, ray = cloud.meta.get("mu_points"), cloud.meta.get("ray_direction")
    if pts is None:
        raise InsufficientRange("ray fitting needs mu points in the cloud meta")
    if ray is None:
        raise InsufficientRange('ray fitting needs meta["ray_direction"], the '
                                "a-part of the line")
    lam = np.log(np.array(pts, dtype=float))  # rows (log a1, log a2)
    norms = np.linalg.norm(lam, axis=1)
    keep0 = norms > 1e-9
    if keep0.sum() < 8:
        raise InsufficientRange("too few usable ray samples")
    lam = lam[keep0]
    w = np.array(ray, dtype=float)
    w = np.sort(np.abs(w))[::-1] / np.linalg.norm(w)
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
