import math
import random

import numpy as np
import pytest

from su2n import (
    AlgebraElement,
    CartanPoint,
    GroupElement,
    InsufficientRange,
    MuShape,
    SampleCloud,
    SymbolicShape,
    exp_float,
    fit_exponents,
    mu,
    rho_norm,
    rho_norm_oracle,
    sample_compact_pair,
    shape_check,
    sup_norm,
)
from su2n.metrics import NonFinite, basis_change, fit_log_power
from su2n.elements import gram_matrix


def test_sup_norm():
    assert sup_norm(np.eye(5, dtype=complex)) == 1.0
    a = CartanPoint(4.0, 2.0).matrix(3)
    assert sup_norm(a) == 4.0
    g = exp_float(np.array(AlgebraElement(3, xx=7).coords(), dtype=float))
    assert sup_norm(g) == pytest.approx(7.0)


def test_rho_norm_chamber_and_oracle():
    a = CartanPoint(4.0, 2.0).matrix(4)
    assert rho_norm(a) == 8.0
    assert rho_norm(np.eye(6, dtype=complex)) == 1.0
    rng = np.random.default_rng(1)
    for _ in range(25):
        n = int(rng.integers(3, 6))
        cols = AlgebraElement.slot_columns(n)
        c = np.zeros(AlgebraElement.coord_dim(n))
        c[cols["phi"]] = rng.normal(size=2)
        c[cols["x"]][0::2] = rng.normal(size=n - 2)  # real x
        c[cols["y"]][1::2] = rng.normal(size=n - 2)  # imaginary y
        c[cols["eta"]] = rng.normal(size=2)
        c[cols["xx"]], c[cols["yy"]] = rng.normal(size=2)
        g = exp_float(c)
        assert rho_norm(g) == pytest.approx(rho_norm_oracle(g), rel=1e-9)


def test_basis_change_diagonalizes_form():
    for n in (3, 5):
        S = basis_change(n)
        J = np.array(gram_matrix(n), dtype=complex)
        D = S.T @ J @ S
        want = np.ones(n + 2)
        want[-2:] = -1
        assert np.allclose(D, np.diag(want), atol=1e-12)


def test_chamber_matrix_is_the_exact_diagonal_in_floats():
    # the exact chamber point converted entrywise gives the same bits
    rng = np.random.default_rng(5)
    cases = [(3, 4.0, 2.0), (4, 3.0, 3.0), (5, 1e8, 1.0)]
    for _ in range(50):
        a1 = math.exp(rng.uniform(0, 6 * math.log(10)))
        cases.append((int(rng.integers(3, 7)), a1, math.exp(rng.uniform(0, math.log(a1)))))
    for n, a1, a2 in cases:
        want = np.array(GroupElement.diagonal(n, a1, a2).mat, dtype=complex)
        assert CartanPoint(a1, a2).matrix(n).tobytes() == want.tobytes()


def test_mu_fixes_chamber_points():
    a = CartanPoint(4.0, 2.0).matrix(3)
    pt = mu(a)
    assert pt.as_tuple() == pytest.approx((4.0, 2.0))
    assert mu(np.eye(5, dtype=complex)).as_tuple() == pytest.approx((1.0, 1.0))


def test_mu_bi_invariance_and_inversion():
    rng = np.random.default_rng(2)
    a = CartanPoint(50.0, 7.0).matrix(4)
    for _ in range(10):
        k1 = sample_compact_pair(4, rng)
        k2 = sample_compact_pair(4, rng)
        g = k1 @ a @ k2
        assert mu(g).as_tuple() == pytest.approx((50.0, 7.0), rel=1e-8)
        assert mu(np.linalg.inv(g)).as_tuple() == pytest.approx((50.0, 7.0), rel=1e-8)


def test_mu_rejects_non_finite():
    bad = np.full((5, 5), np.nan)
    with pytest.raises(NonFinite):
        mu(bad)


def test_compact_samples_preserve_form():
    rng = np.random.default_rng(3)
    J = np.array(gram_matrix(4), dtype=complex)
    for _ in range(5):
        k = sample_compact_pair(4, rng)
        assert np.allclose(k.conj().T @ J @ k, J, atol=1e-10)


def _chamber_ray_cloud(slope_a2, npts=200):
    pts = []
    for lam in np.linspace(0.1, 8, npts):
        a1 = 10.0 ** lam
        a2 = a1 ** slope_a2
        a = CartanPoint(a1, a2).matrix(3)
        pts.append((sup_norm(a), rho_norm(a), "ray"))
    return SampleCloud.collect(pts)


def test_fit_exponents_on_chamber_rays():
    s_lo, s_hi, conf = fit_exponents(_chamber_ray_cloud(0.0))
    assert abs(s_lo - 1) < 0.05 and abs(s_hi - 1) < 0.05
    s_lo, s_hi, conf = fit_exponents(_chamber_ray_cloud(1.0))
    assert abs(s_lo - 2) < 0.05 and abs(s_hi - 2) < 0.05


def test_fit_exponents_band():
    rng = np.random.default_rng(4)
    pts = []
    for _ in range(800):
        lam = rng.uniform(0.2, 8)
        a1 = 10.0 ** lam
        a2 = a1 ** rng.uniform(0, 1)
        a = CartanPoint(a1, a2).matrix(3)
        pts.append((sup_norm(a), rho_norm(a), "grid"))
    cloud = SampleCloud.collect(pts)
    s_lo, s_hi, _ = fit_exponents(cloud)
    assert abs(s_lo - 1) < 0.08 and abs(s_hi - 2) < 0.08
    rep = shape_check(cloud, MuShape.full_chamber())
    assert rep.verdict
    rep = shape_check(cloud, MuShape.curve(2))
    assert not rep.verdict


def test_insufficient_range():
    pts = [(10.0 ** 0.5, 3.0, "x")] * 40
    cloud = SampleCloud.collect(pts)
    with pytest.raises(InsufficientRange):
        fit_exponents(cloud)
    with pytest.raises(InsufficientRange):
        fit_exponents(SampleCloud.collect([(100.0, 10.0, "x")] * 8))


def test_shape_check_rejects_symbolic():
    cloud = _chamber_ray_cloud(0.0)
    with pytest.raises(SymbolicShape):
        shape_check(cloud, MuShape.band(1, None))


def test_fit_log_power_recovers_powers():
    for p in (-1.0, 0.5, 1.0):
        pts = []
        for lam in np.linspace(0.8, 8, 120):
            nrm = 10.0 ** lam
            rho = nrm ** 1.5 * math.log(nrm) ** p
            pts.append((nrm, rho, "c"))
        cloud = SampleCloud.collect(pts)
        assert fit_log_power(cloud, 1.5) == pytest.approx(p, abs=0.1)


def test_z_cloud_shapes(alg):
    # a doubled-beta line grows linearly; checking the wrong curve fails
    pts = []
    for t in np.geomspace(2, 1e7, 80):
        g = exp_float(np.array(alg(3, yy=1).coords(), dtype=float), t)
        pts.append((sup_norm(g), rho_norm(g), "z"))
    cloud = SampleCloud.collect(pts)
    assert shape_check(cloud, MuShape.curve(1)).verdict
    assert not shape_check(cloud, MuShape.curve(2)).verdict
