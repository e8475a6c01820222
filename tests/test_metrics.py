import math
import tracemalloc

import numpy as np
import pytest

from su2n import gallery, lab, metrics
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
from su2n.config import ENVELOPE_TOL, LOG_POWER_TOL
from su2n.metrics import (BLOCK_POINTS, NonFinite, _envelope_points, _minor_index,
                          basis_change, fit_log_power)
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


def _rho_full_sweep(g):
    """The reference: max |minor| over all P x P 2x2 minors, P = m(m-1)/2."""
    a = np.asarray(g, dtype=complex)
    m = a.shape[-1]
    I, J = np.triu_indices(m, 1)
    rows_i, rows_j = a[..., I, :], a[..., J, :]
    minors = rows_i[..., I] * rows_j[..., J] - rows_i[..., J] * rows_j[..., I]
    values = np.abs(minors).max(axis=(-2, -1))
    return float(values) if values.ndim == 0 else values


def _upper_stack(rng, count, m, scale):
    """Upper-triangular complex matrices with entries up to scale in size."""
    size = (count, m, m)
    a = (rng.normal(size=size) + 1j * rng.normal(size=size)) * 10.0 ** rng.uniform(
        0, math.log10(scale), size)
    return np.triu(a)


def _assert_rho_is_the_full_sweep(g):
    with np.errstate(all="ignore"):  # inf and NaN inputs are the point
        got, want = rho_norm(g), _rho_full_sweep(g)
    assert type(got) is type(want)
    assert np.shape(got) == np.shape(want)
    assert np.array_equal(got, want, equal_nan=True)


def test_rho_norm_passes_shrink_above_m6_and_equal_one_pass_bit_for_bit(monkeypatch):
    """Passes hold BLOCK_POINTS matrices up to m = 6 (105 upper minors) and
    fewer above, in proportion; at m = 10 (825 upper minors, passes of 24)
    the result is the one-pass sweep's, byte for byte, also with one matrix
    off the triangle, whose pass takes the rest minors."""
    assert [metrics._pass_points(m) for m in range(2, 7)] == [BLOCK_POINTS] * 5
    assert _minor_index(6)[0].shape[1] == 105 and _minor_index(10)[0].shape[1] == 825
    assert metrics._pass_points(10) == BLOCK_POINTS * 105 // 825 == 24
    rng = np.random.default_rng(31)
    up = _upper_stack(rng, 300, 10, 1e8)
    off = up.copy()
    off[100, 9, 0] = 0.25
    got = [rho_norm(g) for g in (up, off)]
    monkeypatch.setattr(metrics, "_pass_points", lambda m: len(up))
    want = [rho_norm(g) for g in (up, off)]
    assert [g.tobytes() for g in got] == [w.tobytes() for w in want]


def test_scratch_stays_below_2_mb_after_a_verify_shape_at_n8(monkeypatch):
    """One verify_shape of corpus random-100 at n = 8 (m = 10) leaves under
    2 MB in the shared scratch buffers (7.56 MB with passes of BLOCK_POINTS)."""
    from su2n import corpus
    scratch = metrics._Scratch()
    monkeypatch.setattr(metrics, "_SCRATCH", scratch)
    monkeypatch.setattr(lab, "_SCRATCH", scratch)
    specs = dict(corpus.random_corpus(count=200, ns=(8,), seed=1, include_gallery=False))
    lab.verify_shape(specs["random-100"])
    assert "b" in scratch.flat
    assert sum(buf.nbytes for buf in scratch.flat.values()) < 2_000_000


def test_rho_norm_is_the_full_sweep_bit_for_bit():
    rng = np.random.default_rng(25)
    for m in range(5, 11):
        for scale in (1.0, 1e4, 1e8):
            up = _upper_stack(rng, 40, m, scale)
            _assert_rho_is_the_full_sweep(up)
            # -0.0 below the diagonal counts as zero
            neg = up.copy()
            neg[:, np.tril_indices(m, -1)[0], np.tril_indices(m, -1)[1]] = -0.0 - 0.0j
            _assert_rho_is_the_full_sweep(neg)
            # a single matrix gives a Python float
            _assert_rho_is_the_full_sweep(up[0])
            assert isinstance(rho_norm(up[0]), float)
        # K-conjugates are not triangular
        n = m - 2
        ks = np.array([sample_compact_pair(n, rng) @ up[j] @ sample_compact_pair(n, rng)
                       for j in range(20)])
        _assert_rho_is_the_full_sweep(ks)
        # one strictly-lower entry
        one = _upper_stack(rng, 8, m, 1e3)
        one[:, m - 1, 0] = 1e-300
        _assert_rho_is_the_full_sweep(one)
        # inf and NaN entries, above and below the diagonal
        bad = _upper_stack(rng, 16, m, 1e3)
        bad[0, 0, 0] = np.inf
        bad[1, 0, m - 1] = np.nan
        bad[2, m - 1, m - 1] = complex(0.0, -np.inf)
        bad[3, 1, 0] = np.nan
        bad[4, m - 1, 0] = np.inf
        bad[5, 2, 3] = complex(np.inf, np.nan)
        _assert_rho_is_the_full_sweep(bad)
        for k in range(6):
            _assert_rho_is_the_full_sweep(bad[k])
        # products that overflow to inf and inf - inf = NaN, finite entries
        _assert_rho_is_the_full_sweep(_upper_stack(rng, 8, m, 1e8) * 1e160)
        # a stack of stacks keeps its leading shape; an empty stack is (0,)
        deep = _upper_stack(rng, 3 * 7, m, 1e8).reshape(3, 7, m, m)
        assert rho_norm(deep).shape == (3, 7)
        _assert_rho_is_the_full_sweep(deep)
        empty = rho_norm(np.zeros((0, m, m), dtype=complex))
        assert empty.shape == (0,)
        _assert_rho_is_the_full_sweep(np.zeros((0, m, m), dtype=complex))
    # 2 x 2 matrices have one minor, and no rest minor
    _assert_rho_is_the_full_sweep(rng.normal(size=(4, 2, 2)) + 1j * rng.normal(size=(4, 2, 2)))
    _assert_rho_is_the_full_sweep(_upper_stack(rng, 4, 2, 1e8))
    # rho_norm takes a stack BLOCK_POINTS matrices at a time: stacks that
    # end just before, at and just after a pass boundary, and passes that
    # differ in whether the rest minors are taken
    assert BLOCK_POINTS == 192
    rng = np.random.default_rng(29)
    for m in (2, 5, 6, 8):
        for count in (0, 1, 191, 192, 193, 1000):
            _assert_rho_is_the_full_sweep(_upper_stack(rng, count, m, 1e6))
        up = _upper_stack(rng, 500, m, 1e6)
        # a strictly-lower entry, a NaN or an inf in one pass only
        for k, i, j, v in ((300, m - 1, 0, 0.5), (450, 0, m - 1, np.nan),
                           (10, 0, 0, np.inf), (191, 1, 0, -1e-300j), (192, m - 1, 1, np.nan)):
            one = up.copy()
            one[k, i, j] = v
            _assert_rho_is_the_full_sweep(one)
        # a stack of stacks across a pass boundary
        deep = _upper_stack(rng, 3 * 70, m, 1e8).reshape(3, 70, m, m)
        assert rho_norm(deep).shape == (3, 70)
        _assert_rho_is_the_full_sweep(deep)
        _assert_rho_is_the_full_sweep(deep[:, :7])
    # K-conjugates over two passes
    ks = np.array([sample_compact_pair(4, rng) @ g @ sample_compact_pair(4, rng)
                   for g in _upper_stack(rng, 193, 6, 1e4)])
    _assert_rho_is_the_full_sweep(ks)
    _assert_rho_is_the_full_sweep(np.concatenate([_upper_stack(rng, 200, 6, 1e4), ks]))


def test_rho_norm_allocates_only_its_result():
    # after a first call has made the scratch arrays, a call on an
    # upper-triangular (192, 6, 6) stack allocates its (192,) result and
    # little else (the full per-call temporaries took about 1.1 MB)
    up = _upper_stack(np.random.default_rng(3), 192, 6, 1e6)
    first = rho_norm(up)
    kept = first.copy()
    tracemalloc.start()
    try:
        again = rho_norm(up)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 128 * 1024
    # each result is its own array
    rho_norm(_upper_stack(np.random.default_rng(4), 192, 6, 1e6))
    assert np.array_equal(first, kept) and np.array_equal(again, kept)
    assert not np.shares_memory(first, again)


@pytest.mark.parametrize("m", range(2, 11))
def test_minor_tables_cover_every_minor_once(m):
    upper, rest, low = _minor_index(m)
    P = m * (m - 1) // 2
    assert upper.shape[0] == rest.shape[0] == 4
    # the minor (i < j, k < l) as its entry quadruple (ik, jl, il, jk)
    cols = [tuple(c) for t in (upper, rest) for c in t.T]
    assert len(cols) == len(set(cols)) == P * P  # disjoint, and cover all P^2
    pairs = [(i, j) for i in range(m) for j in range(i + 1, m)]
    want = {(i * m + k, j * m + l, i * m + l, j * m + k)
            for i, j in pairs for k, l in pairs}
    assert set(cols) == want
    assert sorted(low) == [i * m + j for i in range(m) for j in range(i)]
    # every rest minor is exactly zero on finite upper-triangular matrices
    rng = np.random.default_rng(m)
    rows = _upper_stack(rng, 64, m, 1e8).reshape(-1, m * m).T
    ik, jl, il, jk = rest
    assert np.all(rows[ik] * rows[jl] - rows[il] * rows[jk] == 0)


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


def _per_matrix_mu(stack):
    """mu of each matrix alone, as a (k, 2) array."""
    return np.array([mu(g).as_tuple() for g in stack], dtype=float)


def _oneparam_mu_stacks(monkeypatch, plan=None):
    """(cloud, stacks): the cloud of oneparam-alpha-n3 and each stack lab
    hands mu while sampling it."""
    stacks = []

    def mu_spy(g):
        stacks.append(np.array(g))
        return mu(g)

    monkeypatch.setattr(lab, "mu", mu_spy)
    cloud = lab.sample_subgroup(gallery.get("oneparam-alpha-n3").spec(), plan)
    return cloud, stacks


@pytest.mark.parametrize("n", range(3, 7))
def test_mu_of_a_stack_is_mu_of_each_matrix_bit_for_bit(n):
    rng = np.random.default_rng(n)
    points = []
    for _ in range(12):
        a1 = math.exp(rng.uniform(0, 6 * math.log(10)))
        points.append(CartanPoint(a1, math.exp(rng.uniform(0, math.log(a1)))).matrix(n))
    points.append(np.eye(n + 2, dtype=complex))
    conjugates = [sample_compact_pair(n, rng) @ a @ sample_compact_pair(n, rng)
                  for a in points]
    for stack in (np.array(points), np.array(conjugates)):
        got = mu(stack)
        assert got.shape == (len(stack), 2)
        assert got.tobytes() == _per_matrix_mu(stack).tobytes()
    both = np.array([points, conjugates])  # any batch shape
    assert mu(both).tobytes() == _per_matrix_mu(both.reshape(-1, n + 2, n + 2)).tobytes()
    assert mu(both).shape == (2, len(points), 2)
    assert mu(np.empty((0, n + 2, n + 2), complex)).shape == (0, 2)


def test_mu_of_a_matrix_is_a_cartan_point():
    a = CartanPoint(4.0, 2.0).matrix(5)
    pt = mu(a)
    assert isinstance(pt, CartanPoint)
    assert pt.as_tuple() == tuple(mu(a[None])[0].tolist())


def test_one_mu_call_per_block_gives_the_per_sample_mu_points(monkeypatch):
    # 150 parameters a curve: one curve per block, so the two line curves
    # take two blocks
    plan = lab.SamplingPlan(per_curve=150)
    cloud, stacks = _oneparam_mu_stacks(monkeypatch, plan)
    assert len(stacks) == len(lab._blocks(2, plan.per_curve)) == 2
    kept = np.concatenate(stacks)
    assert np.log10(sup_norm(kept)).tobytes() == cloud.log_norm.tobytes()
    assert cloud.meta["mu_points"] == [mu(g).as_tuple() for g in kept]
    cloud, stacks = _oneparam_mu_stacks(monkeypatch)
    assert len(stacks) == len(lab._blocks(2, 48)) == 1


@pytest.mark.parametrize("which, why", [("nan", "non-finite"),
                                        ("unpaired", "do not pair reciprocally")])
def test_mu_names_the_first_failing_matrix_of_a_stack(which, why):
    rng = np.random.default_rng(5)
    stack = np.array([sample_compact_pair(3, rng) @ CartanPoint(9.0, 3.0).matrix(3)
                      for _ in range(6)])
    bad = np.full((5, 5), np.nan) if which == "nan" else np.diag([2.0, 1, 1, 1, 1])
    stack[3] = stack[5] = bad
    with pytest.raises(NonFinite, match=rf"^matrix 3: .*{why}"):
        mu(stack)
    with pytest.raises(NonFinite, match=r"^matrix \(1, 0\): "):
        mu(stack.reshape(2, 3, 5, 5))
    with pytest.raises(NonFinite, match=why) as alone:
        mu(bad)
    assert not str(alone.value).startswith("matrix")
    assert mu(stack[:3]).shape == (3, 2)


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
    return SampleCloud.collect(*zip(*pts))


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
    cloud = SampleCloud.collect(*zip(*pts))
    s_lo, s_hi, _ = fit_exponents(cloud)
    assert abs(s_lo - 1) < 0.08 and abs(s_hi - 2) < 0.08
    rep = shape_check(cloud, MuShape.full_chamber())
    assert rep.verdict
    rep = shape_check(cloud, MuShape.curve(2))
    assert not rep.verdict


def test_collect_equals_the_per_sample_loop():
    # the array form against the loop it replaced: |h| <= 1 dropped, rho
    # floored at 1e-300, math.log10 per sample; np.log10 may differ in the
    # last place only
    rng = np.random.default_rng(0)
    norms = np.concatenate([[0.5, 1.0, np.nextafter(1.0, 2.0), 1e8, 1e300],
                            10.0 ** rng.uniform(-2, 12, 200)])
    rhos = np.concatenate([[3.0, 2.0, 0.0, 1e-320, 1e16],
                           10.0 ** rng.uniform(-310, 20, 200)])
    tags = [f"c{k % 7}" for k in range(len(norms))]
    want = [(math.log10(nrm), math.log10(max(rho, 1e-300)), tag)
            for nrm, rho, tag in zip(norms.tolist(), rhos.tolist(), tags)
            if nrm > 1.0]
    cloud = SampleCloud.collect(norms, rhos, tags)
    assert cloud.tags == [w[2] for w in want]
    for got, col in ((cloud.log_norm, 0), (cloud.log_rho, 1)):
        ref = np.array([w[col] for w in want])
        assert np.all(np.abs(got - ref) <= 2 * np.spacing(np.abs(ref)))
    assert cloud.log_rho.min() == -300.0


def test_insufficient_range():
    pts = [(10.0 ** 0.5, 3.0, "x")] * 40
    cloud = SampleCloud.collect(*zip(*pts))
    with pytest.raises(InsufficientRange):
        fit_exponents(cloud)
    with pytest.raises(InsufficientRange):
        fit_exponents(SampleCloud.collect([100.0] * 8, [10.0] * 8, ["x"] * 8))


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
        cloud = SampleCloud.collect(*zip(*pts))
        assert fit_log_power(cloud, 1.5) == pytest.approx(p, abs=0.1)


def test_z_cloud_shapes(alg):
    # a doubled-beta line grows linearly; checking the wrong curve fails
    pts = []
    for t in np.geomspace(2, 1e7, 80):
        g = exp_float(np.array(alg(3, yy=1).coords(), dtype=float), t)
        pts.append((sup_norm(g), rho_norm(g), "z"))
    cloud = SampleCloud.collect(*zip(*pts))
    assert shape_check(cloud, MuShape.curve(1)).verdict
    assert not shape_check(cloud, MuShape.curve(2)).verdict


def _envelope_points_loop(x, y, take_max):
    """The reference: one mask per decade from floor(min x) up to
    ceil(max x), and argmax (or argmin) in each."""
    lo, hi = math.floor(x.min()), math.ceil(x.max())
    ks = []
    for b in range(lo, hi):
        mask = (x >= b) & (x < b + 1)
        if not mask.any():
            continue
        sub = np.where(mask)[0]
        ks.append(sub[np.argmax(y[sub])] if take_max else sub[np.argmin(y[sub])])
    return x[ks], y[ks]


def _envelope_clouds():
    rng = np.random.default_rng(17)
    x = rng.uniform(-3.5, 9.0, 600)
    yield x, 1.5 * x + rng.normal(size=600)
    # ties: y on a coarse grid, repeated x
    x = np.round(rng.uniform(0.0, 6.0, 400), 1)
    yield x, np.round(rng.uniform(0.0, 3.0, 400))
    # empty decades, negative decades, a whole-number largest x (in no decade)
    x = np.concatenate([rng.uniform(-4.0, -2.0, 50), rng.uniform(1.0, 2.0, 50),
                        rng.uniform(5.0, 7.0, 50), [7.0, -4.0, 3.0]])
    yield rng.permutation(x), rng.normal(size=len(x))
    # one decade, every y equal
    yield np.array([0.5, 0.2, 0.7, 0.2]), np.ones(4)
    # a single point; only whole-number points, in no decade
    yield np.array([2.5]), np.array([-1.0])
    yield np.array([2.0, 2.0]), np.array([1.0, 0.0])


def test_envelope_points_equal_the_per_decade_loop():
    for x, y in _envelope_clouds():
        for take_max in (True, False):
            got, want = _envelope_points(x, y, take_max), _envelope_points_loop(x, y, take_max)
            assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])
    # on a tie the first point in index order wins
    x = np.array([0.5, 0.2, 0.7, 1.5, 1.6])
    y = np.array([1.0, 1.0, 1.0, 0.0, 0.0])
    for take_max in (True, False):
        assert _envelope_points(x, y, take_max)[0].tolist() == [0.5, 1.5]
    # a largest x that is a whole number lies in no decade
    assert _envelope_points(np.array([0.5, 2.0]), np.array([0.0, 1.0]), True)[0].tolist() == [0.5]


def test_shape_check_fits_once_per_log_correction(monkeypatch):
    # both envelopes of one corrected cloud come from one fit
    calls = []
    real = metrics.fit_exponents

    def spy(cloud):
        calls.append(cloud)
        return real(cloud)
    monkeypatch.setattr(metrics, "fit_exponents", spy)
    cloud = _chamber_ray_cloud(0.5, 400)
    for shape, fits in ((MuShape.full_chamber(), 1), (MuShape.band(1, 2), 1),
                        (MuShape.curve(2, logpow=1), 1), (MuShape.band(1, 2, 1, 1), 1),
                        (MuShape.band(1, 2, log_lo=1), 2), (MuShape.band(1, 2, log_hi=-1), 2),
                        (MuShape.band(1, 2, 1, 2), 2)):
        calls.clear()
        shape_check(cloud, shape)
        assert len(calls) == fits, shape
        if fits == 2:
            assert calls[0] is not calls[1]


def _two_fit_shape_check(cloud, shape):
    """shape_check's envelope leg as it was: one fit_exponents call per side,
    each on its own log-corrected cloud.  Returns (verdict, fitted, details)."""
    x, y = cloud.log_norm, cloud.log_rho
    ln10 = math.log(10.0)

    def corrected(logpow):
        if logpow == 0:
            return cloud
        return SampleCloud(x, y - (float(logpow) * np.log(np.maximum(x * ln10, 1e-9)) / ln10),
                           cloud.tags)

    s_lo, _, _ = metrics.fit_exponents(corrected(shape.log_lo))
    _, s_hi, _ = metrics.fit_exponents(corrected(shape.log_hi))
    details = {"s_lo_fitted": s_lo, "s_hi_fitted": s_hi}
    ok = (abs(s_lo - float(shape.s_lo)) <= ENVELOPE_TOL
          and abs(s_hi - float(shape.s_hi)) <= ENVELOPE_TOL)
    if ok and shape.log_lo != 0:
        p = fit_log_power(metrics._envelope_cloud(cloud, False), float(shape.s_lo))
        details["log_lo_fitted"] = p
        ok = abs(p - float(shape.log_lo)) <= LOG_POWER_TOL
    if ok and shape.log_hi != 0:
        p = fit_log_power(metrics._envelope_cloud(cloud, True), float(shape.s_hi))
        details["log_hi_fitted"] = p
        ok = abs(p - float(shape.log_hi)) <= LOG_POWER_TOL
    return ok, (s_lo, s_hi), details


def _outcome(check, *args):
    try:
        return check(*args)
    except (InsufficientRange, np.linalg.LinAlgError) as e:
        return type(e).__name__


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_shape_check_equals_the_two_fit_reference_on_the_gallery(seed, monkeypatch):
    # on the designed-only cloud and on the whole cloud of every gallery entry
    # with a numeric band shape, the fitted values, details and verdict of
    # shape_check equal the two-fit reference on the per-decade loop
    from su2n.anclassify import classify_an
    from su2n.nilclassify import classify
    checked = 0
    for e in gallery.entries():
        spec = e.spec()
        result = classify(spec, seed=seed) if e.kind == "nil" else classify_an(spec, seed=seed)
        shape = result.shape
        if shape.symbolic or shape.kind == "ray":
            continue
        plan = lab.SamplingPlan(seed=seed)
        nil_result = result if e.kind == "nil" else None
        for designed_only in (True, False):
            sub = lab.sample_subgroup(spec, plan, result=nil_result, designed_only=designed_only)
            report = _outcome(shape_check, sub, shape)
            got = report if isinstance(report, str) else (
                report.verdict, report.fitted, report.details)
            with monkeypatch.context() as mp:
                mp.setattr(metrics, "_envelope_points", _envelope_points_loop)
                want = _outcome(_two_fit_shape_check, sub, shape)
            assert got == want, (e.id, seed)
            checked += 1
    assert checked >= 60
