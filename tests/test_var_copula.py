"""Study building blocks vs independent oracles (scipy and brute force)."""

import math
import random
import types
from collections.abc import Mapping
from fractions import Fraction
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
import scipy.special
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import float_bits, huber_mean_cell, mad_cell, report_matrices
from light_studies import masked

from mcgrid import (RngStream, Sequential, VarList, VarSpec, derive_state, load,
                    run_study, save)
from mcgrid import var_copula as vc
from mcgrid.results import ErrorInfo
from mcgrid.var_copula import (example_varlist, huber_mean, itau, mad, portfolio_loss,
                               quantile_type7, sample_copula,
                               std_normal_quantile, _positive_stable)

DATA = Path(__file__).parent / "data"


class TestItau:
    # closed forms: Clayton theta = 2 tau / (1 - tau); Gumbel theta = 1 / (1 - tau)
    def test_clayton_values(self):
        assert itau("Clayton", 0.25) == pytest.approx(2 / 3, rel=1e-15)
        assert itau("Clayton", 0.5) == pytest.approx(2.0, rel=1e-15)

    def test_gumbel_values(self):
        assert itau("Gumbel", 0.25) == pytest.approx(4 / 3, rel=1e-15)
        assert itau("Gumbel", 0.5) == pytest.approx(2.0, rel=1e-15)

    def test_unknown_family_rejected(self):
        with pytest.raises(ValueError):
            itau("Frank", 0.5)

    def test_tau_range_checked(self):
        with pytest.raises(ValueError):
            itau("Clayton", 1.0)
        with pytest.raises(ValueError):
            itau("Gumbel", -0.1)


class TestNormalQuantile:
    def test_against_scipy_ndtri(self):
        p = np.concatenate([
            np.linspace(1e-12, 1 - 1e-12, 2001),
            [1e-300, 1e-30, 0.5, 1 - 1e-16],
        ])
        got = std_normal_quantile(p)
        want = scipy.special.ndtri(p)
        assert np.allclose(got, want, rtol=1e-13, atol=1e-13)

    def test_erfc_roundtrip(self):
        # independent check: Phi(Phi^-1(p)) == p via the complementary error function
        p = np.linspace(1e-10, 1 - 1e-10, 999)
        x = std_normal_quantile(p)
        back = 0.5 * scipy.special.erfc(-x / math.sqrt(2))
        assert np.allclose(back, p, rtol=1e-9, atol=1e-12)

    def test_edge_cases(self):
        assert std_normal_quantile(0.0) == -math.inf
        assert std_normal_quantile(1.0) == math.inf
        assert std_normal_quantile(0.5) == 0.0
        assert math.isnan(std_normal_quantile(-0.1))
        assert math.isnan(std_normal_quantile(1.1))

    def test_symmetry(self):
        p = np.array([0.01, 0.1, 0.3])
        assert np.allclose(std_normal_quantile(p), -std_normal_quantile(1 - p),
                           rtol=1e-14)

    def test_deep_tail(self):
        assert std_normal_quantile(1e-100) == pytest.approx(
            scipy.special.ndtri(1e-100), rel=1e-13)


def quantile_oracle(sample, p):
    """Brute-force interpolation quantile in exact rational arithmetic."""
    x = sorted(sample)
    n = len(x)
    h = Fraction(p) * (n - 1) + 1  # 1-based position
    lo = math.floor(h)
    if lo >= n:
        return float(x[-1])
    gamma = h - lo
    return float((1 - gamma) * Fraction(x[lo - 1]) + gamma * Fraction(x[lo]))


class TestQuantileType7:
    def test_against_rational_oracle_1000_cases(self):
        rng = random.Random(987654)
        for _ in range(1000):
            n = rng.randint(1, 40)
            sample = [rng.uniform(-100, 100) for _ in range(n)]
            p = rng.random()
            got = quantile_type7(np.array(sample), p)
            want = quantile_oracle(sample, p)
            assert got == pytest.approx(want, rel=1e-12, abs=1e-12)

    def test_extremes_hit_min_max(self):
        x = np.array([3.0, 1.0, 2.0])
        assert quantile_type7(x, 0.0) == 1.0
        assert quantile_type7(x, 1.0) == 3.0

    def test_vector_probs(self):
        x = np.arange(1.0, 6.0)
        got = quantile_type7(x, np.array([0.25, 0.5, 0.75]))
        assert np.allclose(got, [2.0, 3.0, 4.0])

    def test_scalar_in_scalar_out(self):
        out = quantile_type7(np.array([1.0, 2.0]), 0.5)
        assert isinstance(out, float)

    def test_matches_numpy_linear_method(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=101)
        p = np.linspace(0, 1, 21)
        assert np.allclose(quantile_type7(x, p),
                           np.quantile(x, p), rtol=1e-13, atol=1e-13)


class TestRobustSummaries:
    def test_mad_definition(self):
        x = np.array([1.0, 2.0, 3.0, 4.0, 100.0])
        med = np.median(x)
        want = 1.4826 * np.median(np.abs(x - med))
        assert mad(x) == pytest.approx(want, rel=1e-15)

    def test_mad_zero_for_constant(self):
        assert mad(np.full(7, 3.3)) == 0.0

    def test_huber_equals_mean_for_tight_data(self):
        x = np.array([1.0, 1.1, 0.9, 1.05, 0.95])
        assert huber_mean(x) == pytest.approx(x.mean(), rel=1e-6)

    def test_huber_resists_outlier(self):
        x = np.array([1.0, 1.1, 0.9, 1.05, 0.95, 50.0])
        assert huber_mean(x) < 2.0
        assert x.mean() > 9.0

    def test_huber_scipy_crosscheck(self):
        rng = np.random.default_rng(17)
        x = rng.standard_t(df=3, size=500) * 2 + 10
        got = huber_mean(x)
        # scipy solves the same M-estimate with its own scale convention;
        # agreement must be loose but humanly close
        want = float(scipy.stats.huber(1.5, x)[0]) if hasattr(scipy.stats, "huber") else got
        assert got == pytest.approx(np.median(x), abs=0.3)
        assert got == pytest.approx(want, abs=0.3)

    def test_huber_zero_mad_falls_back_to_median(self):
        x = np.array([5.0, 5.0, 5.0, 9.0])
        assert huber_mean(x) == 5.0


class TestWholeArraySummaries:
    """``huber_mean`` and ``mad`` reduce every row of an array at once, and
    each row's result is the one-cell computation's, bit for bit."""

    @given(report_matrices(), st.sampled_from([0, 1, 2, 50]))
    @settings(max_examples=300, deadline=None)
    def test_rows_match_the_one_cell_code(self, x, max_iter):
        with np.errstate(invalid="ignore"):  # inf - inf in rows without a finite median
            centers, spreads = huber_mean(x, max_iter=max_iter), mad(x)
            for got, cell, one_row in (
                    (centers, [huber_mean_cell(v, max_iter=max_iter) for v in x],
                     [huber_mean(v, max_iter=max_iter) for v in x]),
                    (spreads, [mad_cell(v) for v in x], [mad(v) for v in x])):
                assert float_bits(got) == float_bits(cell) == float_bits(one_row)
                assert all(type(v) is float for v in one_row)

    def test_any_axis_of_any_shape(self):
        x = np.random.default_rng(8).standard_t(3, size=(3, 7, 4))
        cells = [x[i, :, j] for i in range(3) for j in range(4)]
        for fn, cell_fn in ((huber_mean, huber_mean_cell), (mad, mad_cell)):
            got = fn(x, axis=1)
            assert got.shape == (3, 4)
            assert float_bits(got.ravel()) == float_bits(cell_fn(v) for v in cells)

    @pytest.mark.parametrize("fn", [huber_mean, mad])
    def test_empty_sample_rejected(self, fn):
        for empty in ([], np.zeros((3, 0))):
            with pytest.raises(ValueError, match="empty sample"):
                fn(empty)


class TestPositiveStable:
    def test_laplace_transform(self):
        rng = RngStream.from_state(derive_state(101))
        for alpha in (0.33, 0.5, 0.8):
            v = _positive_stable(alpha, rng, 200_000)
            assert (v > 0).all()
            for t in (0.5, 1.0, 3.0):
                emp = float(np.exp(-t * v).mean())
                assert emp == pytest.approx(math.exp(-t ** alpha), abs=0.004)

    def test_alpha_one_rejected(self):
        rng = RngStream.from_integer(1)
        with pytest.raises(ValueError):
            _positive_stable(1.5, rng, 10)


class TestSampleCopula:
    def test_shape_and_open_interval(self):
        rng = RngStream.from_integer(11)
        for family, tau in (("Clayton", 0.25), ("Gumbel", 0.5)):
            u = sample_copula(family, itau(family, tau), 5000, 7, rng)
            assert u.shape == (5000, 7)
            assert (u > 0).all() and (u < 1).all()

    def test_kendall_tau_matches_target(self):
        rng = RngStream.from_state(derive_state(55))
        for family in ("Clayton", "Gumbel"):
            for tau in (0.25, 0.5):
                u = sample_copula(family, itau(family, tau), 30_000, 2, rng)
                emp = scipy.stats.kendalltau(u[:, 0], u[:, 1]).statistic
                assert emp == pytest.approx(tau, abs=0.015), (family, tau)

    def test_margins_uniform_ks(self):
        rng = RngStream.from_state(derive_state(56))
        u = sample_copula("Clayton", 2.0, 10_000, 3, rng)
        for j in range(3):
            stat = scipy.stats.kstest(u[:, j], "uniform").statistic
            assert stat < 1.6276 / math.sqrt(10_000)

    def test_gumbel_tau_zero_is_independence(self):
        rng = RngStream.from_state(derive_state(57))
        u = sample_copula("Gumbel", 1.0, 20_000, 2, rng)
        emp = scipy.stats.kendalltau(u[:, 0], u[:, 1]).statistic
        assert abs(emp) < 0.02

    def test_exchangeable_positive_dependence(self):
        rng = RngStream.from_state(derive_state(58))
        u = sample_copula("Clayton", 2.0, 20_000, 4, rng)
        for j in range(1, 4):
            rho = np.corrcoef(u[:, 0], u[:, j])[0, 1]
            assert rho > 0.5


class TestPortfolioLoss:
    def test_hand_computed_case(self):
        u = np.array([[0.5, 0.5]])
        # Phi^-1(0.5) = 0, exp(0) - 1 = 0 => zero loss at the median point
        assert portfolio_loss(u, [1.0, 1.0], std_normal_quantile) == pytest.approx([0.0])

    def test_loss_sign_convention(self):
        # u near 1 => large positive normal => large gain => negative loss
        u_hi = np.array([[0.999, 0.999]])
        u_lo = np.array([[0.001, 0.001]])
        hi = portfolio_loss(u_hi, [1.0, 1.0], std_normal_quantile)[0]
        lo = portfolio_loss(u_lo, [1.0, 1.0], std_normal_quantile)[0]
        assert hi < 0 < lo
        # losses are bounded by the invested weight on the gain side
        assert lo <= 2.0

    def test_weights_recycled(self):
        u = np.full((3, 4), 0.25)
        x = std_normal_quantile(0.25)
        per = -math.expm1(x)
        got = portfolio_loss(u, [1.0, 2.0], std_normal_quantile)
        assert np.allclose(got, per * (1 + 2 + 1 + 2))

    def test_oracle_crosscheck(self):
        rng = RngStream.from_integer(3)
        u = rng.uniforms(60).reshape(20, 3)
        w = [0.5, 1.5, 2.0]
        want = [-sum(wj * math.expm1(scipy.special.ndtri(uij))
                     for wj, uij in zip(w, row)) for row in u]
        got = portfolio_loss(u, w, std_normal_quantile)
        assert np.allclose(got, want, rtol=1e-12)


class TestEndToEndCell:
    def test_one_cell_reproduces_reference_scale(self):
        # Clayton, tau=0.5, d=5, n=256: reference value-at-risk near 3.9/4.4/4.6
        rng = RngStream.from_state(derive_state(909))
        theta = itau("Clayton", 0.5)
        vals = []
        for _ in range(24):
            u = sample_copula("Clayton", theta, 256, 5, rng)
            losses = portfolio_loss(u, [1.0], std_normal_quantile)
            vals.append(quantile_type7(losses, 0.99))
        center = huber_mean(np.array(vals))
        assert 3.9 < center < 4.9


# ---------------------------------------------------------------------------
# bit identity of the in-place kernels against their out-of-place forms

def ndtri_polyval(p):
    """Reference AS 241 evaluation: np.polyval over masked copies per branch."""
    arr = np.asarray(p, dtype=float)
    scalar = arr.ndim == 0
    pp = np.atleast_1d(arr).astype(float)
    out = np.full(pp.shape, np.nan)
    q = pp - 0.5
    central = np.abs(q) <= 0.425
    if np.any(central):
        r = 0.180625 - q[central] * q[central]
        out[central] = (q[central] * np.polyval(vc._A, r)
                        / np.polyval(vc._B, r))
    tail = (~central) & (pp > 0.0) & (pp < 1.0)
    if np.any(tail):
        qt = q[tail]
        r = np.where(qt < 0.0, pp[tail], 1.0 - pp[tail])
        r = np.sqrt(-np.log(r))
        near = r <= 5.0
        val = np.empty_like(r)
        if np.any(near):
            rn = r[near] - 1.6
            val[near] = np.polyval(vc._C, rn) / np.polyval(vc._D, rn)
        if np.any(~near):
            rf = r[~near] - 5.0
            val[~near] = np.polyval(vc._E, rf) / np.polyval(vc._F, rf)
        out[tail] = np.where(qt < 0.0, -val, val)
    out[pp == 0.0] = -np.inf
    out[pp == 1.0] = np.inf
    return float(out[0]) if scalar else out.reshape(arr.shape)


def _around(x, k=3):
    """x and its k nearest floats on either side."""
    lo = hi = x
    out = [x]
    for _ in range(k):
        lo, hi = np.nextafter(lo, -np.inf), np.nextafter(hi, np.inf)
        out += [lo, hi]
    return out


class OutOfPlaceStream:
    """The same draws as an RngStream, computed with fresh temporaries."""

    def __init__(self, rng: RngStream):
        self._rng = rng

    def uniforms(self, size):
        n = int(np.prod(size)) if not np.isscalar(size) else int(size)
        raw = self._rng._bg.random_raw(n)
        return (((raw >> np.uint64(11)).astype(np.float64) + 0.5) * 2.0 ** -53).reshape(size)

    def exponentials(self, size):
        return -np.log1p(-self.uniforms(size))

    def standard_gamma(self, shape, size):
        return self._rng.standard_gamma(shape, size)


def copula_out_of_place(family, theta, n, d, rng):
    if family == "Clayton":
        v = rng.standard_gamma(1.0 / theta, n)
        e = rng.exponentials((n, d))
        u = (1.0 + e / v[:, None]) ** (-1.0 / theta)
    elif theta == 1.0:
        u = np.exp(-rng.exponentials((n, d)))
    else:
        alpha = 1.0 / theta
        v = _positive_stable(alpha, rng, n)
        e = rng.exponentials((n, d))
        u = np.exp(-((e / v[:, None]) ** alpha))
    return np.clip(u, np.nextafter(0.0, 1.0), np.nextafter(1.0, 0.0))


class TestBitIdentity:
    EDGES = [0.0, -0.0, 1.0, np.nan, -0.1, 1.1, np.inf, -np.inf, 1e300,
             1e-300, 5e-324, 1 - 1e-16, *_around(0.075), *_around(0.925),
             *_around(0.5), *_around(math.exp(-25.0)), *_around(1 - math.exp(-25.0))]

    def test_quantile_dense_grid(self):
        p = np.concatenate([np.linspace(0.0, 1.0, 200_001),
                            np.random.default_rng(11).random(100_000),
                            np.logspace(-320, -1, 5_000)])
        assert np.array_equal(std_normal_quantile(p), ndtri_polyval(p), equal_nan=True)

    def test_quantile_edges(self):
        p = np.array(self.EDGES)
        assert np.array_equal(std_normal_quantile(p), ndtri_polyval(p), equal_nan=True)

    def test_quantile_edges_as_scalars(self):
        for x in self.EDGES:
            got, want = std_normal_quantile(x), ndtri_polyval(x)
            assert isinstance(got, float)
            assert got == want or (math.isnan(got) and math.isnan(want)), x

    def test_quantile_shapes(self):
        grid = np.random.default_rng(12).random((64, 37))
        grid.flat[:len(self.EDGES)] = self.EDGES
        for p in (0.3, np.array(0.97), grid, np.asfortranarray(grid), grid[:, ::3],
                  np.array([]), [0.1, 0.9]):
            got, want = std_normal_quantile(p), ndtri_polyval(p)
            assert np.shape(got) == np.shape(want)
            assert type(got) is type(want)
            assert np.array_equal(got, want, equal_nan=True)

    def test_quantile_leaves_input_alone(self):
        p = np.array([0.01, 0.5, 0.99])
        std_normal_quantile(p)
        assert p.tolist() == [0.01, 0.5, 0.99]

    def test_uniforms_and_exponentials(self):
        for size in (7, (33, 5)):
            a, b = RngStream.from_integer(21), RngStream.from_integer(21)
            assert np.array_equal(a.uniforms(size), OutOfPlaceStream(b).uniforms(size))
            assert np.array_equal(a.exponentials(size),
                                  OutOfPlaceStream(b).exponentials(size))

    @pytest.mark.parametrize("family", ["Clayton", "Gumbel"])
    @pytest.mark.parametrize("tau", [0.25, 0.5])
    def test_sample_copula(self, family, tau):
        theta = itau(family, tau)
        for n, d in ((1, 1), (64, 5), (256, 500)):
            got = sample_copula(family, theta, n, d, RngStream.from_integer(31))
            want = copula_out_of_place(family, theta, n, d,
                                       OutOfPlaceStream(RngStream.from_integer(31)))
            assert np.array_equal(got, want)

    def test_sample_copula_gumbel_independence(self):
        got = sample_copula("Gumbel", 1.0, 128, 20, RngStream.from_integer(32))
        want = copula_out_of_place("Gumbel", 1.0, 128, 20,
                                   OutOfPlaceStream(RngStream.from_integer(32)))
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("weights", [[1.0], [0.5, 1.5, 2.0], 3.0])
    def test_portfolio_loss(self, weights):
        u = sample_copula("Clayton", 2.0, 256, 100, RngStream.from_integer(33))
        w = np.resize(np.asarray(weights, dtype=float), 100)
        want = -(np.expm1(ndtri_polyval(u)) * w).sum(axis=1)
        assert np.array_equal(portfolio_loss(u, weights, std_normal_quantile), want)

    def test_portfolio_loss_does_not_write_shared_margins(self):
        u = RngStream.from_integer(34).uniforms((16, 4))
        before = u.copy()
        got = portfolio_loss(u, [1.0], lambda x: x)
        assert np.array_equal(u, before)
        assert np.array_equal(got, -np.expm1(before).sum(axis=1))
        frozen = np.full((16, 4), 0.25)
        frozen.flags.writeable = False
        portfolio_loss(u, [1.0], lambda x: frozen)
        assert np.all(frozen == 0.25)


_DRAW_SIZES = st.one_of(
    st.integers(0, 40), st.just(()), st.integers(0, 40).map(np.int64),
    st.lists(st.integers(0, 6), min_size=1, max_size=3).map(tuple),
    st.lists(st.integers(0, 6), min_size=1, max_size=3))


class TestStreamDraws:
    @settings(deadline=None)  # the profile's examples: 100 by default, 500 under "ci"
    @given(seed=st.integers(0, 2**64 - 1), draws=st.lists(
        st.tuples(st.sampled_from(["uniforms", "exponentials"]), _DRAW_SIZES),
        min_size=1, max_size=4))
    def test_stream_draws_match_the_raw_word_reference(self, seed, draws):
        # numpy's fill of (raw >> 11) * 2**-53 plus 2**-54 has the bits of
        # ((raw >> 11) + 0.5) * 2**-53 of the same words, from any buffer
        # position, and leaves the stream where the raw words do
        rng, twin = RngStream.from_integer(seed), RngStream.from_integer(seed)
        for kind, size in draws:
            got, want = getattr(rng, kind)(size), getattr(OutOfPlaceStream(twin), kind)(size)
            assert isinstance(got, np.ndarray) and got.shape == np.shape(want)
            assert got.tobytes() == np.asarray(want).tobytes()
            assert rng.state.to_hex() == twin.state.to_hex()
        assert rng.uniform() == twin.uniform()


def _mirrored(p):
    """``p`` near 0, or as near 1."""
    return p | p.map(lambda x: 1.0 - x)


_P_CENTRAL = st.floats(0.075, 0.925)
_P_NEAR = _mirrored(st.floats(1.4e-11, 0.07))    # r <= 5: p at least e**-25 from 0 and 1
_P_FAR = _mirrored(st.floats(5e-324, 1.3e-11))   # r > 5, or exactly 1
_P_ODD = st.sampled_from([0.0, -0.0, 1.0, math.inf, -math.inf]) | \
    st.floats(-2.0, -5e-324) | st.floats(1.0, 3.0, exclude_min=True)   # all in the tail


class TestQuantileTailPaths:
    @settings(deadline=None)  # the profile's examples: 100 by default, 500 under "ci"
    @given(near=st.lists(_P_CENTRAL | _P_NEAR, max_size=40), one_near=_P_NEAR,
           mixed=st.lists(_P_CENTRAL | _P_NEAR | _P_FAR | _P_ODD | st.just(math.nan),
                          max_size=40),
           one_other=_P_FAR | _P_ODD)
    def test_quantile_matches_the_reference_on_both_tail_paths(self, near, one_near, mixed,
                                                                one_other):
        # a block whose tail is all near the centre is evaluated in place
        # after one tail selection; one with a far, special or invalid tail
        # entry is selected again by branch, near and far
        for p, selections in ((near + [one_near], 1), (mixed + [one_other], 3)):
            p = np.array(p, dtype=float)
            with mock.patch.object(np, "flatnonzero", wraps=np.flatnonzero) as spy:
                got = std_normal_quantile(p)
            assert spy.call_count == selections
            assert float_bits(got) == float_bits(ndtri_polyval(p))
            for x in p.tolist():
                got = std_normal_quantile(x)
                assert type(got) is float and float_bits([got]) == float_bits([ndtri_polyval(x)])


_WEIGHT = st.floats(0.1, 3.0)


@st.composite
def weight_specs(draw):
    """(d, weights, varWgts): a scalar, a list shorter or longer than d, a
    nested list, each as it is or keyed by str(d)."""
    d = draw(st.integers(1, 60))
    w = draw(st.one_of(
        _WEIGHT, st.lists(_WEIGHT, min_size=1, max_size=2 * d + 3),
        st.integers(1, 4).flatmap(lambda k: st.lists(
            st.lists(_WEIGHT, min_size=k, max_size=k), min_size=1, max_size=5))))
    return d, w, {str(d): w} if draw(st.booleans()) else w


class TestWeights:
    @settings(deadline=None)
    @given(spec=weight_specs(), seed=st.integers(0, 2**32))
    def test_weights_are_recycled_once_as_np_resize_does(self, spec, seed):
        d, w, wspec = spec
        want = np.resize(np.asarray(w, dtype=float), d)
        seen = []

        def recorded(u, weights, margin):
            seen.append(weights)
            return portfolio_loss(u, weights, margin)

        params = dict(n=3, d=d, family="Clayton", tau=0.5, alpha=0.5, varWgts=wspec)
        with mock.patch.object(vc, "portfolio_loss", recorded):
            vc.do_one_var(params, RngStream.from_integer(seed), None)
        assert seen and all(x.dtype == float and x.tobytes() == want.tobytes() for x in seen)
        u = RngStream.from_integer(seed).uniforms((3, d))
        assert portfolio_loss(u, w, std_normal_quantile).tobytes() == \
            portfolio_loss(u, want, std_normal_quantile).tobytes()


# ---------------------------------------------------------------------------
# the sub-job kernel: row blocks against the whole-array reference

def var_out_of_place(params, rng):
    """``do_one_var`` in one whole (n, d) array with fresh temporaries."""
    n, d = params["n"], params["d"]
    w = params["varWgts"]
    w = np.resize(np.asarray(w[str(d)] if isinstance(w, Mapping) else w, dtype=float), d)
    u = copula_out_of_place(params["family"], itau(params["family"], params["tau"]),
                            n, d, OutOfPlaceStream(rng))
    return quantile_type7(-(np.expm1(ndtri_polyval(u)) * w).sum(axis=1), params["alpha"])


@st.composite
def var_params(draw):
    family = draw(st.sampled_from(["Clayton", "Gumbel"]))
    taus = [0.05, 0.25, 0.5, 0.9] + ([0.0] if family == "Gumbel" else [])
    d = draw(st.integers(1, 600))
    w = draw(st.one_of(
        st.floats(0.1, 3.0),
        st.lists(st.floats(0.1, 3.0), min_size=1, max_size=7),
        st.lists(st.floats(0.1, 3.0), min_size=1, max_size=7).map(
            lambda x: types.MappingProxyType({str(d): x}))))
    return dict(n=draw(st.integers(1, 600)), d=d, family=family,
                tau=draw(st.sampled_from(taus)), alpha=(0.5, 0.95, 0.99), varWgts=w)


class TestBlockedSubJob:
    @settings(deadline=None)  # the profile's examples: 100 by default, 500 under "ci"
    @given(params=var_params(), seed=st.integers(0, 2**32),
           block=st.sampled_from([1, 97, 4096, vc._BLOCK_ELEMS]))
    def test_blocked_sub_job_matches_the_whole_array_reference(self, params, seed, block):
        # blocks of one row, a short last block and one whole block all occur
        rows = []

        def recorded(*args):  # all positional: the benchmark's trace reads n and d
            assert len(args) == 6 and args[3] == params["d"]
            rows.append(args[2])
            return sample_copula(*args)

        with mock.patch.object(vc, "_BLOCK_ELEMS", block), \
                mock.patch.object(vc, "sample_copula", recorded):
            got = vc.do_one_var(params, RngStream.from_integer(seed), None)
        want = var_out_of_place(params, RngStream.from_integer(seed))
        assert float_bits(got) == float_bits(want)
        assert sum(rows) == params["n"]
        assert len(rows) == -(-params["n"] // max(1, block // params["d"]))

    def test_given_frailties_are_the_drawn_ones(self):
        for family, theta in (("Clayton", 2.0), ("Gumbel", 1.5), ("Gumbel", 1.0)):
            want = sample_copula(family, theta, 9, 4, RngStream.from_integer(35))
            rng = RngStream.from_integer(35)
            v = vc._frailty(family, theta, 9, rng)
            got = np.vstack([sample_copula(family, theta, 5, 4, rng, v[:5]),
                             sample_copula(family, theta, 4, 4, rng, v[5:])])
            assert np.array_equal(got, want)
        with pytest.raises(ValueError, match="3 frailties for 4 rows"):
            sample_copula("Clayton", 2.0, 4, 2, RngStream.from_integer(35), np.ones(3))


def _one_cell(extra):
    return VarList([VarSpec("n.sim", "N", 2), VarSpec("n", "grid", (8,)),
                    VarSpec("d", "grid", (3,)), VarSpec("family", "frozen", "Clayton"),
                    VarSpec("tau", "frozen", 0.5), VarSpec("alpha", "frozen", 0.99), extra])


class TestBadSpecs:
    def test_empty_weights_are_an_error_not_a_var_of_zero(self):
        with pytest.raises(ValueError, match="weights are empty"):
            portfolio_loss(np.full((2, 3), 0.5), [], std_normal_quantile)
        res = run_study(_one_cell(VarSpec("varWgts", "frozen", ())), vc.do_one_var)
        assert res.errors == {i: ErrorInfo("portfolio weights are empty", "ValueError")
                              for i in range(2)}

    def test_an_empty_margin_spec_is_named(self):
        with pytest.raises(ValueError, match=r"margin quantile spec \{\} is empty"):
            vc._resolve_margin({})
        res = run_study(_one_cell(VarSpec("qF", "frozen", {})), vc.do_one_var)
        assert res.errors == {i: ErrorInfo("margin quantile spec {} is empty", "ValueError")
                              for i in range(2)}


class TestExampleStore:
    def test_a_fresh_run_saves_the_golden_bytes(self, tmp_path):
        # tests/data/example-n2.json: the example with 2 replications, saved
        # before the kernels ran in row blocks
        res = run_study(example_varlist().with_n_sim(2), vc.do_one_var, backend=Sequential())
        save(res, tmp_path / "example.json")
        golden = DATA / "example-n2.json"
        assert masked(tmp_path / "example.json") == masked(golden)
        assert res.value.tobytes() == load(golden).value.tobytes()
