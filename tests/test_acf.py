"""Sample and theoretical autocorrelation: oracles, symmetry, closed form."""

import io
import re
import time

import numpy as np
import pytest

from cinar import (
    AcfTable,
    CinarParams,
    CountGrid,
    ModelOrder,
    PoissonInnovation,
    SimConfig,
    ValidationError,
    acf_closed_form_11,
    sample_acf,
    sample_acvf,
    simulate_cinar,
    theoretical_acf,
)

from _acf_oracle import acf_recursion_residual, fixed_point_acf


def _poi_params(theta, order=None):
    order = order or ModelOrder(1, 1)
    return CinarParams(order, np.asarray(theta, dtype=float), PoissonInnovation(1.0))


def _brute_acvf(v, k, l):
    """Literal double sum over all in-grid site pairs, divisor n1*n2."""
    n1, n2 = v.shape
    m = v.mean()
    total = 0.0
    for s in range(n1):
        for t in range(n2):
            s2, t2 = s - k, t - l
            if 0 <= s2 < n1 and 0 <= t2 < n2:
                total += (v[s, t] - m) * (v[s2, t2] - m)
    return total / (n1 * n2)


def _dense_recursion_solve(params, K, L, pad=30):
    """Independent oracle: direct linear solve of the ACF recursion system."""
    order = params.order
    alpha, phi, lags = params.alpha, params.phi, order.lags
    P, Q = K + pad, L + pad
    idx = {}
    cells = []
    for k in range(-P, P + 1):
        for l in range(-Q, Q + 1):
            if k > 0 or (k == 0 and l >= 0):
                idx[(k, l)] = len(cells)
                cells.append((k, l))
    A = np.zeros((len(cells), len(cells)))
    b = np.zeros(len(cells))

    def col(k, l):
        if (k, l) in idx:
            return idx[(k, l)]
        if (-k, -l) in idx:
            return idx[(-k, -l)]
        return None  # beyond the pad: treated as 0

    for r, (k, l) in enumerate(cells):
        A[r, r] = 1.0
        if (k, l) == (0, 0):
            b[r] = 1.0
            continue
        for (i, j), p in zip(lags, phi):
            c = col(k - i, l - j)
            if c is not None:
                A[r, c] -= alpha * p
    x = np.linalg.solve(A, b)
    out = np.empty((2 * K + 1, 2 * L + 1))
    for k in range(-K, K + 1):
        for l in range(-L, L + 1):
            out[k + K, l + L] = x[col(k, l)]
    return out


# =============================================================================
# Sample autocovariance
# =============================================================================


class TestSampleAcvf:
    def test_lag_zero_is_variance(self):
        rng = np.random.default_rng(3)
        g = CountGrid(rng.poisson(4.0, (15, 11)))
        assert sample_acvf(g, 0, 0) == pytest.approx(g.values.var(), rel=1e-12)

    def test_constant_grid_vanishes(self):
        g = CountGrid(np.full((6, 7), 3))
        for k, l in [(0, 0), (1, 0), (0, 1), (2, -1)]:
            assert sample_acvf(g, k, l) == 0.0

    def test_hand_grid(self):
        """3x3 grid at lag (1,0): hand double-sum gives -11/27."""
        g = CountGrid(np.array([[1, 2, 0], [0, 1, 3], [2, 2, 1]]))
        assert sample_acvf(g, 1, 0) == pytest.approx(-11 / 27, abs=1e-14)

    def test_brute_force_oracle_all_sign_combos(self):
        rng = np.random.default_rng(10)
        v = rng.poisson(2.5, (12, 9))
        g = CountGrid(v)
        for k, l in [(0, 0), (1, 0), (0, 2), (2, 3), (1, -2), (3, -1), (-2, 1)]:
            assert sample_acvf(g, k, l) == pytest.approx(
                _brute_acvf(v.astype(float), k, l), rel=1e-12, abs=1e-12
            ), f"lag ({k},{l})"

    def test_point_symmetry_exact(self):
        rng = np.random.default_rng(11)
        g = CountGrid(rng.poisson(3.0, (10, 10)))
        for k, l in [(1, 0), (0, 1), (2, -3), (1, 1), (4, -4)]:
            assert sample_acvf(g, k, l) == sample_acvf(g, -k, -l)

    def test_lag_out_of_range(self):
        g = CountGrid(np.ones((4, 5), dtype=int))
        with pytest.raises(ValidationError):
            sample_acvf(g, 4, 0)
        with pytest.raises(ValidationError):
            sample_acvf(g, 0, -5)

    @pytest.mark.parametrize("k, l, name, value", [
        (1.5, 0.9, "lag k", 1.5), (1, -0.5, "lag l", -0.5),
        (True, 0, "lag k", True)])
    def test_lag_is_checked_not_truncated(self, k, l, name, value):
        """int() would take (1.5, 0.9) as the lag (1, 0); refused instead."""
        g = CountGrid(np.random.default_rng(3).poisson(4.0, (8, 8)))
        with pytest.raises(ValidationError, match=(
                f"^{re.escape(name)} must be an integer, got {value!r}$")):
            sample_acvf(g, k, l)

    def test_integral_lag_of_any_number_type(self):
        g = CountGrid(np.random.default_rng(3).poisson(4.0, (8, 8)))
        assert sample_acvf(g, 2.0, np.int64(-1)) == sample_acvf(g, 2, -1)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    def test_non_finite_grid_is_refused_naming_its_first_cell(self, bad):
        """sample_acvf returned nan for such a grid, and sample_acf warned,
        then failed as an AcfTable of non-finite values; both refuse it up
        front, with no numpy warning."""
        values = np.random.default_rng(3).normal(size=(8, 9))
        values[5, 1] = values[6, 7] = bad
        message = f"^the grid must be finite: cell \\(5, 1\\) is {re.escape(str(bad))}$"
        with pytest.raises(ValidationError, match=message):
            sample_acvf(values, 1, 0)
        with pytest.raises(ValidationError, match=message):
            sample_acf(values, (1, 1))

    def test_finite_values_whose_mean_overflows_are_refused(self):
        with pytest.raises(ValidationError, match="^the grid's mean overflows to inf$"):
            sample_acvf(np.full((3, 3), 1e308), 0, 0)


# =============================================================================
# Sample autocorrelation table
# =============================================================================


class TestSampleAcf:
    @pytest.mark.parametrize("window", [(0, 0), (2, 2), (3, 1)])
    def test_equals_per_lag_acvf_exactly(self, window):
        """The grid is centred once for the table; every entry is still
        exactly sample_acvf(k, l) / sample_acvf(0, 0)."""
        params = CinarParams(ModelOrder(1, 1), np.array([0.2, 0.2, 0.35]),
                             PoissonInnovation(1.5))
        grid = simulate_cinar(SimConfig(params, 200, 200, burn_in=50, seed=8))
        tab = sample_acf(grid, window)
        K, L = window
        gamma0 = sample_acvf(grid, 0, 0)
        for k in range(-K, K + 1):
            for l in range(-L, L + 1):
                assert tab.value(k, l) == sample_acvf(grid, k, l) / gamma0

    def test_center_is_one(self):
        rng = np.random.default_rng(4)
        tab = sample_acf(CountGrid(rng.poisson(2.0, (30, 30))), (2, 2))
        assert tab.value(0, 0) == 1.0

    def test_white_noise_is_small(self):
        """i.i.d. grid: >=95% of nonzero lags within +-3/sqrt(n1 n2)."""
        rng = np.random.default_rng(77)
        tab = sample_acf(CountGrid(rng.poisson(5.0, (500, 500))), (4, 4))
        vals = tab.values.copy()
        vals[4, 4] = 0.0
        inside = np.abs(vals) <= 3.0 / np.sqrt(500 * 500)
        assert inside.sum() >= 0.95 * (vals.size - 1)

    @pytest.mark.parametrize("window, name, value", [
        ((1.6, 1.2), "window[0]", 1.6), ((2, 0.5), "window[1]", 0.5),
        ((True, 1), "window[0]", True)])
    def test_window_is_checked_not_truncated(self, window, name, value):
        """int() would take (1.6, 1.2) as a (1, 1) window; refused instead."""
        grid = CountGrid(np.random.default_rng(5).poisson(2.0, (10, 10)))
        with pytest.raises(ValidationError, match=(
                f"^{re.escape(name)} must be an integer, got {value!r}$")):
            sample_acf(grid, window)

    def test_integral_window_of_any_number_type(self):
        grid = CountGrid(np.random.default_rng(5).poisson(2.0, (10, 10)))
        want = sample_acf(grid, (2, 1))
        got = sample_acf(grid, (2.0, np.int64(1)))
        assert got.window == (2, 1)
        assert np.array_equal(got.values, want.values)

    def test_count_grid_takes_one_float_site_vector(self):
        """A count grid's float copy is centred in place: the table holds one
        float site vector (measured 1.003; centring into a second copy
        took 2.00), and a float grid given in is left as it was."""
        import tracemalloc

        grid = CountGrid(np.random.default_rng(9).poisson(3.0, (500, 500)))
        want = sample_acf(grid, (3, 3))
        tracemalloc.start()
        try:
            sample_acf(grid, (3, 3))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.1 * 500 * 500 * 8, peak / (500 * 500 * 8)
        floats = grid.values.astype(float)
        assert np.array_equal(sample_acf(floats, (3, 3)).values, want.values)
        assert np.array_equal(floats, grid.values)

    def test_degenerate_grid_raises(self):
        with pytest.raises(ValidationError, match="degenerate"):
            sample_acf(CountGrid(np.full((8, 8), 2)), (1, 1))

    def test_table_invariants_and_access(self):
        rng = np.random.default_rng(5)
        tab = sample_acf(CountGrid(rng.poisson(2.0, (25, 20))), (3, 2))
        assert np.array_equal(tab.values, tab.values[::-1, ::-1])
        assert np.max(np.abs(tab.values)) <= 1.0 + 1e-9
        with pytest.raises(ValidationError):
            tab.value(4, 0)

    def test_csv_layout(self):
        """Rows run l descending, columns k ascending, full precision."""
        rng = np.random.default_rng(6)
        tab = sample_acf(CountGrid(rng.poisson(2.0, (25, 20))), (2, 2))
        buf = io.StringIO()
        tab.to_csv(buf)
        lines = buf.getvalue().strip().splitlines()
        assert lines[0].split(",") == [r"l\k", "-2", "-1", "0", "1", "2"]
        assert [row.split(",")[0] for row in lines[1:]] == ["2", "1", "0", "-1", "-2"]
        mid = lines[3].split(",")
        assert float(mid[3]) == 1.0  # (k,l) = (0,0)
        assert float(mid[4]) == tab.value(1, 0)
        assert float(lines[2].split(",")[3]) == tab.value(0, 1)


class TestAcfTableValidation:
    def test_rejects_asymmetric(self):
        vals = np.zeros((3, 3))
        vals[1, 1] = 1.0
        vals[2, 1] = 0.5
        with pytest.raises(ValidationError, match="rho\\(k,l\\)"):
            AcfTable((1, 1), vals)

    def test_rejects_wrong_center(self):
        with pytest.raises(ValidationError, match="rho\\(0,0\\)"):
            AcfTable((1, 1), np.zeros((3, 3)))


# =============================================================================
# Theoretical ACF
# =============================================================================


class TestTheoreticalAcf:
    def test_independence_limit(self):
        """alpha ~ 0: every nonzero lag is ~0."""
        tab = theoretical_acf(_poi_params([1e-9, 1e-9, 1e-9]), (3, 3))
        vals = tab.values.copy()
        vals[3, 3] = 0.0
        assert np.max(np.abs(vals)) < 1e-8

    def test_axes_are_geometric(self):
        """theta=(0.2,0.2,0.5): rho(k,0)=0.5^k and rho(0,l)=0.5^l."""
        tab = theoretical_acf(_poi_params([0.2, 0.2, 0.5]), (4, 4))
        for k in range(5):
            assert tab.value(k, 0) == pytest.approx(0.5**k, abs=1e-9)
            assert tab.value(0, k) == pytest.approx(0.5**k, abs=1e-9)

    def test_monotone_decay_along_rows(self):
        tab = theoretical_acf(_poi_params([0.3, 0.4, 0.1]), (5, 5))
        row = [tab.value(k, 0) for k in range(6)]
        assert all(a > b for a, b in zip(row, row[1:]))

    def test_residual_contract(self):
        par = _poi_params([0.3, 0.4, 0.1])
        tab = theoretical_acf(par, (5, 5))
        assert acf_recursion_residual(tab, par) <= 1e-8

    @pytest.mark.parametrize(
        "order,theta",
        [
            (ModelOrder(1, 1), [0.3, 0.4, 0.1]),
            (ModelOrder(2, 1), [0.1, 0.15, 0.2, 0.1, 0.05]),
            (ModelOrder(1, 2), [0.25, 0.1, 0.2, 0.15, 0.05]),
        ],
    )
    def test_dense_solve_oracle(self, order, theta):
        """Spectral table == direct linear solve of the same recursion system."""
        par = _poi_params(theta, order)
        tab = theoretical_acf(par, (4, 4))
        oracle = _dense_recursion_solve(par, 4, 4)
        assert np.max(np.abs(tab.values - oracle)) < 1e-9

    def test_pure_vertical_dependence(self):
        """phi01=1: columns are AR-like, rows independent."""
        tab = theoretical_acf(_poi_params([0.6, 0.0, 0.0]), (3, 3))
        for l in range(4):
            assert tab.value(0, l) == pytest.approx(0.6**l, abs=1e-9)
        for k in range(1, 4):
            for l in range(-3, 4):
                assert abs(tab.value(k, l)) < 1e-9

    def test_invalid_params_raise(self):
        with pytest.raises(ValidationError):
            theoretical_acf(_poi_params([0.6, 0.6, 0.1]), (2, 2))

    @pytest.mark.parametrize("window, name, value", [
        ((2.9, 0.5), "window[0]", 2.9), ((2, np.True_), "window[1]", np.True_)])
    def test_window_is_checked_not_truncated(self, window, name, value):
        """int() would take (2.9, 0.5) as a (2, 0) window; refused instead."""
        with pytest.raises(ValidationError, match=(
                f"^{re.escape(name)} must be an integer, got {re.escape(repr(value))}$")):
            theoretical_acf(_poi_params([0.3, 0.4, 0.1]), window)

    @pytest.mark.parametrize(
        "order,theta",
        [
            (ModelOrder(1, 1), [0.3, 0.4, 0.1]),
            (ModelOrder(2, 1), [0.1, 0.15, 0.2, 0.1, 0.05]),
            (ModelOrder(1, 2), [0.25, 0.1, 0.2, 0.15, 0.05]),
            (ModelOrder(2, 2), [0.1] * 8),
        ],
    )
    def test_fixed_point_oracle(self, order, theta):
        """Spectral table == the recursion iterated to a fixed point."""
        par = _poi_params(theta, order)
        tab = theoretical_acf(par, (4, 4))
        oracle = fixed_point_acf(par, (4, 4))
        assert np.max(np.abs(tab.values - oracle.values)) < 1e-9

    @pytest.mark.parametrize("alpha", [0.8, 0.95, 0.99])
    def test_strong_dependence_matches_closed_form(self, alpha):
        """Near alpha = 1 the table still equals the (1,1) closed form;
        alpha 0.95 answers within a second."""
        par = _poi_params(np.array([0.3, 0.3, 0.35]) * alpha / 0.95)
        _, _, build = acf_closed_form_11(par)
        start = time.perf_counter()
        tab = theoretical_acf(par, (5, 5))
        elapsed = time.perf_counter() - start
        assert np.max(np.abs(tab.values - build((5, 5)).values)) < 1e-12
        assert acf_recursion_residual(tab, par) <= 1e-8
        if alpha == 0.95:
            assert elapsed < 1.0

    def test_oversized_transform_refused_quickly(self):
        """(2,2) at alpha 0.99 needs a 30M-cell transform: refused, with
        alpha and the cell count named, before anything is allocated."""
        par = _poi_params([0.99 / 8] * 8, ModelOrder(2, 2))
        start = time.perf_counter()
        with pytest.raises(ValidationError, match=r"alpha 0\.99 .* \d+ cells"):
            theoretical_acf(par, (5, 5))
        assert time.perf_counter() - start < 1.0

    @pytest.mark.slow
    def test_matches_sample_acf_monte_carlo(self):
        """theta=(0.3,0.4,0.1): within 0.02 of a 1000x1000 grid's sample ACF."""
        par = _poi_params([0.3, 0.4, 0.1])
        tab = theoretical_acf(par, (3, 3))
        g = simulate_cinar(SimConfig(par, 1000, 1000, seed=314))
        s = sample_acf(g, (3, 3))
        assert np.max(np.abs(tab.values - s.values)) < 0.02


# =============================================================================
# Order-(1,1) closed form
# =============================================================================


class TestClosedForm11:
    def test_known_rates(self):
        """theta=(0.2,0.2,0.5) gives lambda = eta = 1/2."""
        lam, eta, _ = acf_closed_form_11(_poi_params([0.2, 0.2, 0.5]))
        assert lam == pytest.approx(0.5, abs=1e-12)
        assert eta == pytest.approx(0.5, abs=1e-12)

    def test_rates_match_theoretical_first_lags(self):
        par = _poi_params([0.2, 0.2, 0.5])
        lam, eta, _ = acf_closed_form_11(par)
        tab = theoretical_acf(par, (1, 1))
        assert lam == pytest.approx(tab.value(1, 0), abs=1e-6)
        assert eta == pytest.approx(tab.value(0, 1), abs=1e-6)

    def test_second_quadrant_product_form(self):
        par = _poi_params([0.3, 0.4, 0.1])
        lam, eta, build = acf_closed_form_11(par)
        tab = build((3, 3))
        for k in range(4):
            for l in range(4):
                assert tab.value(-k, l) == pytest.approx(
                    lam**k * eta**l, abs=1e-12
                )

    def test_table_satisfies_recursion(self):
        par = _poi_params([0.3, 0.4, 0.1])
        _, _, build = acf_closed_form_11(par)
        assert acf_recursion_residual(build((5, 5)), par) <= 1e-8

    def test_pure_vertical_is_inapplicable(self):
        with pytest.raises(ValidationError, match="theoretical_acf"):
            acf_closed_form_11(_poi_params([0.6, 0.0, 0.0]))

    def test_requires_order_11(self):
        par = _poi_params([0.1] * 5, ModelOrder(2, 1))
        with pytest.raises(ValidationError, match="order"):
            acf_closed_form_11(par)

    def test_build_window_is_checked_not_truncated(self):
        """int() would build (2.9, 1.5) as a (2, 1) window; refused instead,
        and an integral window of any number type is taken."""
        _, _, build = acf_closed_form_11(_poi_params([0.3, 0.4, 0.1]))
        with pytest.raises(ValidationError,
                           match=r"^window\[0\] must be an integer, got 2\.9$"):
            build((2.9, 1.5))
        assert np.array_equal(build((2.0, np.int64(1))).values, build((2, 1)).values)

    @pytest.mark.slow
    def test_agrees_with_fixed_point_on_random_draws(self):
        """20 random applicable draws: closed form == theoretical_acf
        within 1e-6."""
        rng = np.random.default_rng(2718)
        done = 0
        while done < 20:
            alpha = rng.uniform(0.1, 0.85)
            phi = rng.dirichlet([1.0, 1.0, 1.0])
            theta = alpha * phi
            par = _poi_params(theta)
            try:
                _, _, build = acf_closed_form_11(par)
            except ValidationError:
                continue
            tab_cf = build((5, 5))
            tab_th = theoretical_acf(par, (5, 5))
            diff = np.max(np.abs(tab_cf.values - tab_th.values))
            assert diff < 1e-6, f"draw {done}: theta={theta}, diff={diff:.2e}"
            done += 1
