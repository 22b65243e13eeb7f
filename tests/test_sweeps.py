import hashlib
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wqent.errors import DimensionError, ValidationError
from wqent.entropy import qutrit_mutual_information_closed_form
from wqent.sweeps import SweepGrid, _row_prefixes, grid_to_csv, sweep_probabilities, sweep_weights

from csv_oracle import grid_to_csv_per_cell


class TestProbabilitySweep:
    def test_grid_shape_and_mask_count(self):
        grid = sweep_probabilities(97)
        assert grid.values.shape == (97, 97)
        # cells with p1 + p2 < 1: exactly n(n-1)/2 of them
        assert int((~grid.mask).sum()) == 97 * 96 // 2
        assert np.isnan(grid.values[grid.mask]).all()

    def test_axes_are_cell_centers(self):
        grid = sweep_probabilities(4)
        assert np.array_equal(grid.axis_values[0], np.array([0.125, 0.375, 0.625, 0.875]))
        assert grid.axis_values[0].min() > 0.0

    def test_mask_is_exact_on_the_diagonal(self):
        # cell centers with (2i+1)+(2j+1) == 2n sit on p1+p2 = 1 and are masked
        grid = sweep_probabilities(4)
        assert grid.mask[0, 3] and grid.mask[3, 0] and grid.mask[1, 2]
        assert not grid.mask[0, 2]

    def test_values_match_closed_form(self):
        grid = sweep_probabilities(95)
        # (0.1, 0.1) is a cell center at n = 95: (9 + 0.5)/95 == 0.1 exactly
        assert grid.axis_values[0][9] == 0.1
        expected = qutrit_mutual_information_closed_form(0.1, 0.1, 0.75, 0.25, 1 / 3, 2 / 3)
        assert grid.values[9, 9] == expected

    def test_default_weights_give_nonnegative_values(self):
        grid = sweep_probabilities(97)
        assert np.nanmin(grid.values) >= -1e-9

    def test_custom_weights(self):
        grid = sweep_probabilities(5, phi1=0.25, phi2=0.75, chi1=2 / 3, chi2=1 / 3)
        # sign condition still holds (both factors flipped), so still nonnegative
        assert np.nanmin(grid.values) >= -1e-9

    def test_rejects_bad_grid(self):
        with pytest.raises(ValidationError):
            sweep_probabilities(0)

    @pytest.mark.parametrize("phi1", [np.nan, -1.0, np.inf])
    def test_single_cell_grid_still_checks_weights(self, phi1):
        # at grid_n = 1 every cell is masked, so no value is computed
        with pytest.raises(ValidationError):
            sweep_probabilities(1, phi1)


class TestWeightSweep:
    def test_region_a_bounds_inclusive(self):
        grid = sweep_weights("a", 5)
        assert grid.axis_values[0][0] == 0.5
        assert grid.axis_values[0][-1] == 1.0
        assert grid.axis_values[1][0] == 0.0
        assert grid.axis_values[1][-1] == 0.5
        assert not grid.mask.any()

    def test_region_b_mirrors(self):
        grid = sweep_weights("b", 5)
        assert grid.axis_values[0][0] == 0.0
        assert grid.axis_values[0][-1] == 0.5
        assert grid.axis_values[1][0] == 0.5
        assert grid.axis_values[1][-1] == 1.0

    def test_values_nonnegative_in_both_regions(self):
        for region in ("a", "b"):
            grid = sweep_weights(region, 97)
            assert grid.values.min() >= -1e-9

    def test_spot_value(self):
        grid = sweep_weights("a", 3, p1=0.25, p2=0.125)
        expected = qutrit_mutual_information_closed_form(0.25, 0.125, 0.75, 0.25, 0.25, 0.75)
        assert grid.values[1, 1] == expected

    def test_rejects_unknown_region(self):
        with pytest.raises(ValidationError):
            sweep_weights("c", 5)

    def test_rejects_bad_grid(self):
        with pytest.raises(ValidationError):
            sweep_weights("a", 0)


@pytest.mark.parametrize("grid_n", [2.5, "3", None, np.float64(5.0)])
@pytest.mark.parametrize("sweep", [sweep_probabilities, lambda grid_n: sweep_weights("a", grid_n)],
                         ids=["prob", "weight"])
def test_non_integer_grid_n_is_a_validation_error_naming_it(sweep, grid_n):
    with pytest.raises(ValidationError, match=f"grid_n must be an integer, got {re.escape(repr(grid_n))}"):
        sweep(grid_n)


@pytest.mark.parametrize("sweep", [sweep_probabilities, lambda grid_n: sweep_weights("b", grid_n)],
                         ids=["prob", "weight"])
def test_numpy_integer_grid_n_gives_the_int_grid(sweep):
    got, want = sweep(np.int64(6)), sweep(6)
    assert got.values.tobytes() == want.values.tobytes()
    assert [ax.tobytes() for ax in got.axis_values] == [ax.tobytes() for ax in want.axis_values]


class TestCsv:
    def test_header_comments_and_row_count(self):
        grid = sweep_probabilities(7)
        text = grid_to_csv(grid, ["alpha", "beta"])
        lines = text.splitlines()
        assert lines[0] == "# alpha"
        assert lines[1] == "# beta"
        assert lines[2] == "p1,p2,I"
        assert len(lines) == 3 + 7 * 6 // 2
        assert text.endswith("\n")

    def test_17_digit_round_trip(self):
        grid = sweep_weights("a", 4)
        text = grid_to_csv(grid)
        row = text.splitlines()[1].split(",")
        assert float(row[0]) == grid.axis_values[0][0]
        assert float(row[2]) == grid.values[0, 0]

    def test_rerun_is_byte_identical(self):
        a = grid_to_csv(sweep_probabilities(31), ["x"])
        b = grid_to_csv(sweep_probabilities(31), ["x"])
        assert a == b

    def test_row_major_order(self):
        grid = sweep_weights("a", 3)
        rows = grid_to_csv(grid).splitlines()[1:]
        phis = [float(r.split(",")[0]) for r in rows]
        assert phis == sorted(phis)
        chis = [float(r.split(",")[1]) for r in rows[:3]]
        assert chis == [0.0, 0.25, 0.5]


def awkward_grid():
    """Scattered masked cells, signed zeros, subnormals, extremes and an unmasked NaN."""
    values = np.array([
        [-0.0, 5e-324, 1e300, 0.1],
        [-1e-300, np.nan, 2.0 / 3.0, -5e-324],
        [1.0, -1e300, 0.0, 123456789.0],
    ])
    mask = np.array([
        [False, True, False, False],
        [False, False, True, False],
        [True, False, False, True],
    ])
    axes = (np.array([-0.0, 1e-17, 0.5]), np.array([0.1, 0.2, 1e300, 5e-324]))
    return SweepGrid(("x", "y"), axes, values, mask)


class TestCsvMatchesPerCellOracle:
    COMMENTS = [(), ("first comment", "second, with a comma")]

    @pytest.mark.parametrize("comments", COMMENTS)
    @pytest.mark.parametrize("make", [
        lambda: sweep_probabilities(97),
        lambda: sweep_weights("a", 97),
        lambda: sweep_weights("b", 97),
        lambda: sweep_probabilities(1),
        lambda: sweep_weights("a", 1),
        awkward_grid,
    ], ids=["prob-97", "weight-a-97", "weight-b-97", "prob-1", "weight-a-1", "awkward"])
    def test_bytes_equal_oracle(self, make, comments):
        grid = make()
        assert grid_to_csv(grid, comments).encode() == grid_to_csv_per_cell(grid, comments).encode()

    def test_awkward_grid_renders_special_values(self):
        rows = grid_to_csv(awkward_grid()).splitlines()[1:]
        assert rows[0] == "-0,0.10000000000000001,-0"
        assert "0.5,0.20000000000000001,-1.0000000000000001e+300" in rows
        assert "1.0000000000000001e-17,0.20000000000000001,nan" in rows
        assert len(rows) == 12 - 4

    def test_integer_mask_renders_as_its_bools(self):
        grid = awkward_grid()
        grid = SweepGrid(grid.axis_names, grid.axis_values, grid.values, grid.mask.astype(int))
        assert grid_to_csv(grid).encode() == grid_to_csv_per_cell(grid).encode()

    def test_a_layout_evicted_from_the_cache_renders_the_same(self):
        # four layouts, one more than the cache holds, then the first again
        grids = [sweep_probabilities(5), sweep_weights("a", 5), sweep_weights("b", 5), sweep_probabilities(6)]
        _row_prefixes.cache_clear()
        for grid in grids + grids[:1]:
            assert grid_to_csv(grid).encode() == grid_to_csv_per_cell(grid).encode()
        assert _row_prefixes.cache_info().misses == 5

    def test_a_repeated_layout_reuses_its_template(self):
        _row_prefixes.cache_clear()
        first, second = sweep_weights("a", 9), sweep_weights("a", 9, p1=0.5, p2=0.25)
        assert grid_to_csv(first) != grid_to_csv(second) == grid_to_csv_per_cell(second)
        assert _row_prefixes.cache_info()[:2] == (1, 1)  # hits, misses

    def test_a_warm_render_of_the_figure_set_peaks_below_1_5_mb(self):
        grids = [sweep_probabilities(97), sweep_weights("a", 97), sweep_weights("b", 97)]
        for grid in grids:
            grid_to_csv(grid)
        tracemalloc.start()
        tracemalloc.reset_peak()
        try:
            for grid in grids:
                grid_to_csv(grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5e6


class TestCsvDigests:
    """sha256 of the default figure grids and of a probability grid whose largest values are 1 and above."""

    @pytest.mark.parametrize("make, digest", [
        (lambda: sweep_probabilities(97), "3517f5c8f9ee8f2c62dd4aea4e8088f62a8c9dc9e6eaad0034293532de9a8565"),
        (lambda: sweep_weights("a", 97), "4912a96bda11d3c4786972f0ad49659692b0719d7b21d37661b3a3b44846c480"),
        (lambda: sweep_weights("b", 97), "440445ead2e6d191da709deb45781c7b4a8decde26fe289deb4b6722d64f77cd"),
        # 482 of its 4,656 cells are >= 1
        (lambda: sweep_probabilities(97, 2.0, 0.05, 0.05, 2.0),
         "fbb1f5b54c16ca0f4546d2e3e31d136ce4631fae6cb8e52c519aec579611f14e"),
    ], ids=["prob-97", "weight-a-97", "weight-b-97", "prob-97-phi1-2"])
    def test_sha256(self, make, digest):
        assert hashlib.sha256(grid_to_csv(make()).encode()).hexdigest() == digest


def row_grid(values):
    """The values as a 1 x n grid, unmasked."""
    values = np.asarray(values)
    return SweepGrid(("x", "y"), (np.zeros(1), np.arange(values.size, dtype=float)), values.reshape(1, -1),
                     np.zeros((1, values.size), dtype=bool))


def neighbours(x, steps=40):
    """``x`` and the ``steps`` doubles on each side of it."""
    below, above = [x], [x]
    for _ in range(steps):
        below.append(np.nextafter(below[-1], -np.inf))
        above.append(np.nextafter(above[-1], np.inf))
    return below[::-1] + above[1:]


class TestCsvDigitsMatchPrintf:
    """Values that printf writes as ``0.ddd`` take the bulk digit path, the others printf: both must write
    what the per-cell oracle writes."""

    def assert_matches_oracle(self, values):
        grid = row_grid(values)
        assert grid_to_csv(grid) == grid_to_csv_per_cell(grid)

    def test_log_uniform_values_of_both_signs(self):
        rng = np.random.default_rng(20161604)
        magnitudes = 10.0 ** rng.uniform(-6, 1, 200_000)
        self.assert_matches_oracle(magnitudes * rng.choice([-1.0, 1.0], magnitudes.size))

    def test_dyadic_values_that_tie_at_the_17th_digit(self):
        # odd k / 2**(17 - e) times 10**(16 - e) is k * 5**(16 - e) / 2: a tie, for each exponent e = -1 .. -4
        rng = np.random.default_rng(3)
        ties = []
        for e in range(-1, -5, -1):
            j = 17 - e
            lo, hi = math.ceil(10.0**e * 2**j), math.floor(10.0 ** (e + 1) * 2**j)
            ties += [math.ldexp(k, -j) for k in rng.integers(lo // 2, hi // 2, 2000) * 2 + 1]
        assert all(1e-4 <= t < 1 for t in ties)
        self.assert_matches_oracle(ties + [-t for t in ties])

    @pytest.mark.parametrize("centre", [10.0**-k for k in range(6)] + [0.5])
    def test_neighbours_of_powers_of_ten_and_a_half(self, centre):
        values = neighbours(centre)
        self.assert_matches_oracle(values + [-x for x in values])

    def test_the_doubles_below_one_and_below_1e_4(self):
        # none below 1 rounds up to "1" at 17 digits; those below 1e-4 print with an exponent
        below_one, below_small = neighbours(1.0, 200)[:200], neighbours(1e-4, 200)[:200]
        assert "%.17g" % below_one[-1] == "0.99999999999999989"
        assert all("e-05" in "%.17g" % x for x in below_small)
        self.assert_matches_oracle(below_one + below_small)

    @given(st.lists(st.floats(), min_size=1, max_size=50))
    @settings(max_examples=200, deadline=None)
    def test_any_floats(self, values):
        self.assert_matches_oracle(values)

    @pytest.mark.parametrize("values, longest", [
        ([-5e-324, -np.finfo(float).tiny, -np.finfo(float).max, -1.2345678901234567e-4], 24),
        (np.array([np.finfo(np.float32).min, np.finfo(np.float32).smallest_subnormal]), 23),
        (np.array([np.iinfo(np.int64).min, np.iinfo(np.int64).max]), 23),
    ], ids=["float64", "float32", "int64"])
    def test_the_longest_texts_fill_their_slot(self, values, longest):
        # each row has 24 bytes for its value's text
        assert max(len("%.17g" % x) for x in np.asarray(values).tolist()) == longest
        self.assert_matches_oracle(values)

    @pytest.mark.parametrize("dtype", [np.float32, np.int64])
    def test_other_dtypes_go_through_printf(self, dtype):
        self.assert_matches_oracle(np.array([0.25, 3.0, -0.0625, 1e3]).astype(dtype))

    def test_a_complex_grid_raises_as_printf_does(self):
        with pytest.raises(TypeError, match="must be real number, not complex"):
            grid_to_csv(row_grid(np.array([0.5 + 1j, 0.25])))


def malformed(axis0=3, axis1=4, values=(3, 4), mask=(3, 4)):
    """A grid whose axes, values and mask have the given lengths and shapes."""
    axes = tuple(np.linspace(0.0, 1.0, n) for n in (axis0, axis1))
    return SweepGrid(("x", "y"), axes, np.zeros(values), np.zeros(mask, dtype=bool))


class TestCsvRejectsMalformedGrids:
    @pytest.mark.parametrize("grid", [
        malformed(axis1=3), malformed(axis1=5), malformed(axis0=2), malformed(axis0=4),
        malformed(mask=(2, 4)), malformed(mask=(3, 3)), malformed(values=(3, 5)), malformed(values=(12,)),
        SweepGrid(("x", "y"), (np.zeros((3, 1)), np.zeros(4)), np.zeros((3, 4)), np.zeros((3, 4), dtype=bool)),
    ], ids=["axis1-short", "axis1-long", "axis0-short", "axis0-long",
            "mask-row-missing", "mask-column-missing", "values-wide", "values-flat", "axis0-2d"])
    def test_shape_mismatch_raises_dimension_error(self, grid):
        with pytest.raises(DimensionError):
            grid_to_csv(grid)

    def test_object_axis_raises_validation_error(self):
        # an object array's bytes are pointers, which cannot key a layout
        grid = malformed()
        grid = SweepGrid(grid.axis_names, (grid.axis_values[0].astype(object), grid.axis_values[1]),
                         grid.values, grid.mask)
        with pytest.raises(ValidationError):
            grid_to_csv(grid)


# values the 17-digit printf must spell as the per-cell f-string does
AWKWARD_VALUES = [-0.0, 0.0, 5e-324, -5e-324, 1e300, -1e300, np.inf, -np.inf, np.nan, 0.1, 2.0 / 3.0, 1.0]
# printf directives and format fields that must come out of the comments as written
AWKWARD_COMMENTS = st.lists(
    st.sampled_from(["%", "%s", "%.17g", "{}", "{0}", "%%", "plain, with a comma", ""]), max_size=3)


@st.composite
def random_grids(draw):
    """Small grids with random masks (empty rows and fully masked grids included) and awkward values."""
    n0, n1 = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    cells = st.lists(st.sampled_from(AWKWARD_VALUES), min_size=n0 * n1, max_size=n0 * n1)
    values = np.array(draw(cells)).reshape(n0, n1)
    flags = st.lists(st.booleans(), min_size=n0 * n1, max_size=n0 * n1)
    mask = np.array(draw(st.one_of(flags, st.just([True] * (n0 * n1)), st.just([False] * (n0 * n1)))))
    mask = mask.reshape(n0, n1)
    if n0 > 1 and draw(st.booleans()):
        mask[draw(st.integers(0, n0 - 1))] = True
    axes = tuple(np.array(draw(st.lists(st.sampled_from(AWKWARD_VALUES), min_size=n, max_size=n)))
                 for n in (n0, n1))
    return SweepGrid(("x", "y"), axes, values, mask)


@st.composite
def sibling_grids(draw):
    """A random grid and a sibling with its shape, mask and values, whose one axis differs from it only
    by a negated zero, by one ulp, or by an integer dtype holding the same values or the same bytes."""
    grid = draw(random_grids())
    k = draw(st.integers(0, 1))
    axis = grid.axis_values[k].copy()
    i = draw(st.integers(0, axis.size - 1))
    kind = draw(st.sampled_from(["negated zero", "ulp", "integer values", "integer bytes"]))
    if kind == "negated zero":
        axis[i] = draw(st.sampled_from([0.0, -0.0]))
        sibling = axis.copy()
        sibling[i] = -axis[i]
    elif kind == "ulp":
        axis[i] = draw(st.sampled_from([0.0, -5e-324, 0.1, 2.0 / 3.0, 1.0, -1e300]))
        sibling = axis.copy()
        sibling[i] = np.nextafter(axis[i], np.inf)
    elif kind == "integer values":
        # prints as the float axis does: %g formats an int as a float
        ints = st.lists(st.integers(-10**6, 10**6), min_size=axis.size, max_size=axis.size)
        axis = np.array(draw(ints), dtype=float)
        sibling = axis.astype(np.int64)
    else:
        # the float axis's bytes read as int64 print as other numbers: only the dtype tells the keys apart
        sibling = axis.view(np.int64)

    def with_axis(a):
        axes = list(grid.axis_values)
        axes[k] = a
        return SweepGrid(grid.axis_names, tuple(axes), grid.values, grid.mask)
    return with_axis(axis), with_axis(sibling)


class TestCsvPropertyMatchesOracle:
    """Random grids up to 5x5, 1x1 and fully masked ones included."""

    @given(sibling_grids(), AWKWARD_COMMENTS)
    @settings(max_examples=200, deadline=None)
    def test_random_grid_bytes_equal_oracle(self, grids, comments):
        # the grid, then a sibling whose layout key differs only in its axis bytes or dtype, then the grid again
        grid, sibling = grids
        for g in (grid, sibling, grid):
            assert grid_to_csv(g, comments).encode() == grid_to_csv_per_cell(g, comments).encode()
