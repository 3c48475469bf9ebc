"""Distribution construction, corruption, margins, and CSV round trips."""

import csv
import math
import os
import re
import threading
import time
import tracemalloc
import warnings
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import helpers
from potmin import (DiscreteDistribution, cd_unhinged, corrupt_rcn, gd_unhinged, l1_margin,
                    make_counterexample, mean_label_feature, misclassification_error,
                    unhinged_minimizer)
from potmin import distributions
from potmin.cli import load_sample_csv
from potmin.distributions import GAMMA_STAR, _merge_duplicates, _NoisyView, _write_csv


def reference_merge_duplicates(xs, ys, weights):
    """The sequential dict loop that _merge_duplicates must reproduce bit for bit."""
    index_of: dict = {}
    order: list[int] = []
    merged = np.array(weights)
    keep = np.ones(len(ys), dtype=bool)
    for i in range(len(ys)):
        key = (int(ys[i]), (xs[i] + 0.0).tobytes())  # +0.0 folds -0.0 into 0.0
        j = index_of.get(key)
        if j is None:
            index_of[key] = i
            order.append(i)
        else:
            merged[j] += merged[i]
            keep[i] = False
    if keep.all():
        return xs, ys, weights
    idx = np.array(order)
    return xs[idx], ys[idx], merged[idx]


def assert_same_bytes(got, want):
    for a, b in zip(got, want):
        assert a.dtype == b.dtype and a.shape == b.shape
        assert a.tobytes() == b.tobytes()


# few distinct coordinates, so rows repeat, with 0.0 and -0.0 both present
_coords = st.sampled_from([0.0, -0.0, 1.0, -2.5, 0.1, 3e-300])


@st.composite
def atom_arrays(draw):
    """Validated (xs, ys, weights) arrays, as __post_init__ hands them over."""
    d = draw(st.integers(1, 3))
    pool = draw(st.lists(st.lists(_coords, min_size=d, max_size=d), min_size=1, max_size=4))
    n = draw(st.integers(1, 40))
    rows = [pool[draw(st.integers(0, len(pool) - 1))] for _ in range(n)]
    ys = [draw(st.sampled_from([-1, 1])) for _ in range(n)]
    ws = [draw(st.floats(1e-3, 1.0)) for _ in range(n)]
    return (np.array(rows, dtype=float), np.array(ys, dtype=int),
            np.array(ws, dtype=float))


def atoms_by_key(dist):
    return {
        (int(dist.ys[i]), tuple(dist.xs[i])): float(dist.weights[i])
        for i in range(dist.n_atoms)
    }


class TestConstruction:
    def test_weights_must_sum_to_one(self):
        with pytest.raises(ValueError, match="sum to 1"):
            DiscreteDistribution([[1.0]], [1], [0.9])

    def test_weights_must_be_positive(self):
        with pytest.raises(ValueError, match="positive"):
            DiscreteDistribution([[1.0], [2.0]], [1, 1], [1.0, 0.0])

    @pytest.mark.parametrize("weights, message", [
        ([0.5, 0.5, 0.0], "got 0.0 at atom 2"),
        ([0.5, -0.5, 1.0], "got -0.5 at atom 1"),
        ([np.nan, 1.0, 0.0], "got nan at atom 0"),
    ])
    def test_bad_weight_names_its_atom(self, weights, message):
        with pytest.raises(ValueError, match=f"strictly positive, {message}$"):
            DiscreteDistribution([[1.0], [2.0], [3.0]], [1, 1, 1], weights)

    def test_first_of_two_bad_weights_is_named(self):
        # one reduction decides; only then is the first bad atom searched for
        with pytest.raises(ValueError, match="strictly positive, got 0.0 at atom 1$"):
            DiscreteDistribution([[1.0], [2.0], [3.0], [4.0], [5.0]], [1] * 5,
                                 [0.5, 0.0, 0.25, 0.25, np.nan])

    def test_construction_peak_memory_at_scale(self):
        # n = 1e5 distinct rows of d = 20: the peak is the merge's keys and
        # sort (3.2565 xs.nbytes with numpy 2.4).  The checks of the rows take
        # temporaries of n labels (0.9 MB), no n x d one: an isfinite(xs)
        # mask alone is xs.nbytes / 8
        rng = np.random.default_rng(0)
        xs = rng.standard_normal((100_000, 20))
        ys = rng.choice([-1.0, 1.0], 100_000)
        weights = np.full(100_000, 1e-5)
        tracemalloc.start()
        try:
            distributions._labeled_rows(xs, ys)
            check_peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            DiscreteDistribution(xs, ys, weights)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert check_peak < xs.nbytes / 10
        assert peak <= 3.26 * xs.nbytes

    def test_labels_validated(self):
        with pytest.raises(ValueError, match="label"):
            DiscreteDistribution([[1.0]], [2], [1.0])

    @pytest.mark.parametrize("ys", [[1.5, -1.9], [np.nan, 1.0], [1.0, 0.5]])
    def test_non_integer_labels_rejected_not_truncated(self, ys):
        with pytest.raises(ValueError, match="labels must be -1 or \\+1"):
            DiscreteDistribution([[1.0], [2.0]], ys, [0.5, 0.5])

    def test_float_labels_stored_as_integers(self):
        dist = DiscreteDistribution([[1.0], [2.0]], [1.0, -1.0], [0.5, 0.5])
        assert dist.ys.dtype.kind == "i" and dist.ys.tolist() == [1, -1]

    def test_feature_array_must_be_two_dimensional(self):
        with pytest.raises(ValueError, match="2-d"):
            DiscreteDistribution(np.ones((1, 2, 2)), [1], [1.0])

    def test_duplicates_merge_by_exact_equality(self):
        dist = DiscreteDistribution([[1.0], [1.0]], [1, 1], [0.4, 0.6])
        assert dist.n_atoms == 1
        assert dist.weights[0] == 1.0

    def test_nearby_but_unequal_atoms_stay_separate(self):
        dist = DiscreteDistribution([[1.0], [1.0 + 2 ** -52]], [1, 1], [0.5, 0.5])
        assert dist.n_atoms == 2

    def test_same_x_opposite_labels_stay_separate(self):
        dist = DiscreteDistribution([[1.0], [1.0]], [1, -1], [0.5, 0.5])
        assert dist.n_atoms == 2

    def test_first_seen_order_is_kept(self):
        dist = DiscreteDistribution(
            [[2.0], [1.0], [2.0]], [1, -1, 1], [0.25, 0.5, 0.25])
        assert dist.xs[:, 0].tolist() == [2.0, 1.0]
        assert dist.weights.tolist() == [0.5, 0.5]

    def test_immutable_arrays(self):
        dist = make_counterexample(0.1)
        with pytest.raises(ValueError):
            dist.weights[0] = 0.3


class TestMergeDuplicates:
    @settings(max_examples=300, deadline=None)
    @given(arrays=atom_arrays())
    @example(arrays=(np.array([[0.0, 1.0], [-0.0, 1.0], [-0.0, 1.0]]),
                     np.array([1, 1, -1]), np.array([0.25, 0.25, 0.5])))
    @example(arrays=(np.array([[2.0]]), np.array([-1]), np.array([1.0])))
    @example(arrays=(np.full((30, 1), 0.1), np.ones(30, dtype=int),
                     np.full(30, 1.0 / 30.0)))
    def test_matches_reference_loop(self, arrays):
        got = _merge_duplicates(*arrays)
        want = reference_merge_duplicates(*arrays)
        assert_same_bytes(got, want)
        assert [g is a for g, a in zip(got, arrays)] == [w is a for w, a in zip(want, arrays)]

    @settings(max_examples=100, deadline=None)
    @given(dist=helpers.small_distributions(), eta=helpers.etas, flip=st.integers(0, 4))
    def test_corrupt_rcn_matches_reference(self, dist, eta, flip):
        # add (x, -y) for one atom, so corruption also merges across labels
        i = flip % dist.n_atoms
        xs = np.vstack([dist.xs, dist.xs[i:i + 1]])
        ys = np.append(dist.ys, -dist.ys[i])
        ws = np.append(dist.weights, 0.5) / 1.5
        both = DiscreteDistribution(xs, ys, ws)
        n = both.n_atoms
        split_ys = np.empty(2 * n, dtype=int)
        split_ys[0::2], split_ys[1::2] = both.ys, -both.ys
        split_ws = np.empty(2 * n)
        split_ws[0::2], split_ws[1::2] = (1.0 - eta) * both.weights, eta * both.weights
        want = reference_merge_duplicates(np.repeat(both.xs, 2, axis=0), split_ys, split_ws)
        noisy = corrupt_rcn(both, eta)
        assert_same_bytes((noisy.xs, noisy.ys, noisy.weights), want)


class TestCounterexample:
    def test_atoms_at_parameter_five_percent(self):
        dist = make_counterexample(0.05)
        assert dist.n_atoms == 3
        assert np.all(dist.ys == 1)
        np.testing.assert_allclose(
            dist.xs,
            [[1.0, 0.0],
             [0.05, math.sqrt(1.0 - 0.05 ** 2)],
             [0.05, -0.1]],
            rtol=0, atol=0)
        assert dist.weights.tolist() == [0.25, 0.25, 0.5]

    def test_total_mass_one(self):
        for gamma in np.linspace(0.01, 0.99, 23):
            assert make_counterexample(float(gamma)).weights.sum() == 1.0

    def test_boundary_parameter_accepted(self):
        # the error-rate claim only holds strictly below the threshold,
        # but the builder is permissive on (0, 1)
        assert make_counterexample(0.0901).n_atoms == 3
        assert make_counterexample(0.99).n_atoms == 3

    def test_gamma_star_is_the_float_where_the_heavy_point_flips(self):
        # the root of 125 g^2 + 22 g - 3, and the last float at which the
        # centroid minimizer misclassifies the heavy third point
        assert abs(125 * GAMMA_STAR ** 2 + 22 * GAMMA_STAR - 3) <= 1e-15
        for gamma, error in ((GAMMA_STAR, 0.5), (np.nextafter(GAMMA_STAR, 1.0), 0.0)):
            dist = make_counterexample(float(gamma))
            v = unhinged_minimizer(dist, 1.0).v
            assert (float(v @ dist.xs[2]) < 0.0) == (error == 0.5)
            assert misclassification_error(dist, v) == error

    @pytest.mark.parametrize("gamma", [0.0, 1.0, -0.2, 1.5])
    def test_out_of_range_rejected(self, gamma):
        with pytest.raises(ValueError, match="gamma"):
            make_counterexample(gamma)


class TestCorruptRcn:
    def test_single_atom_split(self):
        dist = DiscreteDistribution([[2.0, 0.0]], [1], [1.0])
        noisy = corrupt_rcn(dist, 0.25)
        assert atoms_by_key(noisy) == {
            (1, (2.0, 0.0)): 0.75,
            (-1, (2.0, 0.0)): 0.25,
        }

    def test_counterexample_split_weights(self):
        noisy = corrupt_rcn(make_counterexample(0.05), 0.1)
        assert noisy.n_atoms == 6
        table = atoms_by_key(noisy)
        assert table[(1, (1.0, 0.0))] == 0.225
        assert table[(-1, (1.0, 0.0))] == 0.025

    def test_label_symmetric_distribution_is_a_fixed_point(self):
        dist = DiscreteDistribution([[1.0], [1.0]], [1, -1], [0.5, 0.5])
        noisy = corrupt_rcn(dist, 0.25)
        assert atoms_by_key(noisy) == atoms_by_key(dist)

    @pytest.mark.parametrize("eta", [0.0, 0.5, -0.1, 0.7, 1.0])
    def test_rate_boundaries_rejected(self, eta):
        with pytest.raises(ValueError, match="eta"):
            corrupt_rcn(make_counterexample(0.1), eta)

    def test_feature_support_preserved(self):
        dist = make_counterexample(0.17)
        noisy = corrupt_rcn(dist, 0.3)
        assert {tuple(x) for x in noisy.xs} == {tuple(x) for x in dist.xs}

    @settings(max_examples=60, deadline=None)
    @given(dist=helpers.small_distributions(), eta=helpers.etas)
    def test_mass_preserved(self, dist, eta):
        assert abs(corrupt_rcn(dist, eta).weights.sum() - 1.0) <= 1e-12

    @settings(max_examples=60, deadline=None)
    @given(dist=helpers.small_distributions(), eta1=helpers.etas, eta2=helpers.etas)
    def test_composition_law(self, dist, eta1, eta2):
        twice = corrupt_rcn(corrupt_rcn(dist, eta1), eta2)
        once = corrupt_rcn(dist, eta1 + eta2 - 2.0 * eta1 * eta2)
        a, b = atoms_by_key(twice), atoms_by_key(once)
        assert a.keys() == b.keys()
        for key in a:
            assert a[key] == pytest.approx(b[key], abs=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(dist=helpers.small_distributions(), eta=helpers.etas)
    def test_centroid_contracts_by_one_minus_two_eta(self, dist, eta):
        clean = mean_label_feature(dist)
        noisy = mean_label_feature(corrupt_rcn(dist, eta))
        np.testing.assert_allclose(noisy, (1.0 - 2.0 * eta) * clean, atol=1e-12)


class TestMeanLabelFeature:
    def test_matches_closed_form_for_counterexample(self):
        for gamma in np.linspace(0.01, 0.45, 15):
            gamma = float(gamma)
            m = mean_label_feature(make_counterexample(gamma))
            expected = np.array([
                0.25 + 3.0 * gamma / 4.0,
                math.sqrt(1.0 - gamma * gamma) / 4.0 - gamma,
            ])
            np.testing.assert_allclose(m, expected, atol=1e-15)

    def test_value_at_five_percent(self):
        m = mean_label_feature(make_counterexample(0.05))
        np.testing.assert_allclose(m, [0.2875, 0.19968730444297722],
                                   rtol=0, atol=1e-15)

    def test_cancellation_gives_zero_vector(self):
        dist = DiscreteDistribution([[3.0, -1.0], [3.0, -1.0]], [1, -1], [0.5, 0.5])
        assert mean_label_feature(dist).tolist() == [0.0, 0.0]


class TestL1Margin:
    def test_counterexample_margin_is_exactly_gamma(self):
        for gamma in np.linspace(0.01, 0.49, 25):
            dist = make_counterexample(float(gamma))
            assert l1_margin(dist, [1.0, 0.0]) == float(gamma)

    def test_second_axis_margin(self):
        # atom margins 0, sqrt(1 - 0.0025), -0.1; the minimum is -0.1
        assert l1_margin(make_counterexample(0.05), [0.0, 1.0]) == -0.1

    def test_exact_scale_invariance_for_binary_scales(self):
        dist = make_counterexample(0.07)
        w = np.array([0.3, -1.7])
        base = l1_margin(dist, w)
        for c in (0.25, 0.5, 2.0, 8.0):
            assert l1_margin(dist, c * w) == base

    @settings(max_examples=60, deadline=None)
    @given(dist=helpers.small_distributions())
    def test_scale_invariance(self, dist):
        rng = np.random.default_rng(0)
        w = rng.normal(size=dist.dimension)
        if not np.any(w != 0):
            w[0] = 1.0
        m1 = l1_margin(dist, w)
        m2 = l1_margin(dist, 3.7 * w)
        assert m2 == pytest.approx(m1, rel=1e-12, abs=1e-15)

    def test_zero_vector_rejected(self):
        with pytest.raises(ValueError, match="nonzero"):
            l1_margin(make_counterexample(0.1), [0.0, 0.0])

    @pytest.mark.parametrize("w, message", [
        ([np.nan, 0.0], "w must be finite, got [nan, 0.0]"),
        ([1.0, 0.0, 0.0], "w must have shape (2,), got (3,)"),
    ], ids=["nan", "shape"])
    def test_bad_vector_named_w(self, w, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            l1_margin(make_counterexample(0.1), w)


def reference_to_csv(dist, path):
    """The csv.writer row loop whose bytes DiscreteDistribution.to_csv must reproduce."""
    d = dist.dimension
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"x{j + 1}" for j in range(d)] + ["y", "weight"])
        for i in range(dist.n_atoms):
            writer.writerow(
                [repr(float(c)) for c in dist.xs[i]]
                + [str(int(dist.ys[i])), repr(float(dist.weights[i]))]
            )


class TestCsv:
    @pytest.mark.parametrize("dist", [
        make_counterexample(0.05),
        # -0.0, integers stored as floats, 17-digit values and tiny/huge magnitudes
        DiscreteDistribution([[-0.0, 3.0, 0.1 + 0.2], [2.0, -0.0, 1 / 3], [1e-300, -1e300, 0.0]],
                             [1, -1, 1], [0.1 + 0.2, 0.25, 1.0 - (0.1 + 0.2) - 0.25]),
        DiscreteDistribution([[5.0]], [-1], [1.0]),
        helpers.random_distribution(np.random.default_rng(9), max_dim=6, max_atoms=40),
    ])
    def test_bytes_match_the_row_loop(self, dist, tmp_path):
        dist.to_csv(tmp_path / "fast.csv")
        reference_to_csv(dist, tmp_path / "reference.csv")
        assert (tmp_path / "fast.csv").read_bytes() == (tmp_path / "reference.csv").read_bytes()

    @pytest.mark.parametrize("columns", [
        [np.zeros(3), np.zeros(2)], [np.zeros(2), [1, 2, 3]], [[None], []]],
        ids=["arrays", "array-and-list", "lists"])
    def test_columns_of_unequal_length_rejected(self, tmp_path, columns):
        with pytest.raises(ValueError):
            _write_csv(tmp_path / "t.csv", ["a", "b"], columns)
        assert not (tmp_path / "t.csv").exists()

    def test_round_trip_exact(self, tmp_path):
        rng = np.random.default_rng(3)
        dist = helpers.random_distribution(rng, max_dim=4, max_atoms=7)
        path = tmp_path / "dist.csv"
        dist.to_csv(path)
        loaded = DiscreteDistribution.from_csv(path)
        assert loaded.n_atoms == dist.n_atoms
        np.testing.assert_array_equal(loaded.xs, dist.xs)
        np.testing.assert_array_equal(loaded.ys, dist.ys)
        np.testing.assert_array_equal(loaded.weights, dist.weights)

    def test_header_shape(self, tmp_path):
        path = tmp_path / "d.csv"
        make_counterexample(0.25).to_csv(path)
        header = path.read_text().splitlines()[0]
        assert header == "x1,x2,y,weight"

    def test_bad_label_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("x1,y,weight\n1.0,2,1.0\n")
        with pytest.raises(ValueError, match="label"):
            DiscreteDistribution.from_csv(path)

    def test_bad_weight_sum_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("x1,y,weight\n1.0,1,0.5\n2.0,1,0.4\n")
        with pytest.raises(ValueError, match="sum to 1"):
            DiscreteDistribution.from_csv(path)

    @pytest.mark.parametrize("body, message", [
        ("1.0,1,0.5\n2.0,1,0.4\n", "weights must sum to 1 within 1e-12, got 0.9"),
        ("1.0,1,1.0\n2.0,1,0\n", "weights must be finite and strictly positive, "
                                  "got 0.0 at atom 1"),
    ], ids=["sum", "zero"])
    def test_bad_weight_error_names_the_file(self, tmp_path, body, message):
        path = tmp_path / "bad.csv"
        path.write_text("x1,y,weight\n" + body)
        with pytest.raises(ValueError) as err:
            DiscreteDistribution.from_csv(path)
        assert str(err.value) == f"{path}: {message}"

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,weight\n1.0,1,1.0\n")
        with pytest.raises(ValueError, match="header"):
            DiscreteDistribution.from_csv(path)

    def test_ragged_row_names_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("x1,y,weight\n1.0,1,0.5\n2.0,1\n")
        with pytest.raises(ValueError, match=re.escape(f"{path}:3: expected 3 fields, got 2")):
            DiscreteDistribution.from_csv(path)

    def test_non_numeric_field_names_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("x1,x2,y,weight\n1.0,0.0,1,0.5\n1.0,abc,1,0.5\n")
        with pytest.raises(ValueError, match=re.escape(f"{path}:3: field 2 is not a number")):
            DiscreteDistribution.from_csv(path)

    @pytest.mark.parametrize("body,message", [
        ("1.0,1,0.5\ninf,1,0.5\n", "{path}:3: field 1 is not finite: 'inf'"),
        ("1.0,1,nan\n", "{path}:2: field 3 is not finite: 'nan'"),
        ("1.0,-inf,1.0\n", "{path}:2: field 2 is not finite: '-inf'"),
    ])
    def test_non_finite_field_names_line(self, tmp_path, body, message):
        path = tmp_path / "bad.csv"
        path.write_text("x1,y,weight\n" + body)
        with pytest.raises(ValueError) as err:
            DiscreteDistribution.from_csv(path)
        assert str(err.value) == message.format(path=path)

    def test_bad_label_after_blank_line_names_physical_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("x1,y,weight\n1.0,1,0.5\n\n2.0,0,0.5\n")
        with pytest.raises(ValueError,
                           match=re.escape(f"{path}:4: label must be -1 or 1, got 0")):
            DiscreteDistribution.from_csv(path)

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "gaps.csv"
        path.write_text("x1,y,weight\n\n1.0,1,0.5\n\n\n2.0,-1,0.5\n\n")
        dist = DiscreteDistribution.from_csv(path)
        assert dist.xs[:, 0].tolist() == [1.0, 2.0]
        assert dist.ys.tolist() == [1, -1]

    @pytest.mark.parametrize("body", ["", "\n\n"])
    def test_header_only_rejected_without_warning(self, tmp_path, body):
        path = tmp_path / "empty.csv"
        path.write_text("x1,y,weight\n" + body)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=re.escape(f"{path}: no data rows")):
                DiscreteDistribution.from_csv(path)

    def test_margins_helper(self):
        dist = make_counterexample(0.05)
        np.testing.assert_allclose(dist.margins([1.0, 0.0]), [1.0, 0.05, 0.05])

    def test_margins_retake_a_product_blas_rounds_past_float64(self):
        # 1e309 - 1e309 leaves float64 term by term, though the exact sum is
        # 0; the matmul gave -inf with a warning.  A product that truly
        # leaves float64 is inf, and finite ones keep the matmul's bits
        dist = DiscreteDistribution([[1e308, 1e308], [1.0, -1.0]], [1, 1], [0.5, 0.5])
        assert dist.margins([10.0, -10.0]).tolist() == [0.0, 20.0]
        assert (dist.margins([10.0, -10.0]).tobytes()
                == reference_margins(dist, [10.0, -10.0]).tobytes())
        assert dist.margins([1.0, 1.0]).tolist() == [math.inf, 0.0]
        assert (_NoisyView(dist, 0.2).margins([10.0, -10.0]).tobytes()
                == reference_margins(dist, [10.0, -10.0]).tobytes())
        rng = np.random.default_rng(14)
        for _ in range(20):
            dist = helpers.random_distribution(rng)
            v = rng.normal(size=dist.dimension) * 10.0 ** rng.integers(-300, 300)
            assert dist.margins(v).tobytes() == (dist.ys * (dist.xs @ v)).tobytes()

    @pytest.mark.parametrize("v", [[np.nan, 0.0], [0.0, -np.inf]], ids=["nan", "inf"])
    def test_margins_reject_non_finite_v(self, v):
        dist = make_counterexample(0.05)
        for view in (dist, _NoisyView(dist, 0.2)):
            with pytest.raises(ValueError, match=re.escape(f"v must be finite, got {v}")):
                view.margins(v)


def reference_margins(dist, v):
    """The margin kernel without the exponent guard: every product is
    checked, and one BLAS leaves non-finite is retaken scaled."""
    v = distributions._vector("v", v, dist.dimension)
    with np.errstate(over="ignore", invalid="ignore"):
        dots = dist.xs @ v
        bad = ~np.isfinite(dots)
        if bad.any():
            ev = distributions._exponent(v)
            dots[bad] = np.ldexp(np.ldexp(dist.xs[bad], -dist.x_exponent) @ np.ldexp(v, -ev),
                                 dist.x_exponent + ev)
    return dist.ys * dots


def guard_case(d, total, ex):
    """Three rows of dimension d with max|x| = 0.99 2^ex, and v = 0.99 2^ev
    in each coordinate, so that ex + ev + d.bit_length() = total."""
    ev = total - ex - d.bit_length()
    big = math.ldexp(0.99, ex)
    xs = [np.full(d, big),                              # d products near 2^(ex + ev)
          np.where(np.arange(d) % 2, -big, big),       # products that cancel in pairs
          np.ldexp(np.linspace(-0.9, 0.9, d), ex)]
    dist = DiscreteDistribution(xs, [1, -1, 1], [0.25, 0.25, 0.5])
    v = np.full(d, math.ldexp(0.99, ev))
    assert dist.x_exponent == ex and math.frexp(float(np.max(np.abs(v))))[1] == ev
    return dist, v


class TestMarginGuard:
    """Below ex + ev + d.bit_length() = 1024 the margins skip the overflow
    check; on both sides of that bound they keep the checked kernel's bits."""

    @pytest.mark.parametrize("d", [1, 2, 20])
    @pytest.mark.parametrize("total", [1022, 1023, 1024, 1025])
    @pytest.mark.parametrize("ex", [3, 500, 1000])
    def test_keeps_the_checked_bits_at_the_bound(self, d, total, ex):
        dist, v = guard_case(d, total, ex)
        want = reference_margins(dist, v)
        assert dist.margins(v).tobytes() == want.tobytes()
        assert _NoisyView(dist, 0.2).margins(v).tobytes() == want.tobytes()

    def test_past_the_bound_a_sum_that_leaves_float64_is_inf(self):
        # 20 products of 0.98 2^1020 sum past 2^1024; the guard must not
        # skip the check there, or the matmul's overflow warning would raise
        dist, v = guard_case(20, 1025, 510)
        assert dist.margins(v)[0] == math.inf
        # two products of 0.98 2^1023 sum below float64's limit, two of
        # 0.98 2^1024 past it
        dist = DiscreteDistribution([[math.ldexp(0.99, 512)] * 2], [1], [1.0])
        for ev, finite in ((511, True), (512, False)):
            v = [math.ldexp(0.99, ev)] * 2
            got = dist.margins(v)
            assert got.tobytes() == reference_margins(dist, v).tobytes()
            assert math.isfinite(got[0]) == finite

    @pytest.mark.parametrize("v, message", [
        ([np.nan, 1e300], "v must be finite, got [nan, 1e+300]"),
        ([np.inf, np.nan], "v must be finite, got [inf, nan]"),
        ([1.0, 2.0, 3.0], "v must have shape (2,), got (3,)"),
        ([[1.0, 2.0]], "v must have shape (2,), got (1, 2)"),
    ])
    def test_a_bad_v_falls_through_to_the_check(self, v, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            make_counterexample(0.05).margins(v)


class TestCsvCache:
    """from_csv hands out the last distribution it built only for the same bytes."""

    A = "x1,y,weight\n1.0,1,0.5\n2.0,-1,0.5\n"
    B = "x1,y,weight\n3.0,1,0.5\n4.0,-1,0.5\n"   # as long as A

    @pytest.fixture(autouse=True)
    def parses(self, monkeypatch):
        """The paths _read_labeled_csv parses, from an empty cache."""
        monkeypatch.setattr(distributions, "_last_csv", None)
        calls = []
        read = distributions._read_labeled_csv

        def counted(fh, path, *args):
            calls.append(path)
            return read(fh, path, *args)

        monkeypatch.setattr(distributions, "_read_labeled_csv", counted)
        return calls

    @staticmethod
    def rewrite(path, text):
        """Write text over path keeping its mtime, as a rewrite within one clock tick can."""
        st = os.stat(path)
        path.write_text(text)
        os.utime(path, ns=(st.st_atime_ns, st.st_mtime_ns))
        assert os.stat(path).st_size == st.st_size

    def test_same_bytes_give_the_same_object_without_a_parse(self, tmp_path, parses):
        path, copy = tmp_path / "a.csv", tmp_path / "copy.csv"
        path.write_text(self.A)
        copy.write_text(self.A)
        first = DiscreteDistribution.from_csv(path)
        assert DiscreteDistribution.from_csv(path) is first
        assert DiscreteDistribution.from_csv(copy) is first
        assert parses == [path]

    def test_rewrite_keeping_size_and_mtime_loads_the_new_bytes(self, tmp_path, parses):
        path = tmp_path / "a.csv"
        path.write_text(self.A)
        assert DiscreteDistribution.from_csv(path).xs[:, 0].tolist() == [1.0, 2.0]
        self.rewrite(path, self.B)
        assert DiscreteDistribution.from_csv(path).xs[:, 0].tolist() == [3.0, 4.0]
        assert parses == [path, path]

    def test_file_replaced_by_rename_loads_the_new_bytes(self, tmp_path, parses):
        path, new = tmp_path / "a.csv", tmp_path / "new.csv"
        path.write_text(self.A)
        new.write_text(self.B)
        os.utime(new, ns=(os.stat(path).st_atime_ns, os.stat(path).st_mtime_ns))
        assert DiscreteDistribution.from_csv(path).xs[:, 0].tolist() == [1.0, 2.0]
        os.replace(new, path)
        assert DiscreteDistribution.from_csv(path).xs[:, 0].tolist() == [3.0, 4.0]
        assert parses == [path, path]

    def test_write_during_the_parse_is_not_stored(self, tmp_path, monkeypatch, parses):
        path = tmp_path / "a.csv"
        path.write_text(self.A)
        # the file's last change lies in the past, so the write below moves its
        # mtime whatever the tick of the file system's clock
        os.utime(path, ns=(0, 0))
        read = distributions._read_labeled_csv

        def racing(fh, *args):
            # A was hashed; B, of the same size, is what the parse reads
            with open(path, "r+") as other:
                other.write(self.B)
            return read(fh, *args)

        monkeypatch.setattr(distributions, "_read_labeled_csv", racing)
        assert DiscreteDistribution.from_csv(path).xs[:, 0].tolist() == [3.0, 4.0]
        assert distributions._last_csv is None
        monkeypatch.setattr(distributions, "_read_labeled_csv", read)
        # an entry under A's digest would hand out B's atoms here
        self.rewrite(path, self.A)
        assert DiscreteDistribution.from_csv(path).xs[:, 0].tolist() == [1.0, 2.0]
        self.rewrite(path, self.B)
        assert DiscreteDistribution.from_csv(path).xs[:, 0].tolist() == [3.0, 4.0]

    @pytest.mark.parametrize("body, message", [
        ("1.0,2,1.0\n", "{path}:2: label must be -1 or 1, got 2"),
        ("1.0,1,0.5\n", "{path}: weights must sum to 1 within 1e-12, got 0.5"),
    ], ids=["reader", "constructor"])
    def test_failures_raise_on_every_call(self, tmp_path, parses, body, message):
        good, bad = tmp_path / "good.csv", tmp_path / "bad.csv"
        good.write_text(self.A)
        bad.write_text("x1,y,weight\n" + body)
        first = DiscreteDistribution.from_csv(good)
        for _ in range(2):
            with pytest.raises(ValueError) as err:
                DiscreteDistribution.from_csv(bad)
            assert str(err.value) == message.format(path=bad)
        assert DiscreteDistribution.from_csv(good) is first
        good.write_text(self.B)
        assert DiscreteDistribution.from_csv(good).xs[:, 0].tolist() == [3.0, 4.0]
        assert parses == [good, bad, bad, good]

    def test_round_trip_through_the_cache_is_bit_identical(self, tmp_path, parses):
        dist = helpers.random_distribution(np.random.default_rng(23), max_dim=4, max_atoms=9)
        dist.to_csv(tmp_path / "a.csv")
        loaded = DiscreteDistribution.from_csv(tmp_path / "a.csv")
        loaded.to_csv(tmp_path / "b.csv")
        assert (tmp_path / "b.csv").read_bytes() == (tmp_path / "a.csv").read_bytes()
        assert DiscreteDistribution.from_csv(tmp_path / "b.csv") is loaded
        assert_same_bytes((loaded.xs, loaded.ys, loaded.weights),
                          (dist.xs, dist.ys, dist.weights))
        assert parses == [tmp_path / "a.csv"]

    @pytest.fixture
    def hashes(self, monkeypatch):
        """One entry per _sha256 call."""
        calls = []
        sha256 = distributions._sha256

        def counted(raw):
            calls.append(raw.name)
            return sha256(raw)

        monkeypatch.setattr(distributions, "_sha256", counted)
        return calls

    @staticmethod
    def clock(monkeypatch, time_ns):
        """Make time_ns the module's clock."""
        monkeypatch.setattr(distributions, "time", SimpleNamespace(time_ns=time_ns))

    def later(self, monkeypatch):
        """Move the module's clock 10 s ahead, so every file written so far is settled."""
        self.clock(monkeypatch, lambda: time.time_ns() + 10 * 10**9)

    @staticmethod
    def xs(path):
        return DiscreteDistribution.from_csv(path).xs[:, 0].tolist()

    def test_settled_file_hits_without_a_hash(self, tmp_path, monkeypatch, parses, hashes):
        path = tmp_path / "a.csv"
        path.write_text(self.A)
        self.later(monkeypatch)
        first = DiscreteDistribution.from_csv(path)
        assert len(hashes) == 1
        for _ in range(3):
            assert DiscreteDistribution.from_csv(path) is first
        assert len(hashes) == 1
        assert parses == [path]

    def test_file_inside_the_racy_window_is_hashed_on_every_call(self, tmp_path, monkeypatch,
                                                                 parses, hashes):
        path = tmp_path / "a.csv"
        path.write_text(self.A)
        ctime = os.stat(path).st_ctime_ns
        # the window's far edge is still inside it
        self.clock(monkeypatch, lambda: ctime + distributions._RACY_NS)
        first = DiscreteDistribution.from_csv(path)
        for _ in range(3):
            assert DiscreteDistribution.from_csv(path) is first
        assert len(hashes) == 4
        # one nanosecond past it the file is settled: one more hash, then none
        self.clock(monkeypatch, lambda: ctime + distributions._RACY_NS + 1)
        for _ in range(3):
            assert DiscreteDistribution.from_csv(path) is first
        assert len(hashes) == 5
        assert parses == [path]

    def rewrite_in_place(self, path, new):
        self.rewrite(path, self.B)

    def replace_by_rename(self, path, new):
        new.write_text(self.B)
        st = os.stat(path)
        os.utime(new, ns=(st.st_atime_ns, st.st_mtime_ns))
        os.replace(new, path)

    def truncate_and_rewrite(self, path, new):
        st = os.stat(path)
        os.truncate(path, 0)
        path.write_text(self.B)
        os.utime(path, ns=(st.st_atime_ns, st.st_mtime_ns))

    @pytest.mark.parametrize("change", [rewrite_in_place, replace_by_rename,
                                        truncate_and_rewrite])
    def test_change_after_a_settled_hit_loads_the_new_bytes(self, tmp_path, monkeypatch,
                                                            parses, hashes, change):
        # real sleeps past a 50 ms margin: the test's file system must keep
        # timestamps finer than that, as the 2 s margin assumes of any other
        margin = 50_000_000
        monkeypatch.setattr(distributions, "_RACY_NS", margin)
        path, new = tmp_path / "a.csv", tmp_path / "new.csv"
        path.write_text(self.A)
        time.sleep(2 * margin / 1e9)
        assert self.xs(path) == [1.0, 2.0]
        assert self.xs(path) == [1.0, 2.0]
        assert len(hashes) == 1
        change(self, path, new)
        assert self.xs(path) == [3.0, 4.0]
        assert parses == [path, path]
        time.sleep(2 * margin / 1e9)
        assert self.xs(path) == [3.0, 4.0]
        assert self.xs(path) == [3.0, 4.0]
        assert len(hashes) == 3

    def test_touch_hashes_once_then_hits_again(self, tmp_path, monkeypatch, parses, hashes):
        path = tmp_path / "a.csv"
        path.write_text(self.A)
        self.later(monkeypatch)
        first = DiscreteDistribution.from_csv(path)
        assert DiscreteDistribution.from_csv(path) is first
        assert len(hashes) == 1
        st = os.stat(path)
        os.utime(path, ns=(st.st_atime_ns, st.st_mtime_ns + 10**9))
        assert DiscreteDistribution.from_csv(path) is first
        assert len(hashes) == 2
        assert DiscreteDistribution.from_csv(path) is first
        assert len(hashes) == 2
        assert parses == [path]

    def test_settled_copy_under_another_path_hits_through_the_digest(self, tmp_path, monkeypatch,
                                                                     parses, hashes):
        path, copy = tmp_path / "a.csv", tmp_path / "copy.csv"
        path.write_text(self.A)
        copy.write_text(self.A)
        self.later(monkeypatch)
        first = DiscreteDistribution.from_csv(path)
        assert DiscreteDistribution.from_csv(path) is first
        assert len(hashes) == 1
        assert DiscreteDistribution.from_csv(copy) is first
        assert len(hashes) == 2
        assert DiscreteDistribution.from_csv(copy) is first
        assert len(hashes) == 2
        assert parses == [path]

    @staticmethod
    def fed_pipe(tmp_path, text):
        """A named pipe, and the thread that writes text into it once it is opened."""
        pipe = tmp_path / "pipe.csv"
        os.mkfifo(pipe)

        def feed():
            with open(pipe, "w") as fh:
                fh.write(text)

        feeder = threading.Thread(target=feed, daemon=True)
        feeder.start()
        return pipe, feeder

    @staticmethod
    def drained(feeder):
        feeder.join(timeout=10)
        assert not feeder.is_alive()

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
    def test_pipe_gives_the_arrays_of_the_regular_file(self, tmp_path, parses, hashes):
        text = "x1,x2,y,weight\n1.0,0.5,1,0.25\n\n-2.0,3e-300,-1,0.75\n"
        regular = tmp_path / "a.csv"
        regular.write_text(text)
        want = DiscreteDistribution.from_csv(regular)
        pipe, feeder = self.fed_pipe(tmp_path, text)
        got = DiscreteDistribution.from_csv(pipe)
        self.drained(feeder)
        assert_same_bytes((got.xs, got.ys, got.weights), (want.xs, want.ys, want.weights))
        # a pipe is parsed, neither hashed nor kept
        assert parses == [regular, pipe] and len(hashes) == 1
        assert distributions._last_csv[1] is want
        # the sample reader, on the same rows less the weights
        sample = "".join(line.rsplit(",", 1)[0] + "\n" if line else "\n"
                         for line in text.splitlines())
        regular.write_text(sample)
        pipe.unlink()
        pipe, feeder = self.fed_pipe(tmp_path, sample)
        got = load_sample_csv(pipe)
        self.drained(feeder)
        assert_same_bytes(got, load_sample_csv(regular))

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
    @pytest.mark.parametrize("load, text", [
        (DiscreteDistribution.from_csv, "x1,y,weight\n1.0,1,0.5\n\n2.0,2,0.5\n"),
        (load_sample_csv, "x1,y\n1.0,1\n\n2.0,2\n"),
    ], ids=["from_csv", "load_sample_csv"])
    def test_bad_line_in_a_pipe_is_named_by_path_and_line(self, tmp_path, load, text):
        pipe, feeder = self.fed_pipe(tmp_path, text)
        with pytest.raises(ValueError) as err:
            load(pipe)
        self.drained(feeder)
        assert str(err.value) == f"{pipe}:4: label must be -1 or 1, got 2"


class TestRandomDistribution:
    @pytest.mark.parametrize("arg", ["max_dim", "max_atoms"])
    @pytest.mark.parametrize("value", [0, -1, 2.5, True, np.float64(3.0)])
    def test_sizes_must_be_integers_of_at_least_one(self, arg, value):
        with pytest.raises(ValueError,
                           match=re.escape(f"{arg} must be an integer of at least 1, got {value!r}")):
            helpers.random_distribution(np.random.default_rng(0), **{arg: value})

    def test_sizes_may_be_numpy_integers(self):
        dist = helpers.random_distribution(np.random.default_rng(0), max_dim=np.int64(1),
                                           max_atoms=np.int32(1))
        assert dist.xs.shape == (1, 1)


@pytest.mark.parametrize("xs, ys, message", [
    ([], [], "xs and ys must be nonempty"),
    (np.ones((1, 2, 2)), [1], "xs must be a 2-d array of rows with d >= 1, got shape (1, 2, 2)"),
    (np.empty((2, 0)), [1, 1], "xs must be a 2-d array of rows with d >= 1, got shape (2, 0)"),
    ([[1.0], [2.0]], [1], "xs and ys must agree in length, got 2 rows and labels of shape (1,)"),
    ([[1.0, 2.0], [np.inf, 0.0], [np.nan, 0.0]], [1, 1, 1],
     "coordinates must be finite, got [inf, 0.0] at row 1"),
    ([[1.0, 2.0], [0.0, np.nan], [3.0, 4.0], [np.inf, 0.0]], [1, 1, 1, 1],
     "coordinates must be finite, got [0.0, nan] at row 1"),
    ([[1.0, 2.0], [0.0, np.inf], [3.0, 4.0], [np.nan, 0.0]], [1, 1, 1, 1],
     "coordinates must be finite, got [0.0, inf] at row 1"),
    ([[1.0], [2.0], [3.0]], [1, -1, 0], "labels must be -1 or +1, got 0.0 at row 2"),
    ([[1.0], [2.0], [3.0], [4.0]], [1, 0, -1, 2], "labels must be -1 or +1, got 0.0 at row 1"),
    ([[1.0], [2.0], [3.0], [4.0]], [1, 2, -1, 0], "labels must be -1 or +1, got 2.0 at row 1"),
    ([[1.0], [2.0]], [1, np.nan], "labels must be -1 or +1, got nan at row 1"),
], ids=["empty", "3-d", "d-0", "ragged", "non-finite", "nan-then-inf", "inf-then-nan",
        "label-0", "label-0-then-2", "label-2-then-0", "label-nan"])
@pytest.mark.parametrize("entry", ["distribution", "gd", "cd"])
def test_one_row_check_names_the_bad_row(entry, xs, ys, message):
    # distributions and the descents share one check of labeled rows
    run = {
        "distribution": lambda: DiscreteDistribution(xs, ys,
                                                     np.full(len(ys), 1.0 / max(len(ys), 1))),
        "gd": lambda: gd_unhinged(xs, ys, [0.0], 0.1, 3),
        "cd": lambda: cd_unhinged(xs, ys, 3),
    }[entry]
    with pytest.raises(ValueError) as err:
        run()
    assert str(err.value) == message
