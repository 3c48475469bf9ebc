"""Gradient- and coordinate-descent trajectories on the unhinged loss."""

import csv
import math
import re
import tracemalloc

import numpy as np
import pytest

from potmin import cd_unhinged, gd_unhinged, label_sum
from potmin.dynamics import _check_sample

EPS = np.finfo(float).eps


def closed_form(v0, step, T, g):
    t = np.arange(T + 1)
    return np.asarray(v0) + step * t[:, None] * np.asarray(g)


def reference_gd_iterates(v0, step, T, g):
    """The incremental loop that gd_unhinged's cumulative sum must reproduce bit for bit."""
    iterates = np.empty((T + 1, len(g)))
    iterates[0] = v0
    v = v0.copy()
    increment = step * g
    for t in range(1, T + 1):
        v = v + increment
        iterates[t] = v
    return iterates


def reference_cd_iterates(T, d, j_star, sign, step_size):
    """The incremental loop that cd_unhinged's cumulative sum must reproduce bit for bit."""
    iterates = np.zeros((T + 1, d))
    v = np.zeros(d)
    for t in range(1, T + 1):
        v = v.copy()
        v[j_star] += sign * step_size
        iterates[t] = v
    return iterates


def reference_total_losses(iterates, xs, ys):
    """Per-atom sum of the unhinged loss through the (T+1) x n margin matrix."""
    margins = iterates @ (ys[:, None] * xs).T  # (T+1, n)
    return np.sum(1.0 - margins, axis=1)


# four finite rows whose label sum leaves float64
OVERFLOWING_X = [[1e308], [1e308], [-1e308], [-1e308]]


class TestGradientDescent:
    def test_iterates_match_closed_form(self):
        xs, ys = [[1.0, 0.5], [-0.25, 2.0], [0.5, -1.0]], [1, -1, 1]
        g = label_sum(xs, ys)
        traj = gd_unhinged(xs, ys, [0.125, -0.5], 2 ** -6, 200)
        residual = np.max(np.abs(traj.iterates - closed_form([0.125, -0.5], 2 ** -6, 200, g)))
        assert residual <= 1e-12

    def test_closed_form_random_samples(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            n, d = int(rng.integers(1, 6)), int(rng.integers(1, 4))
            xs, ys = rng.uniform(-0.5, 0.5, (n, d)), rng.choice([-1, 1], n)
            v0 = rng.uniform(-0.5, 0.5, d)
            traj = gd_unhinged(xs, ys, v0, 2 ** -6, 200)
            expected = closed_form(v0, 2 ** -6, 200, label_sum(xs, ys))
            assert np.max(np.abs(traj.iterates - expected)) <= 1e-12

    def test_zero_start_stays_collinear(self):
        # every iterate is a nonnegative multiple of the label sum
        xs, ys = [[1.0, 0.0], [0.3, 0.7]], [1, 1]
        traj = gd_unhinged(xs, ys, [0.0, 0.0], 0.1, 50)
        assert np.isnan(traj.angles_to_target[0])
        assert np.all(traj.angles_to_target[1:] <= 1e-12)
        g = traj.target
        for t in range(1, 51):
            coeff = float(traj.iterates[t] @ g / (g @ g))
            assert coeff >= 0.0

    def test_orthogonal_start_angle_schedule(self):
        # single point e1 gives g = e1; v0 = e2 and step ||g|| = 1 make the
        # angle at step t equal arctan(1/t)
        xs, ys = [[1.0, 0.0]], [1]
        traj = gd_unhinged(xs, ys, [0.0, 1.0], 1.0, 100)
        assert traj.angles_to_target[0] == pytest.approx(math.pi / 2, abs=1e-15)
        assert traj.angles_to_target[100] == pytest.approx(
            0.009999666686665238, abs=1e-15)
        expected = np.arctan(1.0 / np.arange(1, 101))
        np.testing.assert_allclose(traj.angles_to_target[1:], expected, atol=1e-13)

    def test_angles_strictly_decreasing_toward_zero(self):
        xs, ys = [[1.0, 0.0]], [1]
        traj = gd_unhinged(xs, ys, [0.0, 1.0], 1.0, 1000)
        diffs = np.diff(traj.angles_to_target[1:])
        assert np.all(diffs < 0)

    def test_stationary_sample_flagged(self):
        xs, ys = [[1.0, 0.0], [1.0, 0.0]], [1, -1]
        traj = gd_unhinged(xs, ys, [0.5, 0.5], 0.1, 10)
        assert traj.stationary
        assert np.all(traj.iterates == np.array([0.5, 0.5]))
        assert np.all(np.isnan(traj.angles_to_target))

    def test_loss_strictly_decreasing(self):
        xs, ys = [[0.4, -0.2], [0.1, 0.9]], [1, 1]
        traj = gd_unhinged(xs, ys, [0.3, -0.3], 0.05, 100)
        assert np.all(np.diff(traj.loss_values) < 0)

    def test_loss_is_total_over_sample(self):
        # two points at the origin-margin start: total loss is n, not 1
        xs, ys = [[1.0], [2.0]], [1, 1]
        traj = gd_unhinged(xs, ys, [0.0], 0.1, 1)
        assert traj.loss_values[0] == 2.0

    def test_validation(self):
        xs, ys = [[1.0]], [1]
        with pytest.raises(ValueError, match="nonempty"):
            gd_unhinged([], [], [0.0], 0.1, 5)
        with pytest.raises(ValueError, match="T"):
            gd_unhinged(xs, ys, [0.0], 0.1, 0)
        with pytest.raises(ValueError, match="step"):
            gd_unhinged(xs, ys, [0.0], 0.0, 5)
        with pytest.raises(ValueError, match="shape"):
            gd_unhinged(xs, ys, [0.0, 1.0], 0.1, 5)

    @pytest.mark.parametrize("v0, step, match", [
        ([0.0], np.inf, "step must be positive and finite, got inf"),
        ([np.inf], 0.1, r"v0 must be finite, got \[inf\]"),
        ([np.nan], 0.1, r"v0 must be finite, got \[nan\]"),
    ], ids=["step-inf", "v0-inf", "v0-nan"])
    def test_non_finite_input_rejected(self, v0, step, match):
        with pytest.raises(ValueError, match=match):
            gd_unhinged([[1.0]], [1], v0, step, 3)

    @pytest.mark.parametrize("xs, step, T", [
        ([[2.0]], 1e308, 1),       # step * g overflows
        ([[1.0]], 1e308, 2),       # the cumulative sum overflows
        ([[1e200]], 1e100, 1),     # the iterate is finite, its loss n - v.g is not
    ], ids=["step", "sum", "loss"])
    def test_iterates_leaving_float64_are_rejected(self, xs, step, T):
        # raised without a numpy RuntimeWarning, which pytest makes an error
        message = f"step {step!r} leaves float64 within T = {T} steps"
        with pytest.raises(ValueError, match=re.escape(message)):
            gd_unhinged(xs, [1], [0.0], step, T)

    def test_label_sum_leaving_float64_is_rejected(self):
        with pytest.raises(ValueError, match="label sum sum_i y_i x_i leaves float64"):
            gd_unhinged(OVERFLOWING_X, [1] * 4, [0.0], 0.5, 2)


class TestCheckSample:
    def test_valid(self):
        xs, ys = _check_sample([[1.0, -2.0]], [-1])
        assert xs.shape == (1, 2)
        assert ys.dtype == float and ys.tolist() == [-1.0]
        np.testing.assert_array_equal(label_sum([[1.0, -2.0]], [-1]), [-1.0, 2.0])

    @pytest.mark.parametrize("xs,ys,match", [
        ([[1.0]], [0], "label"),
        ([[1.0]], [2], "label"),
        ([[np.inf]], [1], "finite"),
        (np.empty((1, 0)), [1], "d >= 1"),
        ([[1.0], [2.0]], [1], "agree in length"),
    ], ids=["label-0", "label-2", "inf", "d-0", "ragged"])
    def test_invalid_rejected(self, xs, ys, match):
        for run in (lambda: gd_unhinged(xs, ys, [0.0], 0.1, 3),
                    lambda: cd_unhinged(xs, ys, 3),
                    lambda: label_sum(xs, ys)):
            with pytest.raises(ValueError, match=match):
                run()

    def test_label_sum_leaving_float64_is_rejected(self):
        # summed without a numpy RuntimeWarning, which pytest makes an error
        message = "label sum sum_i y_i x_i leaves float64: [inf]"
        for xs in ([[1e308], [1e308]], OVERFLOWING_X):
            with pytest.raises(ValueError, match=re.escape(message)):
                label_sum(xs, [1] * len(xs))
        # a finite sum of rows past float max / 2 is returned as is
        np.testing.assert_array_equal(label_sum([[1e308], [-1e308]], [1, 1]), [0.0])


class TestIncrementalReference:
    """The cumulative sums against the step loops they replaced."""

    @pytest.mark.parametrize("T", [1, 7, 1000, 20_000])
    def test_gd_iterates_equal_the_loop(self, T):
        rng = np.random.default_rng(T)
        n, d = 9, 4
        xs, ys = rng.uniform(-1, 1, (n, d)), rng.choice([-1, 1], n)
        v0 = rng.normal(size=d)
        for step in (0.1, 1 / 3, 0.0137):
            traj = gd_unhinged(xs, ys, v0, step, T)
            want = reference_gd_iterates(v0, step, T, label_sum(xs, ys))
            assert traj.iterates.tobytes() == want.tobytes()

    @pytest.mark.parametrize("T", [1, 7, 1000, 20_000])
    def test_cd_iterates_equal_the_loop(self, T):
        rng = np.random.default_rng(T + 1)
        n, d = 9, 4
        xs, ys = rng.uniform(-1, 1, (n, d)), rng.choice([-1, 1], n)
        g = label_sum(xs, ys)
        j_star = int(np.argmax(np.abs(g)))
        sign = 1 if g[j_star] > 0 else -1
        for step in (0.1, 1 / 3, 0.0137):
            traj = cd_unhinged(xs, ys, T, step_size=step)
            want = reference_cd_iterates(T, d, j_star, sign, step)
            assert traj.iterates.tobytes() == want.tobytes()

    def test_loss_equals_per_atom_sum_within_rounding(self):
        rng = np.random.default_rng(31)
        for _ in range(20):
            n, d = int(rng.integers(1, 60)), int(rng.integers(1, 8))
            xs, ys = rng.uniform(-1, 1, (n, d)), rng.choice([-1, 1], n)
            T = int(rng.integers(1, 2000))
            for traj in (gd_unhinged(xs, ys, rng.uniform(-1, 1, d), 1 / 7, T),
                         cd_unhinged(xs, ys, T, step_size=0.3)):
                want = reference_total_losses(traj.iterates, xs, ys)
                scale = n + np.abs(traj.iterates @ (ys[:, None] * xs).T).sum(axis=1)
                assert np.all(np.abs(traj.loss_values - want) <= 8 * EPS * scale)

    def test_memory_is_linear_in_steps(self):
        # the (T+1) x n margin matrix alone would be 80 MB here
        rng = np.random.default_rng(41)
        n, d, T = 1000, 10, 10_000
        xs, ys = rng.uniform(-1, 1, (n, d)), rng.choice([-1, 1], n)
        tracemalloc.start()
        try:
            gd_unhinged(xs, ys, np.zeros(d), 0.1, T)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20


class TestCoordinateDescent:
    def test_dominant_coordinate_wins_every_round(self):
        # label sum (3, 1): the boosting view keeps returning coordinate 0
        xs, ys = [[3.0, 1.0]], [1]
        traj = cd_unhinged(xs, ys, 8)
        assert traj.argmax_coords == (0,)
        assert traj.chosen_coords == ((0,),) * 8
        assert traj.step_signs == (1,) * 8
        np.testing.assert_array_equal(traj.iterates[8], [8.0, 0.0])
        for t in range(9):
            assert set(np.nonzero(traj.iterates[t])[0]) <= {0}

    def test_tie_lowest_index(self):
        xs, ys = [[2.0, 2.0]], [1]
        traj = cd_unhinged(xs, ys, 5, tie_rule="lowest-index")
        assert traj.argmax_coords == (0, 1)
        assert traj.chosen_coords == ((0,),) * 5
        np.testing.assert_array_equal(traj.iterates[5], [5.0, 0.0])

    def test_tie_report_all(self):
        xs, ys = [[2.0, 2.0]], [1]
        traj = cd_unhinged(xs, ys, 4, tie_rule="report-all")
        assert traj.chosen_coords == ((0, 1),) * 4
        # the update itself still takes the lowest index
        np.testing.assert_array_equal(traj.iterates[4], [4.0, 0.0])

    def test_negative_component_descends_negatively(self):
        xs, ys = [[0.0, -5.0]], [1]
        traj = cd_unhinged(xs, ys, 3)
        assert traj.argmax_coords == (1,)
        assert traj.step_signs == (-1,) * 3
        np.testing.assert_array_equal(traj.iterates[3], [0.0, -3.0])

    def test_support_contained_in_argmax_random(self):
        rng = np.random.default_rng(23)
        for _ in range(25):
            n, d = int(rng.integers(1, 8)), int(rng.integers(1, 5))
            xs, ys = rng.uniform(-1, 1, (n, d)), rng.choice([-1, 1], n)
            traj = cd_unhinged(xs, ys, 10)
            if traj.stationary:
                continue
            allowed = set(traj.argmax_coords)
            for t in range(11):
                assert set(np.nonzero(traj.iterates[t])[0]) <= allowed

    def test_step_magnitude_configurable(self):
        xs, ys = [[3.0, 1.0]], [1]
        traj = cd_unhinged(xs, ys, 2, step_size=0.25)
        np.testing.assert_array_equal(traj.iterates[2], [0.5, 0.0])

    def test_almost_tied_components_are_not_a_tie(self):
        xs, ys = [[2.0, 2.0 - 2 ** -50]], [1]
        traj = cd_unhinged(xs, ys, 2)
        assert traj.argmax_coords == (0,)

    @pytest.mark.parametrize("xs, step, T, message", [
        # the cumulative sum overflows
        ([[1.0]], 1e308, 2, "step_size 1e+308 leaves float64 within T = 2 steps"),
        # the iterate is finite, its loss n - v.g is not
        ([[1e200]], 1e200, 1, "step_size 1e+200 leaves float64 within T = 1 steps"),
        # the label sum overflows, whatever the step
        (OVERFLOWING_X, 1.0, 2, "label sum sum_i y_i x_i leaves float64"),
    ], ids=["sum", "loss", "label-sum"])
    def test_iterates_leaving_float64_are_rejected(self, xs, step, T, message):
        # raised without a numpy RuntimeWarning, which pytest makes an error
        with pytest.raises(ValueError, match=re.escape(message)):
            cd_unhinged(xs, [1] * len(xs), T, step_size=step)

    def test_zero_gradient_takes_no_step(self):
        traj = cd_unhinged([[1.0, 2.0], [1.0, 2.0]], [1, -1], 3)
        assert traj.step_signs == (0,) * 3
        np.testing.assert_array_equal(traj.loss_values, [2.0] * 4)

    def test_zero_gradient_support_empty(self):
        xs, ys = [[1.0, 2.0], [1.0, 2.0]], [1, -1]
        traj = cd_unhinged(xs, ys, 4)
        assert traj.stationary
        assert traj.argmax_coords == ()
        assert traj.chosen_coords == ((),) * 4
        assert np.all(traj.iterates == 0.0)

    def test_validation(self):
        xs, ys = [[1.0]], [1]
        with pytest.raises(ValueError, match="tie_rule"):
            cd_unhinged(xs, ys, 3, tie_rule="random")
        with pytest.raises(ValueError, match="step_size"):
            cd_unhinged(xs, ys, 3, step_size=0.0)
        with pytest.raises(ValueError, match="step_size must be positive and finite, got inf"):
            cd_unhinged(xs, ys, 3, step_size=np.inf)


@pytest.mark.parametrize("T", [0, 2.5, 2.0, True, "3"])
@pytest.mark.parametrize("run", ["gd", "cd"])
def test_step_count_must_be_an_integer_of_at_least_one(run, T):
    xs, ys = [[1.0]], [1]
    with pytest.raises(ValueError, match=f"T must be an integer of at least 1, got {T!r}"):
        if run == "gd":
            gd_unhinged(xs, ys, [0.0], 0.1, T)
        else:
            cd_unhinged(xs, ys, T)


def test_step_count_may_be_a_numpy_integer():
    assert gd_unhinged([[1.0]], [1], [0.0], 0.1, np.int64(3)).n_steps == 3
    assert cd_unhinged([[1.0]], [1], np.int32(3)).n_steps == 3


def reference_to_csv(traj, path):
    """The csv.writer row loop whose bytes Trajectory.to_csv must reproduce."""
    d = traj.dimension
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t"] + [f"v_{j + 1}" for j in range(d)]
                        + ["loss", "angle_rad", "chosen_coord"])
        for t in range(traj.iterates.shape[0]):
            angle = traj.angles_to_target[t]
            chosen = ""
            if traj.chosen_coords is not None and t >= 1:
                chosen = ";".join(str(j) for j in traj.chosen_coords[t - 1])
            writer.writerow(
                [str(t)]
                + [repr(float(c)) for c in traj.iterates[t]]
                + [repr(float(traj.loss_values[t])),
                   "" if np.isnan(angle) else repr(float(angle)),
                   chosen]
            )


class TestTrajectoryCsv:
    @pytest.mark.parametrize("run", ["gd", "cd-lowest-index", "cd-report-all",
                                     "stationary"])
    def test_bytes_match_reference_writer(self, tmp_path, run):
        rng = np.random.default_rng(17)
        xs = rng.standard_normal((50, 4))
        ys = rng.choice([-1, 1], 50)
        if run == "gd":
            traj = gd_unhinged(xs, ys, rng.standard_normal(4), 0.0137, 300)
        elif run == "cd-lowest-index":
            traj = cd_unhinged(xs, ys, 300, step_size=1 / 3)
        elif run == "cd-report-all":
            # columns 1 and 4 tie for the largest |label sum|, 3
            traj = cd_unhinged([[2.0, -1.0, 0.5, 1.0, 1.0], [0.0, 2.0, 0.5, 1.0, -2.0]],
                               [1, -1], 300, tie_rule="report-all")
            assert traj.argmax_coords == (1, 4)
        else:
            traj = gd_unhinged([[1.0, -2.0], [1.0, -2.0]], [1, -1], [0.0, 0.0], 0.5, 300)
            assert traj.stationary and np.all(np.isnan(traj.angles_to_target))
        traj.to_csv(tmp_path / "fast.csv")
        reference_to_csv(traj, tmp_path / "reference.csv")
        assert (tmp_path / "fast.csv").read_bytes() == (tmp_path / "reference.csv").read_bytes()

    def test_columns_and_markers(self, tmp_path):
        xs, ys = [[3.0, 1.0]], [1]
        traj = cd_unhinged(xs, ys, 2)
        path = tmp_path / "traj.csv"
        traj.to_csv(path)
        lines = path.read_text().splitlines()
        assert lines[0] == "t,v_1,v_2,loss,angle_rad,chosen_coord"
        first = lines[1].split(",")
        assert first[0] == "0"
        assert first[4] == ""   # angle undefined at the origin
        assert first[5] == ""   # no choice before the first round
        assert lines[2].split(",")[5] == "0"

    def test_report_all_join(self, tmp_path):
        traj = cd_unhinged([[2.0, 2.0]], [1], 1, tie_rule="report-all")
        path = tmp_path / "traj.csv"
        traj.to_csv(path)
        assert path.read_text().splitlines()[2].split(",")[5] == "0;1"

    def test_gd_rows_have_empty_choice_column(self, tmp_path):
        traj = gd_unhinged([[1.0]], [1], [0.0], 0.5, 2)
        path = tmp_path / "traj.csv"
        traj.to_csv(path)
        for line in path.read_text().splitlines()[1:]:
            assert line.endswith(",")
