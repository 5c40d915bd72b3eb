"""Spatial-filter estimation against analytic cases and independent solvers."""

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from conftest import make_epochset, make_separable_epochset
from cspnet.cli import EXIT_USAGE, main
from cspnet.csp import (
    CSPModel,
    CspLrModel,
    SpatialCovariance,
    apply_filters,
    class_mean_covariance,
    csp_objective,
    default_ridge,
    design_csp,
    load_csp,
    logvar_features,
    predict_csp_lr,
    save_csp,
    solve_csp,
    train_csp_lr,
    trial_covariance,
)
from cspnet.data import (
    EpochSet,
    SynthSpec,
    Trial,
    save_epochset,
    synthesize_dataset,
)
from cspnet.harness import ApproachSpec, sweep_filter_count
from cspnet.errors import (
    DegenerateInputError,
    FormatError,
    NumericalError,
    ParameterError,
    ValidationError,
)


def random_spd(c, seed, spread=2.0):
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal((c, c)))
    d = np.exp(rng.uniform(-spread, spread, size=c))
    m = q @ np.diag(d) @ q.T
    return SpatialCovariance(matrix=(m + m.T) / 2, n_trials_averaged=1)


class TestTrialCovariance:
    def test_identity_rows(self):
        cov = trial_covariance(np.eye(2))
        np.testing.assert_allclose(cov.matrix, [[0.5, 0.0], [0.0, 0.5]])

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**16), c=st.integers(2, 6), t=st.integers(2, 30))
    def test_unit_trace(self, seed, c, t):
        x = np.random.default_rng(seed).standard_normal((c, t))
        assert abs(np.trace(trial_covariance(x).matrix) - 1.0) < 1e-12

    def test_zero_trial_degenerate(self):
        with pytest.raises(DegenerateInputError):
            trial_covariance(np.zeros((3, 8)))


class TestClassMeanCovariance:
    def _epochs(self, datas, labels):
        trials = [Trial(d, l, "S1") for d, l in zip(datas, labels)]
        c = datas[0].shape[0]
        k = max(labels) + 1
        return EpochSet(
            trials, 128.0, [f"C{i}" for i in range(c)], [f"k{j}" for j in range(k)]
        )

    def test_single_trial(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((3, 10))
        epochs = self._epochs([x], [0])
        np.testing.assert_allclose(
            class_mean_covariance(epochs, 0).matrix, trial_covariance(x).matrix
        )

    def test_two_trial_average(self):
        rng = np.random.default_rng(1)
        x, y = rng.standard_normal((2, 3, 10))
        epochs = self._epochs([x, y], [0, 0])
        expected = (trial_covariance(x).matrix + trial_covariance(y).matrix) / 2
        np.testing.assert_allclose(
            class_mean_covariance(epochs, 0).matrix, expected, atol=1e-14
        )

    def test_sampling_oracle(self):
        target = np.array([[4.0, 1.0], [1.0, 2.0]])
        spec = SynthSpec(
            n_channels=2,
            n_samples=128,
            n_classes=1,
            class_covariances=[target],
            trials_per_class=500,
        )
        epochs = synthesize_dataset(spec, seed=5)
        got = class_mean_covariance(epochs, 0).matrix
        want = target / np.trace(target)
        rel = np.linalg.norm(got - want) / np.linalg.norm(want)
        assert rel < 0.10

    def test_empty_class(self):
        epochs = self._epochs([np.random.default_rng(0).standard_normal((2, 8))], [0])
        epochs.class_names.append("ghost")
        with pytest.raises(ValidationError):
            class_mean_covariance(epochs, 1)


class TestSolveCsp:
    def test_diagonal_case(self):
        c1 = SpatialCovariance(np.diag([4.0, 1.0]) / 5, 1)
        c2 = SpatialCovariance(np.eye(2) / 2, 1)
        model = solve_csp(c1, c2, f=2, ridge=0.0)
        np.testing.assert_allclose(model.eigenvalues, [1.6, 0.4], atol=1e-12)
        # unit C2-norm makes the axis-aligned filters sqrt(2) e_i
        np.testing.assert_allclose(
            np.abs(model.W), np.sqrt(2.0) * np.eye(2), atol=1e-12
        )
        assert model.W[0, 0] > 0 and model.W[1, 1] > 0

    def test_identity_pencil(self):
        cov = random_spd(4, seed=3)
        model = solve_csp(cov, cov, f=2, ridge=0.0)
        np.testing.assert_allclose(model.eigenvalues, [1.0, 1.0], atol=1e-10)
        for j in range(2):
            w = model.W[:, j]
            lhs = cov.matrix @ w
            rhs = model.eigenvalues[j] * cov.matrix @ w
            assert np.linalg.norm(lhs - rhs) <= 1e-8 * np.linalg.norm(lhs)

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**16))
    def test_residual_and_oracle_eigensolver(self, seed):
        c1 = random_spd(6, seed)
        c2 = random_spd(6, seed + 10_000)
        ridge = default_ridge(c2)
        model = solve_csp(c1, c2, f=4, ridge=ridge)
        b = c2.matrix + ridge * np.eye(6)
        for j in range(4):
            w = model.W[:, j]
            lam = model.eigenvalues[j]
            resid = np.linalg.norm(c1.matrix @ w - lam * (b @ w))
            bound = 1e-8 * (
                np.linalg.norm(c1.matrix) + np.linalg.norm(c2.matrix)
            ) * np.linalg.norm(w)
            assert resid <= bound
        # independent route: unsymmetric dense solver on B^-1 C1
        oracle = np.sort(np.linalg.eigvals(np.linalg.solve(b, c1.matrix)).real)
        mine = np.sort(model.eigenvalues)
        np.testing.assert_allclose(mine[:2], oracle[:2], rtol=1e-8)
        np.testing.assert_allclose(mine[-2:], oracle[-2:], rtol=1e-8)

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**16), f=st.sampled_from([2, 4, 6]))
    def test_metric_orthonormality(self, seed, f):
        c1 = random_spd(6, seed)
        c2 = random_spd(6, seed + 77)
        model = solve_csp(c1, c2, f=f, ridge=0.0)
        gram = model.W.T @ c2.matrix @ model.W
        np.testing.assert_allclose(gram, np.eye(f), atol=1e-8)

    def test_eigenvalues_descending(self):
        c1 = random_spd(6, 42)
        c2 = random_spd(6, 43)
        model = solve_csp(c1, c2, f=6, ridge=0.0)
        assert np.all(np.diff(model.eigenvalues) <= 1e-12)

    def test_sign_determinism(self):
        c1 = random_spd(5, 8)
        c2 = random_spd(5, 9)
        m1 = solve_csp(c1, c2, f=4, ridge=1e-8)
        m2 = solve_csp(c1, c2, f=4, ridge=1e-8)
        np.testing.assert_array_equal(m1.W, m2.W)

    def test_variance_ratio_follows_eigenvalue_order(self):
        train = make_separable_epochset(n_per_class=200, c=6, t=128, seed=1)
        c1 = class_mean_covariance(train, 0)
        c2 = class_mean_covariance(train, 1)
        model = solve_csp(c1, c2, f=6, ridge=default_ridge(c2))
        fresh = make_separable_epochset(n_per_class=200, c=6, t=128, seed=2)
        var = {0: [], 1: []}
        for tr in fresh.trials:
            var[tr.label].append(np.var(apply_filters(model, tr.data), axis=1))
        ratio = np.mean(var[0], axis=0) / np.mean(var[1], axis=0)
        rho = stats.spearmanr(-np.arange(model.f), ratio).statistic
        assert rho >= 0.9

    def test_too_many_filters_rejected(self):
        cov = random_spd(3, 0)
        with pytest.raises(ParameterError):
            solve_csp(cov, cov, f=4, ridge=0.0)

    def test_odd_filter_count_rejected(self):
        cov = random_spd(4, 0)
        with pytest.raises(ParameterError):
            solve_csp(cov, cov, f=3, ridge=0.0)

    def test_singular_without_ridge_is_numerical_error(self):
        c1 = SpatialCovariance(np.eye(2) / 2, 1)
        c2 = SpatialCovariance(np.diag([1.0, 0.0]), 1)
        with pytest.raises(NumericalError):
            solve_csp(c1, c2, f=2, ridge=0.0)
        solve_csp(c1, c2, f=2, ridge=1e-3)  # ridge rescues it


def three_class_epochs(seed=0, n_per_class=300, scale=9.0):
    covs = [np.eye(3) + scale * np.outer(e, e) for e in np.eye(3)]
    spec = SynthSpec(
        n_channels=3,
        n_samples=64,
        n_classes=3,
        class_covariances=covs,
        trials_per_class=n_per_class,
    )
    return synthesize_dataset(spec, seed)


class TestSolveCspMulticlass:
    """One-vs-rest banks and binary delegation, designed by `design_csp`."""

    def test_four_class_block_structure(self):
        covs = [np.eye(8) + 5.0 * np.outer(e, e) for e in np.eye(8)[:4]]
        spec = SynthSpec(
            n_channels=8,
            n_samples=32,
            n_classes=4,
            class_covariances=covs,
            trials_per_class=20,
        )
        epochs = synthesize_dataset(spec, seed=0)
        model = design_csp(epochs, f=8, ridge=1e-6)
        assert model.W.shape == (8, 8)
        assert model.scheme == "one-vs-rest"
        assert model.class_blocks == [0, 0, 1, 1, 2, 2, 3, 3]

    def test_binary_input_delegates(self):
        epochs = make_separable_epochset(n_per_class=30, c=4, t=32)
        via_multi = design_csp(epochs, f=4, ridge=1e-6)
        direct = solve_csp(
            class_mean_covariance(epochs, 0),
            class_mean_covariance(epochs, 1),
            f=4,
            ridge=1e-6,
        )
        np.testing.assert_array_equal(via_multi.W, direct.W)
        assert via_multi.scheme == "binary"

    def test_top_filters_align_with_dominant_directions(self):
        epochs = three_class_epochs()
        model = design_csp(epochs, f=3, ridge=1e-6)
        for k in range(3):
            cols = [j for j, blk in enumerate(model.class_blocks) if blk == k]
            w = model.W[:, cols[0]]
            cosine = abs(w[k]) / np.linalg.norm(w)
            assert cosine >= 0.95

    def test_indivisible_filter_count_rejected(self):
        epochs = three_class_epochs(n_per_class=5)
        with pytest.raises(ParameterError):
            design_csp(epochs, f=8, ridge=1e-6)

    def test_missing_class_rejected(self):
        epochs = three_class_epochs(n_per_class=5)
        present = [i for i, tr in enumerate(epochs.trials) if tr.label != 2]
        pruned = epochs.subset(present)
        with pytest.raises(ValidationError):
            design_csp(pruned, f=3, ridge=1e-6)


    def test_four_class_blocks_solve_one_vs_rest_pencils(self):
        epochs = make_epochset(n_per_class=12, c=8, t=40, n_classes=4, seed=3)
        model = design_csp(epochs, f=8)
        x = np.stack([tr.data for tr in epochs.trials])
        covs = np.einsum("nct,ndt->ncd", x, x)
        covs /= np.trace(covs, axis1=1, axis2=2)[:, None, None]
        labels = epochs.labels()
        ridge = 1e-6 * np.trace(covs.mean(axis=0)) / 8
        for k in range(4):
            b = covs[labels != k].mean(axis=0) + ridge * np.eye(8)
            want = scipy.linalg.eigh(covs[labels == k].mean(axis=0), b,
                                     eigvals_only=True)[::-1][:2]
            cols = [j for j, blk in enumerate(model.class_blocks) if blk == k]
            np.testing.assert_allclose(model.eigenvalues[cols], want,
                                       rtol=1e-10)
            w = model.W[:, cols]
            np.testing.assert_allclose(w.T @ b @ w, np.eye(2), atol=1e-10)


@pytest.mark.parametrize(
    ("f", "c", "k", "needle"),
    [
        (8, 4, 2, "exceeds 4 channels"),
        (5, 6, 2, "even"),
        (4, 6, 3, "divisible"),
    ],
)
def test_filter_count_rule_is_shared(tmp_path, capsys, f, c, k, needle):
    epochs = make_epochset(n_per_class=4, c=c, t=32, n_classes=k)
    with pytest.raises(ParameterError) as info:
        design_csp(epochs, f)
    message = str(info.value)
    assert needle in message
    cell = sweep_filter_count(epochs, ApproachSpec("csp-lr"), f_values=(f,),
                              repeats=1)[f]
    assert cell.status == "skipped"
    assert cell.reason == message
    save_epochset(epochs, tmp_path / "data")
    code = main(["csp", "--data", str(tmp_path / "data"), "--f", str(f),
                 "--out", str(tmp_path / "bank.csp")])
    assert code == EXIT_USAGE
    assert message in capsys.readouterr().err


class TestApplyFilters:
    def _identity_model(self, c):
        return CSPModel(
            W=np.eye(c), eigenvalues=np.ones(c), f=c, scheme="binary"
        )

    def test_identity_projection(self):
        x = np.random.default_rng(0).standard_normal((3, 7))
        np.testing.assert_array_equal(apply_filters(self._identity_model(3), x), x)

    def test_single_basis_column(self):
        x = np.random.default_rng(1).standard_normal((3, 7))
        model = CSPModel(
            W=np.eye(3)[:, :1], eigenvalues=np.ones(1), f=1, scheme="binary"
        )
        np.testing.assert_array_equal(apply_filters(model, x)[0], x[0])

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 2**16))
    def test_against_triple_loop(self, seed):
        rng = np.random.default_rng(seed)
        w = rng.standard_normal((4, 3))
        x = rng.standard_normal((4, 9))
        model = CSPModel(W=w, eigenvalues=np.zeros(3), f=3, scheme="binary")
        got = apply_filters(model, x)
        want = np.zeros((3, 9))
        for i in range(3):
            for j in range(9):
                for k in range(4):
                    want[i, j] += w[k, i] * x[k, j]
        np.testing.assert_allclose(got, want, atol=1e-12)

    def test_shape_mismatch(self):
        with pytest.raises(ParameterError):
            apply_filters(self._identity_model(3), np.zeros((4, 7)))


class TestLogvarFeatures:
    def test_constant_row(self):
        out = logvar_features(np.full((1, 8), 3.5))
        np.testing.assert_allclose(out, np.log(1e-10))

    def test_unit_variance_row(self):
        out = logvar_features(np.array([[1.0, -1.0, 1.0, -1.0]]))
        np.testing.assert_allclose(out, np.log(1 + 1e-10), atol=1e-12)

    def test_gaussian_scale(self):
        rng = np.random.default_rng(0)
        row = 2.0 * rng.standard_normal((1, 10000))
        assert abs(logvar_features(row)[0] - np.log(4.0)) < 0.1


class TestCspObjective:
    def test_axis_value(self):
        c1 = SpatialCovariance(np.diag([4.0, 1.0]) / 5, 1)
        c2 = SpatialCovariance(np.eye(2) / 2, 1)
        out = csp_objective(np.eye(2)[:, :1], c1, c2)
        np.testing.assert_allclose(out, [1.6])

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 2**16))
    def test_scale_invariance(self, seed):
        rng = np.random.default_rng(seed)
        w = rng.standard_normal((4, 3))
        c1 = random_spd(4, seed + 1)
        c2 = random_spd(4, seed + 2)
        a = csp_objective(w, c1, c2)
        b = csp_objective(7.0 * w, c1, c2)
        np.testing.assert_allclose(a, b, rtol=1e-12)

    def test_matches_solver_eigenvalues(self):
        c1 = random_spd(5, 11)
        c2 = random_spd(5, 12)
        model = solve_csp(c1, c2, f=4, ridge=0.0)
        obj = csp_objective(model.W, c1, c2)
        np.testing.assert_allclose(obj, model.eigenvalues, atol=1e-8)

    def test_zero_denominator(self):
        c1 = SpatialCovariance(np.eye(2), 1)
        c2 = SpatialCovariance(np.diag([1.0, 0.0]), 1)
        with pytest.raises(DegenerateInputError):
            csp_objective(np.array([[0.0], [1.0]]), c1, c2)


class TestCspLr:
    def test_separable_train_accuracy(self):
        train = make_separable_epochset(n_per_class=100, c=2, t=64, seed=3)
        model = train_csp_lr(train, f=2, ridge=1e-6, seed=0)
        correct = sum(
            predict_csp_lr(model, tr.data)[0] == tr.label for tr in train.trials
        )
        assert correct / len(train.trials) >= 0.99

    def test_separable_heldout_accuracy(self):
        train = make_separable_epochset(n_per_class=100, c=2, t=64, seed=3)
        test = make_separable_epochset(n_per_class=50, c=2, t=64, seed=4)
        model = train_csp_lr(train, f=2, ridge=1e-6, seed=0)
        correct = sum(
            predict_csp_lr(model, tr.data)[0] == tr.label for tr in test.trials
        )
        assert correct / len(test.trials) >= 0.95

    def test_single_class_rejected(self):
        spec = SynthSpec(
            n_channels=2,
            n_samples=16,
            n_classes=1,
            class_covariances=[np.eye(2)],
            trials_per_class=4,
        )
        with pytest.raises(ValidationError):
            train_csp_lr(synthesize_dataset(spec, 0), f=2, ridge=1e-6, seed=0)

    def test_probabilities_sum_to_one(self):
        train = make_separable_epochset(n_per_class=20, c=2, t=32)
        model = train_csp_lr(train, f=2, ridge=1e-6, seed=0)
        _, probs = predict_csp_lr(model, train.trials[0].data)
        assert abs(probs.sum() - 1.0) < 1e-12

    def test_zero_weights_uniform(self):
        train = make_separable_epochset(n_per_class=10, c=2, t=32)
        model = train_csp_lr(train, f=2, ridge=1e-6, seed=0)
        blank = CspLrModel(
            csp=model.csp,
            weights=np.zeros_like(model.weights),
            bias=np.zeros_like(model.bias),
            feature_mean=model.feature_mean,
            feature_std=model.feature_std,
        )
        _, probs = predict_csp_lr(blank, train.trials[0].data)
        np.testing.assert_allclose(probs, 0.5)

    def test_confident_far_from_boundary(self):
        train = make_separable_epochset(n_per_class=100, c=2, t=64, contrast=8.0)
        model = train_csp_lr(train, f=2, ridge=1e-6, seed=0)
        probs = [predict_csp_lr(model, tr.data)[1].max() for tr in train.trials]
        assert np.median(probs) >= 0.9

    def test_three_class(self):
        epochs = three_class_epochs(n_per_class=60)
        model = train_csp_lr(epochs, f=3, ridge=1e-6, seed=0)
        correct = sum(
            predict_csp_lr(model, tr.data)[0] == tr.label for tr in epochs.trials
        )
        assert correct / len(epochs.trials) >= 0.9


class TestSerialization:
    def test_binary_round_trip(self, tmp_path):
        c1 = random_spd(4, 1)
        c2 = random_spd(4, 2)
        model = solve_csp(c1, c2, f=4, ridge=1e-6)
        save_csp(model, tmp_path / "filters.txt")
        back = load_csp(tmp_path / "filters.txt")
        np.testing.assert_array_equal(back.W, model.W)
        np.testing.assert_array_equal(back.eigenvalues, model.eigenvalues)
        assert back.scheme == "binary" and back.class_blocks is None

    def test_ovr_round_trip(self, tmp_path):
        model = design_csp(three_class_epochs(n_per_class=10), 3, 1e-6)
        save_csp(model, tmp_path / "filters.txt")
        back = load_csp(tmp_path / "filters.txt")
        np.testing.assert_array_equal(back.W, model.W)
        assert back.class_blocks == model.class_blocks

    def test_bad_header(self, tmp_path):
        (tmp_path / "bad.txt").write_text("csp v2 4 4 binary\n")
        with pytest.raises(FormatError):
            load_csp(tmp_path / "bad.txt")

    def test_truncated_file(self, tmp_path):
        c1 = random_spd(4, 1)
        c2 = random_spd(4, 2)
        model = solve_csp(c1, c2, f=4, ridge=1e-6)
        save_csp(model, tmp_path / "filters.txt")
        lines = (tmp_path / "filters.txt").read_text().splitlines()
        (tmp_path / "cut.txt").write_text("\n".join(lines[:-1]) + "\n")
        with pytest.raises(FormatError):
            load_csp(tmp_path / "cut.txt")
