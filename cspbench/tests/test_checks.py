"""The benchmark's correctness checks accept right outputs and reject
deliberately wrong ones.

Run from the repository root:  python3 -m pytest cspbench/tests
"""

import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import checks  # noqa: E402
from checks import CheckError  # noqa: E402
from cspnet.cspnets import CspLayerMode, make_cspnet1  # noqa: E402
from cspnet.data import (  # noqa: E402
    SynthSpec,
    default_class_covariances,
    synthesize_dataset,
)
from cspnet.harness import (  # noqa: E402
    ApproachSpec,
    RunRecord,
    TrainConfig,
    design_csp,
    export_report,
    run_cross_subject,
)
from cspnet.models import BackboneSpec  # noqa: E402
from cspnet.nn import layer_forward, model_forward  # noqa: E402


def dataset(n_classes, n_subjects=1, c=6, t=48):
    spec = SynthSpec(n_channels=c, n_samples=t, n_classes=n_classes,
                     class_covariances=default_class_covariances(
                         c, n_classes, 4.0),
                     trials_per_class=12, noise_scale=1.0,
                     n_subjects=n_subjects, fs=32.0)
    return synthesize_dataset(spec, seed=3)


def stacked(epochs):
    return np.stack([tr.data for tr in epochs.trials])


@pytest.fixture(params=[2, 3], ids=["binary", "one-vs-rest"])
def csp_case(request):
    epochs = dataset(request.param)
    f = 2 * request.param if request.param == 3 else 4
    model = design_csp(epochs, f, None)
    return model, stacked(epochs), epochs.labels()


class TestCspFilters:
    def test_accepts_the_program_filters(self, csp_case):
        model, x, y = csp_case
        checks.check_csp_filters(model.W, model.eigenvalues, x, y,
                                 checks.oracle_ridge(x))

    def test_rejects_a_perturbed_filter_bank(self, csp_case):
        model, x, y = csp_case
        w = model.W.copy()
        w[0, 0] *= 1.001
        with pytest.raises(CheckError):
            checks.check_csp_filters(w, model.eigenvalues, x, y,
                                     checks.oracle_ridge(x))

    def test_rejects_swapped_eigenvalues(self, csp_case):
        model, x, y = csp_case
        lam = model.eigenvalues[::-1].copy()
        with pytest.raises(CheckError):
            checks.check_csp_filters(model.W, lam, x, y,
                                     checks.oracle_ridge(x))

    def test_rejects_a_wrong_ridge(self, csp_case):
        model, x, y = csp_case
        with pytest.raises(CheckError):
            checks.check_csp_filters(model.W, model.eigenvalues, x, y,
                                     1e3 * checks.oracle_ridge(x))


class TestProjection:
    def setup_method(self):
        epochs = dataset(2)
        csp = design_csp(epochs, 4, None)
        spec = BackboneSpec("shallowcnn", 6, 48, 32.0, 2)
        self.model = make_cspnet1(spec, csp, CspLayerMode("fix"))
        self.x = stacked(epochs)
        graph = self.model.graph
        self.out = layer_forward(graph.specs[0], graph.layer_params(0),
                                 self.x[:, None])

    def test_accepts_the_projection_layer(self):
        checks.check_projection(self.out, self.model.csp_source.W, self.x)

    def test_rejects_a_perturbed_output(self):
        out = self.out.copy()
        out[0, 1, 0, 5] += 1e-6
        with pytest.raises(CheckError):
            checks.check_projection(out, self.model.csp_source.W, self.x)

    def test_rejects_permuted_filters(self):
        w = self.model.csp_source.W[:, ::-1]
        with pytest.raises(CheckError):
            checks.check_projection(self.out, w, self.x)


class TestLogits:
    def setup_method(self):
        epochs = dataset(2)
        graph = make_cspnet1(BackboneSpec("eegnet", 6, 48, 32.0, 2),
                             design_csp(epochs, 4, None),
                             CspLayerMode("fix")).graph
        x = stacked(epochs)[:, None]
        self.batched = model_forward(graph, x, mode="eval")
        self.single = np.concatenate(
            [model_forward(graph, x[i : i + 1], mode="eval")
             for i in range(len(x))])
        self.preds = np.argmax(self.single, axis=1)

    def test_accepts_agreeing_logits(self):
        checks.check_logits(self.single, self.batched, self.preds)

    def test_rejects_a_mismatched_batched_logit(self):
        batched = self.batched.copy()
        batched[3, 1] += 1e-6
        with pytest.raises(CheckError):
            checks.check_logits(self.single, batched, self.preds)

    def test_rejects_a_swapped_prediction(self):
        preds = self.preds.copy()
        preds[0] = 1 - preds[0]
        with pytest.raises(CheckError):
            checks.check_logits(self.single, self.batched, preds)


def record(approach, subject, acc, repeat=0):
    return RunRecord(approach=approach, subject=subject, repeat=repeat,
                     final_test_acc=acc)


class TestReport:
    @pytest.fixture
    def records(self):
        accs = {"csp-lr": [0.9, 0.8, 0.85], "cspnet1-fix-eegnet":
                [0.7, 0.75, 0.9]}
        return [record(a, f"S{i + 1}", acc) for a, vals in accs.items()
                for i, acc in enumerate(vals)]

    def test_accepts_the_program_report(self, records, tmp_path):
        report = export_report(records, tmp_path, baseline="csp-lr")
        checks.check_report(records, report)
        checks.check_runs_csv(tmp_path / "runs.csv", records)

    def test_rejects_a_wrong_mean(self, records, tmp_path):
        report = export_report(records, tmp_path, baseline="csp-lr")
        report.average_mean["csp-lr"] += 1e-6
        with pytest.raises(CheckError):
            checks.check_report(records, report)

    def test_rejects_a_wrong_p_value(self, records, tmp_path):
        report = export_report(records, tmp_path, baseline="csp-lr")
        report.p_raw["cspnet1-fix-eegnet"] *= 1.01
        with pytest.raises(CheckError):
            checks.check_report(records, report)

    def test_rejects_a_csv_with_swapped_accuracies(self, records, tmp_path):
        export_report(records, tmp_path, baseline="csp-lr")
        swapped = list(records)
        swapped[0], swapped[1] = (
            record("csp-lr", "S1", records[1].final_test_acc),
            record("csp-lr", "S2", records[0].final_test_acc))
        with pytest.raises(CheckError):
            checks.check_runs_csv(tmp_path / "runs.csv", swapped)

    def test_accepts_a_real_cross_subject_report(self, tmp_path):
        epochs = dataset(2, n_subjects=3)
        cfg = TrainConfig(max_epochs=1, batch_size=64)
        records = [r for method in ("csp-lr", "cspnet1-fix")
                   for r in run_cross_subject(
                       epochs, ApproachSpec(method, "shallowcnn", f=4),
                       repeats=1, cfg=cfg)]
        report = export_report(records, tmp_path, baseline="csp-lr")
        checks.check_report(records, report)


class TestRecordsAndFloors:
    def test_identical_records_pass_and_changed_ones_fail(self):
        first = [record("csp-lr", "S1", 0.9), record("backbone-eegnet",
                                                     "S1", 0.7)]
        again = [record("csp-lr", "S1", 0.9), record("backbone-eegnet",
                                                     "S1", 0.7)]
        again[0].wall_time = 5.0  # wall time is not part of a record's result
        checks.check_same_records(first, again)
        again[1] = record("backbone-eegnet", "S1", 0.75)
        with pytest.raises(CheckError):
            checks.check_same_records(first, again)

    def test_accuracy_floor(self):
        checks.check_accuracy_floor("x", 0.9, 0.9)
        with pytest.raises(CheckError):
            checks.check_accuracy_floor("x", 0.49, 0.5)
