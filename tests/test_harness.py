"""Protocol runners: training loop, subject protocols, sweeps, report export."""

import dataclasses

import numpy as np
import pytest

import cspnet.harness as harness
from conftest import epochs_from_arrays, make_epochset, make_separable_epochset
from cspnet.data import SynthSpec, synthesize_dataset
from cspnet.errors import ParameterError, ValidationError, WriteError
from cspnet.harness import (
    ApproachSpec,
    RunRecord,
    TrainConfig,
    build_report,
    evaluate,
    export_report,
    run_cross_subject,
    run_within_subject,
    run_sweep,
    significance_stars,
    train_model,
)
from cspnet.models import BackboneSpec, build_backbone
from cspnet.nn import LayerSpec, ModelGraph
from cspnet.stats import paired_ttest

MINI_NET = dict(n_channels=4, n_samples=64, fs=32, n_classes=2)
FAST = dict(batch_size=16, max_epochs=2, eval_every=1)


def dense_graph(c=2, t=4, k=2, seed=0):
    specs = [LayerSpec("flatten"), LayerSpec("dense", name="out", units=k)]
    return ModelGraph(specs, input_shape=(1, c, t), seed=seed)


def labeled_set(datas, labels, fs=32.0):
    return epochs_from_arrays(np.stack(datas), labels, n_classes=2, fs=fs)


class TestTrainConfig:
    def test_defaults(self):
        cfg = TrainConfig()
        assert cfg.batch_size == 128
        assert cfg.lr == 0.01
        assert cfg.weight_decay == 0.0005
        assert cfg.max_epochs == 200

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(batch_size=0),
            dict(max_epochs=0),
            dict(eval_every=0),
            dict(lr=-0.1),
            dict(weight_decay=-1.0),
            dict(dropout_p=1.0),
        ],
    )
    def test_invalid_fields(self, kwargs):
        with pytest.raises(ParameterError):
            TrainConfig(**kwargs)


class TestRunRecord:
    def test_curve_length_mismatch(self):
        with pytest.raises(ValidationError):
            RunRecord("a", "S1", 0, 0.5, [1, 2], [0.5], [0.5, 0.6])

    def test_accuracy_out_of_range(self):
        with pytest.raises(ValidationError):
            RunRecord("a", "S1", 0, 1.2)
        with pytest.raises(ValidationError):
            RunRecord("a", "S1", 0, 0.5, [1], [0.5], [-0.1])


class TestApproachSpec:
    def test_labels(self):
        assert ApproachSpec("csp-lr").label == "csp-lr"
        assert ApproachSpec("cspnet1-fix", "deepcnn").label == "cspnet1-fix-deepcnn"
        assert ApproachSpec("backbone", "eegnet").label == "backbone-eegnet"

    def test_invalid(self):
        with pytest.raises(ParameterError):
            ApproachSpec("cspnet2-rad")
        with pytest.raises(ParameterError):
            ApproachSpec("backbone", backbone="lstm")
        with pytest.raises(ParameterError):
            ApproachSpec("csp-lr", f=1)


class TestEvaluate:
    def test_constant_predictor_on_balanced_set(self):
        graph = dense_graph()
        graph.parameter("out.weight").value[...] = 0.0
        graph.parameter("out.bias").value[...] = 0.0
        # equal logits everywhere: ties resolve to class 0
        data = [np.ones((2, 4)) * i for i in range(4)]
        epochs = labeled_set(data, [0, 1, 0, 1])
        assert evaluate(graph, epochs) == 0.5

    def test_perfect_oracle(self):
        graph = dense_graph()
        graph.parameter("out.weight").value[...] = np.concatenate(
            [-np.ones((8, 1)), np.ones((8, 1))], axis=1
        )
        graph.parameter("out.bias").value[...] = 0.0
        # class 1 trials positive, class 0 negative: logits split on the sum
        data = [np.full((2, 4), 1.0), np.full((2, 4), -1.0)] * 3
        epochs = labeled_set(data, [1, 0] * 3)
        assert evaluate(graph, epochs) == 1.0

    def test_matches_manual_confusion_count(self):
        from cspnet.nn import model_forward

        graph = dense_graph(seed=3)
        rng = np.random.default_rng(5)
        data = [rng.standard_normal((2, 4)) for _ in range(10)]
        labels = rng.integers(0, 2, size=10)
        epochs = labeled_set(data, labels)
        logits = model_forward(graph, epochs.x[:, None], mode="eval")
        hits = sum(
            int(np.argmax(logits[i]) == labels[i]) for i in range(10)
        )
        assert evaluate(graph, epochs) == hits / 10

    def test_balanced_accuracy_flag(self):
        graph = dense_graph()
        graph.parameter("out.weight").value[...] = 0.0
        graph.parameter("out.bias").value[...] = 0.0
        data = [np.ones((2, 4))] * 4
        epochs = labeled_set(data, [0, 0, 0, 1])  # constant-0 predictor
        assert evaluate(graph, epochs) == 0.75
        assert evaluate(graph, epochs, balanced=True) == 0.5

    def test_empty_set_rejected(self):
        graph = dense_graph()
        epochs = labeled_set([np.ones((2, 4))], [0])
        with pytest.raises(ValidationError):
            evaluate(graph, epochs.subset([]))


def bn_free_graph(c=3, t=16, seed=0):
    specs = [
        LayerSpec("conv2d", name="conv", out_maps=2, kernel=(c, 3), bias=True),
        LayerSpec("elu"),
        LayerSpec("flatten"),
        LayerSpec("dense", name="out", units=2),
    ]
    return ModelGraph(specs, input_shape=(1, c, t), seed=seed)


class TestTrainModel:
    def test_zero_lr_is_identity(self):
        graph = bn_free_graph()
        before = {n: p.value.copy() for n, p in graph.params.items()}
        epochs = make_epochset(n_per_class=4, c=3, t=16)
        untrained_acc = evaluate(graph, epochs)
        cfg = TrainConfig(batch_size=4, lr=0.0, max_epochs=3, seed=1)
        rec = train_model(graph, epochs, epochs, cfg)
        for name, p in graph.params.items():
            np.testing.assert_array_equal(p.value, before[name])
        assert rec.final_test_acc == untrained_acc

    def test_separable_eegnet_reaches_high_train_accuracy(self):
        c, t = 8, 256
        cov0 = np.diag([4.0] * 4 + [1.0] * 4)
        cov1 = np.diag([1.0] * 4 + [4.0] * 4)
        spec = SynthSpec(n_channels=c, n_samples=t, n_classes=2,
                         class_covariances=[cov0, cov1], trials_per_class=20,
                         fs=32.0)
        epochs = synthesize_dataset(spec, 0)
        graph = build_backbone(
            BackboneSpec("eegnet", n_channels=c, n_samples=t, fs=32.0,
                         n_classes=2), seed=0)
        cfg = TrainConfig(batch_size=128, lr=0.01, max_epochs=50, seed=0,
                          eval_every=10)
        rec = train_model(graph, epochs, epochs, cfg)
        assert rec.train_curve[-1] >= 0.95

    def test_same_seed_bitwise_repeatable(self):
        epochs = make_separable_epochset(n_per_class=6, c=4, t=64, seed=2)
        records = []
        for _ in range(2):
            graph = build_backbone(BackboneSpec("eegnet", **MINI_NET), seed=4)
            cfg = TrainConfig(seed=4, **FAST)
            records.append(train_model(graph, epochs, epochs, cfg))
        a, b = records
        assert a.final_test_acc == b.final_test_acc
        assert a.train_curve == b.train_curve
        assert a.test_curve == b.test_curve

    def test_curve_sampling_includes_final_epoch(self):
        epochs = make_epochset(n_per_class=3, c=3, t=16)
        graph = bn_free_graph()
        cfg = TrainConfig(batch_size=4, max_epochs=5, eval_every=2)
        rec = train_model(graph, epochs, epochs, cfg)
        assert rec.curve_epochs == [2, 4, 5]
        assert len(rec.train_curve) == len(rec.test_curve) == 3
        assert rec.final_test_acc == rec.test_curve[-1]

    def test_test_labels_never_reach_training(self):
        train = make_separable_epochset(n_per_class=6, c=4, t=64, seed=3)
        test = make_separable_epochset(n_per_class=4, c=4, t=64, seed=9)
        corrupted = dataclasses.replace(test, y=(test.y + 1) % 2)
        finals = []
        for probe in (test, corrupted):
            graph = build_backbone(BackboneSpec("eegnet", **MINI_NET), seed=7)
            train_model(graph, train, probe, TrainConfig(seed=7, **FAST))
            finals.append({n: p.value.copy() for n, p in graph.params.items()})
        for name in finals[0]:
            np.testing.assert_array_equal(finals[0][name], finals[1][name])

    def test_empty_training_set_rejected(self):
        graph = bn_free_graph()
        epochs = make_epochset(n_per_class=2, c=3, t=16)
        with pytest.raises(ValidationError):
            train_model(graph, epochs.subset([]), epochs, TrainConfig())


class TestWithinSubject:
    def test_record_grid_and_separable_accuracy(self):
        epochs = make_separable_epochset(
            n_per_class=25, c=4, t=64, seed=1, n_subjects=3, contrast=6.0
        )
        records = run_within_subject(
            epochs, ApproachSpec("csp-lr", f=4), repeats=2, base_seed=0
        )
        assert len(records) == 6
        assert sorted({r.subject for r in records}) == ["S1", "S2", "S3"]
        assert sorted({r.repeat for r in records}) == [0, 1]
        assert all(r.approach == "csp-lr" for r in records)
        assert np.mean([r.final_test_acc for r in records]) >= 0.95

    def test_deterministic_across_calls(self):
        epochs = make_separable_epochset(n_per_class=10, c=4, t=48, seed=5)
        a = run_within_subject(epochs, ApproachSpec("csp-lr", f=4), repeats=3,
                               base_seed=2)
        b = run_within_subject(epochs, ApproachSpec("csp-lr", f=4), repeats=3,
                               base_seed=2)
        assert [r.final_test_acc for r in a] == [r.final_test_acc for r in b]

    def test_network_approach_produces_curves(self):
        epochs = make_separable_epochset(n_per_class=8, c=4, t=64, seed=4)
        cfg = TrainConfig(seed=0, **FAST)
        records = run_within_subject(
            epochs, ApproachSpec("backbone", "eegnet"), repeats=1,
            base_seed=0, cfg=cfg
        )
        assert len(records) == 1
        rec = records[0]
        assert rec.approach == "backbone-eegnet"
        assert rec.curve_epochs == [1, 2]

    def test_csp_designed_on_training_split_only(self, monkeypatch):
        seen = []
        real = harness.design_csp

        def spy(train, f, ridge):
            seen.append(train)
            return real(train, f, ridge)

        monkeypatch.setattr(harness, "design_csp", spy)
        epochs = make_separable_epochset(n_per_class=10, c=4, t=64, seed=6)
        cfg = TrainConfig(seed=0, **FAST)
        run_within_subject(epochs, ApproachSpec("cspnet1-fix", "eegnet", f=4),
                           repeats=2, base_seed=0, cfg=cfg)
        assert len(seen) == 2
        for fitted in seen:
            # 80% of 10 per class
            assert fitted.n_trials == 16


class TestCrossSubject:
    def test_two_subject_folds(self):
        epochs = make_separable_epochset(
            n_per_class=10, c=4, t=48, seed=3, n_subjects=2, contrast=6.0
        )
        records = run_cross_subject(
            epochs, ApproachSpec("csp-lr", f=4), repeats=2, base_seed=0
        )
        assert len(records) == 4
        assert sorted({r.subject for r in records}) == ["S1", "S2"]

    def test_nine_subject_protocol_count(self):
        epochs = make_epochset(n_per_class=3, c=3, t=32, n_subjects=9)
        records = run_cross_subject(
            epochs, ApproachSpec("csp-lr", f=2), repeats=5, base_seed=0
        )
        assert len(records) == 45

    def test_single_subject_rejected(self):
        epochs = make_epochset(n_per_class=3, c=3, t=32, n_subjects=1)
        with pytest.raises(ParameterError):
            run_cross_subject(epochs, ApproachSpec("csp-lr", f=2))

    def test_held_out_subject_absent_from_fit(self, monkeypatch):
        seen = []
        real = harness.train_csp_lr

        def spy(train, f, ridge, seed):
            seen.append((train, set(train.subjects())))
            return real(train, f, ridge, seed)

        monkeypatch.setattr(harness, "train_csp_lr", spy)
        epochs = make_separable_epochset(
            n_per_class=6, c=4, t=48, seed=3, n_subjects=2
        )
        records = run_cross_subject(epochs, ApproachSpec("csp-lr", f=4),
                                    repeats=1, base_seed=0)
        held_out = [r.subject for r in records]
        assert len(seen) == 2
        for (train, subjects), held in zip(seen, held_out):
            assert held not in subjects
            assert len(subjects) == 1


class TestSweepTrainingRatio:
    def test_full_ratio_matches_plain_protocol(self):
        epochs = make_separable_epochset(n_per_class=10, c=4, t=48, seed=7)
        approach = ApproachSpec("csp-lr", f=4)
        cells = run_sweep(epochs, approach, "ratio", (0.5, 1.0), repeats=2,
                          base_seed=1)
        assert set(cells) == {0.5, 1.0}
        assert all(cell.status == "ok" for cell in cells.values())
        plain = run_within_subject(epochs, approach, repeats=2, base_seed=1)
        swept = cells[1.0].records
        assert [r.final_test_acc for r in swept] == [
            r.final_test_acc for r in plain
        ]
        assert [(r.subject, r.repeat) for r in swept] == [
            (r.subject, r.repeat) for r in plain
        ]

    def test_smallest_ratio_keeps_one_trial_per_class(self, monkeypatch):
        sizes = []
        real = harness.train_csp_lr

        def spy(train, f, ridge, seed):
            sizes.append(train.n_trials)
            return real(train, f, ridge, seed)

        monkeypatch.setattr(harness, "train_csp_lr", spy)
        # 13 per class -> floor(0.8 * 13) = 10 per class in the split,
        # ratio 0.1 -> ceil(1) = 1 per class = 2 trials
        epochs = make_separable_epochset(n_per_class=13, c=4, t=48, seed=8)
        run_sweep(epochs, ApproachSpec("csp-lr", f=4), "ratio", (0.1,),
                  repeats=1, base_seed=0)
        assert sizes == [2]

    def test_invalid_ratio_rejected(self):
        epochs = make_separable_epochset(n_per_class=5, c=4, t=48, seed=0)
        with pytest.raises(ParameterError):
            run_sweep(epochs, ApproachSpec("csp-lr", f=4), "ratio", (1.5,),
                      repeats=1)

    def test_degenerate_cell_recorded_as_failed(self):
        epochs = epochs_from_arrays(np.ones((12, 3, 32)), np.arange(12) % 2,
                                    fs=32.0)
        cells = run_sweep(
            epochs, ApproachSpec("csp-lr", f=2, ridge=0.0), "ratio", (0.5,),
            repeats=1
        )
        cell = cells[0.5]
        assert cell.status == "failed"
        assert cell.records == []
        assert "NumericalError" in cell.reason


class TestSweepFilterCount:
    def test_valid_and_skipped_cells(self):
        epochs = make_separable_epochset(n_per_class=10, c=8, t=48, seed=9)
        cells = run_sweep(epochs, ApproachSpec("csp-lr"), "f", (4, 8, 22),
                          repeats=1, base_seed=0)
        assert cells[4].status == "ok"
        assert cells[8].status == "ok"
        assert len(cells[4].records) == 1
        assert cells[22].status == "skipped"
        assert "exceeds 8 channels" in cells[22].reason

    def test_odd_filter_count_skipped_for_binary(self):
        epochs = make_separable_epochset(n_per_class=6, c=8, t=48, seed=2)
        cells = run_sweep(epochs, ApproachSpec("csp-lr"), "f", (5,),
                          repeats=1)
        assert cells[5].status == "skipped"
        assert "even" in cells[5].reason

    def test_multiclass_divisibility_skip(self):
        epochs = make_epochset(n_per_class=4, c=6, t=32, n_classes=3)
        cells = run_sweep(epochs, ApproachSpec("csp-lr"), "f", (4, 6),
                          repeats=1)
        assert cells[4].status == "skipped"
        assert "divisible" in cells[4].reason
        assert cells[6].status == "ok"

    def test_replacement_kernel_budget_skip(self):
        epochs = make_epochset(n_per_class=3, c=16, t=32)
        cells = run_sweep(
            epochs, ApproachSpec("cspnet2-fix", "eegnet"), "f", (12, 16),
            repeats=1
        )
        assert cells[12].status == "skipped"
        assert "spatial kernels" in cells[12].reason
        assert cells[16].status == "skipped"


def record(approach, subject, repeat, acc, curves=False):
    kwargs = {}
    if curves:
        kwargs = dict(curve_epochs=[1, 2], train_curve=[0.5, 0.75],
                      test_curve=[0.5, acc])
    return RunRecord(approach, subject, repeat, acc, **kwargs)


def example_records():
    recs = []
    for subject, accs in [("S1", [0.8, 0.9]), ("S2", [0.6, 0.7])]:
        for i, acc in enumerate(accs):
            recs.append(record("backbone-eegnet", subject, i, acc))
    for subject, accs in [("S1", [0.9, 1.0]), ("S2", [0.7, 0.9])]:
        for i, acc in enumerate(accs):
            recs.append(record("cspnet1-fix-eegnet", subject, i, acc, curves=True))
    return recs


class TestReports:
    def test_cell_and_average_aggregates(self):
        report = build_report(example_records())
        assert report.approaches == ["backbone-eegnet", "cspnet1-fix-eegnet"]
        assert report.subjects == ["S1", "S2"]
        assert report.cell_mean[("backbone-eegnet", "S1")] == pytest.approx(0.85)
        assert report.cell_std[("backbone-eegnet", "S1")] == pytest.approx(0.05)
        assert report.average_mean["backbone-eegnet"] == pytest.approx(0.75)
        assert report.average_mean["cspnet1-fix-eegnet"] == pytest.approx(0.875)

    def test_baseline_statistics_wiring(self):
        report = build_report(example_records())
        assert report.baseline == "backbone-eegnet"
        t, p = paired_ttest(
            [report.cell_mean[("cspnet1-fix-eegnet", s)] for s in ["S1", "S2"]],
            [report.cell_mean[("backbone-eegnet", s)] for s in ["S1", "S2"]],
        )
        assert report.t_stat["cspnet1-fix-eegnet"] == t
        assert report.p_raw["cspnet1-fix-eegnet"] == p
        # single comparison: BH leaves the p-value unchanged
        assert report.p_adj["cspnet1-fix-eegnet"] == p
        assert report.p_adj["cspnet1-fix-eegnet"] >= report.p_raw[
            "cspnet1-fix-eegnet"
        ]

    def test_ambiguous_baseline_disables_stats(self):
        recs = [record("backbone-eegnet", "S1", 0, 0.5),
                record("backbone-deepcnn", "S1", 0, 0.6)]
        report = build_report(recs)
        assert report.baseline is None
        assert report.t_stat == {}

    def test_unknown_baseline_rejected(self):
        with pytest.raises(ParameterError):
            build_report(example_records(), baseline="csp-lr")

    def test_incomplete_grid_rejected(self):
        recs = example_records()[:-2]  # drop cspnet1 S2 records
        with pytest.raises(ParameterError):
            build_report(recs)

    def test_empty_records_rejected(self):
        with pytest.raises(ParameterError):
            build_report([])
        with pytest.raises(ParameterError):
            export_report([], "unused")

    def test_stars(self):
        assert significance_stars(0.0005) == "***"
        assert significance_stars(0.005) == "**"
        assert significance_stars(0.03) == "*"
        assert significance_stars(0.05) == ""
        assert significance_stars(0.2) == ""

    def test_export_layout_and_mean_consistency(self, tmp_path):
        records = example_records()
        report = export_report(records, tmp_path)
        runs = (tmp_path / "runs.csv").read_text().strip().splitlines()
        assert runs[0] == "approach,subject,repeat,accuracy"
        assert len(runs) == 1 + len(records)
        summary = (tmp_path / "summary.csv").read_text().strip().splitlines()
        assert len(summary) == 3
        header = summary[0].split(",")
        assert header == ["approach", "S1", "S2", "average", "t_stat",
                          "p_raw", "p_adj", "significance"]
        # the report's means equal the per-repeat means from runs.csv
        per_cell = {}
        for line in runs[1:]:
            approach, subject, _, acc = line.split(",")
            per_cell.setdefault((approach, subject), []).append(float(acc))
        for key, accs in per_cell.items():
            assert abs(report.cell_mean[key] - np.mean(accs)) <= 1e-12
        # formatted summary cells round those means to 4 decimals
        for line in summary[1:]:
            fields = line.split(",")
            for subject, cell in zip(["S1", "S2"], fields[1:3]):
                mean = float(cell.split("±")[0])
                assert mean == round(report.cell_mean[(fields[0], subject)], 4)

    def test_export_curves_only_for_curved_records(self, tmp_path):
        records = example_records()
        export_report(records, tmp_path)
        curve_dir = tmp_path / "curves"
        files = sorted(p.name for p in curve_dir.iterdir())
        assert files == [
            "cspnet1-fix-eegnet_S1_r0.csv",
            "cspnet1-fix-eegnet_S1_r1.csv",
            "cspnet1-fix-eegnet_S2_r0.csv",
            "cspnet1-fix-eegnet_S2_r1.csv",
        ]
        lines = (curve_dir / files[0]).read_text().strip().splitlines()
        assert lines[0] == "epoch,train_acc,test_acc"
        assert lines[1] == "1,0.5,0.5"
        assert lines[2] == "2,0.75,0.90000000000000002"

    def test_export_byte_deterministic(self, tmp_path):
        records = example_records()
        export_report(records, tmp_path / "a")
        export_report(records, tmp_path / "b")
        for name in ["runs.csv", "summary.csv",
                     "curves/cspnet1-fix-eegnet_S1_r0.csv"]:
            assert (tmp_path / "a" / name).read_bytes() == (
                tmp_path / "b" / name
            ).read_bytes()

    def test_export_write_failure(self, tmp_path):
        blocker = tmp_path / "occupied"
        blocker.write_text("x")
        with pytest.raises(WriteError):
            export_report(example_records(), blocker / "sub")
