"""Dataset loading, synthesis, filtering and splitting."""

import json
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.signal import butter, filtfilt

from conftest import epochs_from_arrays, make_epochset, retag
from cspnet.data import (
    BUTTER_ORDER,
    FILTFILT_PADLEN,
    EpochSet,
    SynthSpec,
    bandpass_filter,
    by_subject,
    default_class_covariances,
    load_csv_trials,
    load_epochset,
    save_epochset,
    split_loso,
    split_within_subject,
    subsample_training,
    synthesize_dataset,
)
from cspnet.errors import (
    CorruptionError,
    FormatError,
    ParameterError,
    ValidationError,
    WriteError,
)


def sine_epochs(freq_hz, fs=250.0, t=1000, c=2):
    ts = np.arange(t) / fs
    x = np.tile(np.sin(2 * np.pi * freq_hz * ts), (c, 1))
    return epochs_from_arrays(x[None], [0], fs=fs)


def marked_epochs(subject_ids, n_classes=2):
    """Set whose trial i holds the constant i, so order shows in the data."""
    n = len(subject_ids)
    return EpochSet(
        x=np.broadcast_to(np.arange(n, dtype=np.float64)[:, None, None],
                          (n, 2, 4)),
        y=np.arange(n) % n_classes,
        subject_ids=subject_ids,
        fs=128.0,
        channel_names=["a", "b"],
        class_names=[f"k{j}" for j in range(n_classes)],
    )


def markers(epochs):
    return epochs.x[:, 0, 0].astype(int).tolist()


def fft_amplitude(signal, fs, freq_hz):
    # steady-state middle half, away from filter edge transients
    n = signal.size
    seg = signal[n // 4 : 3 * n // 4]
    spectrum = np.abs(np.fft.rfft(seg)) / seg.size * 2
    freqs = np.fft.rfftfreq(seg.size, d=1 / fs)
    return spectrum[np.argmin(np.abs(freqs - freq_hz))]


class TestEpochSetValidation:
    def test_inconsistent_trial_shape_rejected(self, tmp_path):
        # trials of different widths cannot share one array
        (tmp_path / "t0.csv").write_text("1.0,2.0,3.0\n4.0,5.0,6.0\n")
        (tmp_path / "t1.csv").write_text("1.0,2.0\n3.0,4.0\n")
        with pytest.raises(ValidationError):
            load_csv_trials([tmp_path / "t0.csv", tmp_path / "t1.csv"],
                            labels=[0, 0], fs=100.0, class_names=["x"])

    def test_label_out_of_range_rejected(self):
        for label in (2, -1):
            with pytest.raises(ValidationError):
                EpochSet(np.zeros((1, 2, 8)), [label], ["S1"], 128.0,
                         ["a", "b"], ["x", "y"])

    def test_nonpositive_fs_rejected(self):
        with pytest.raises(ValidationError):
            EpochSet(np.zeros((1, 2, 8)), [0], ["S1"], 0.0, ["a", "b"], ["x"])

    def test_single_channel_rejected(self):
        with pytest.raises(ValidationError):
            EpochSet(np.zeros((1, 1, 8)), [0], ["S1"], 128.0, ["a"], ["x"])

    def test_empty_trials_rejected(self):
        with pytest.raises(ValidationError):
            EpochSet(np.zeros((0, 2, 8)), [], [], 128.0, ["a", "b"], ["x"])

    def test_non_3d_trials_rejected(self):
        for x in (np.zeros((2, 8)), np.zeros((1, 1, 2, 8))):
            with pytest.raises(ValidationError):
                EpochSet(x, [0], ["S1"], 128.0, ["a", "b"], ["x"])

    def test_label_count_mismatch_rejected(self):
        for labels in ([0], [0, 0, 0]):
            with pytest.raises(ValidationError):
                EpochSet(np.zeros((2, 2, 8)), labels, ["S1", "S1"], 128.0,
                         ["a", "b"], ["x"])

    def test_subject_count_mismatch_rejected(self):
        with pytest.raises(ValidationError):
            EpochSet(np.zeros((2, 2, 8)), [0, 0], ["S1"], 128.0, ["a", "b"],
                     ["x"])

    def test_trial_views_are_read_only(self, small_epochs):
        view = small_epochs.trials[1]
        np.testing.assert_array_equal(view.data, small_epochs.x[1])
        assert (view.label, view.subject) == (small_epochs.y[1], "S1")
        assert small_epochs.trials is small_epochs.trials  # built once
        with pytest.raises(ValueError):
            view.data[0, 0] = 1.0

    def test_pickle_leaves_out_the_cached_views(self):
        unread = make_epochset(n_per_class=20, c=8, t=64)
        read = make_epochset(n_per_class=20, c=8, t=64)
        assert len(read.trials) == read.n_trials
        blob = pickle.dumps(read)
        assert len(blob) == len(pickle.dumps(unread))
        restored = pickle.loads(blob)
        np.testing.assert_array_equal(restored.x, read.x)
        view = restored.trials[0].data
        assert not view.flags.writeable
        assert np.shares_memory(view, restored.x)


class TestSubset:
    def test_selects_in_index_order(self):
        epochs = marked_epochs(["S1"] * 5)
        sub = epochs.subset([3, 0, 4])
        assert markers(sub) == [3, 0, 4]
        assert sub.labels().tolist() == [1, 0, 0]

    @pytest.mark.parametrize("bad", [5, -1, 99])
    def test_out_of_range_index_rejected(self, bad):
        with pytest.raises(ParameterError):
            marked_epochs(["S1"] * 5).subset([0, bad])


class TestDiskRoundTrip:
    def test_round_trip_exact(self, tmp_path, small_epochs):
        save_epochset(small_epochs, tmp_path / "ds")
        back = load_epochset(tmp_path / "ds")
        assert back.fs == small_epochs.fs
        assert back.channel_names == small_epochs.channel_names
        assert back.class_names == small_epochs.class_names
        np.testing.assert_array_equal(back.x, small_epochs.x)
        np.testing.assert_array_equal(back.y, small_epochs.y)
        np.testing.assert_array_equal(back.subject_ids,
                                      small_epochs.subject_ids)

    @settings(max_examples=25, deadline=None)
    @given(
        n_per_class=st.integers(1, 4),
        c=st.integers(2, 5),
        t=st.integers(2, 9),
        n_classes=st.integers(1, 3),
        n_subjects=st.integers(1, 3),
        seed=st.integers(0, 2**16),
    )
    def test_round_trip_property(
        self, tmp_path_factory, n_per_class, c, t, n_classes, n_subjects, seed
    ):
        epochs = make_epochset(n_per_class, c, t, n_classes, seed, n_subjects)
        path = tmp_path_factory.mktemp("rt") / "ds"
        save_epochset(epochs, path)
        back = load_epochset(path)
        assert back.labels().tolist() == epochs.labels().tolist()
        assert back.subject_ids.tolist() == epochs.subject_ids.tolist()
        np.testing.assert_array_equal(back.x, epochs.x)

    def test_payload_size_mismatch_is_corruption(self, tmp_path, small_epochs):
        save_epochset(small_epochs, tmp_path / "ds")
        manifest = json.loads((tmp_path / "ds" / "manifest.json").read_text())
        fname = manifest["subjects"][0]["file"]
        payload = (tmp_path / "ds" / fname).read_bytes()
        (tmp_path / "ds" / fname).write_bytes(payload[:-4])
        with pytest.raises(CorruptionError):
            load_epochset(tmp_path / "ds")

    def test_non_finite_payload_is_corruption(self, tmp_path, small_epochs):
        save_epochset(small_epochs, tmp_path / "ds")
        manifest = json.loads((tmp_path / "ds" / "manifest.json").read_text())
        fname = manifest["subjects"][0]["file"]
        payload = bytearray((tmp_path / "ds" / fname).read_bytes())
        payload[8:12] = np.float32(np.nan).astype("<f4").tobytes()
        (tmp_path / "ds" / fname).write_bytes(bytes(payload))
        with pytest.raises(CorruptionError, match=fname):
            load_epochset(tmp_path / "ds")

    def test_missing_manifest_is_format_error(self, tmp_path):
        (tmp_path / "ds").mkdir()
        with pytest.raises(FormatError):
            load_epochset(tmp_path / "ds")

    def test_missing_manifest_field_is_format_error(self, tmp_path, small_epochs):
        save_epochset(small_epochs, tmp_path / "ds")
        mpath = tmp_path / "ds" / "manifest.json"
        manifest = json.loads(mpath.read_text())
        del manifest["n_samples"]
        mpath.write_text(json.dumps(manifest))
        with pytest.raises(FormatError):
            load_epochset(tmp_path / "ds")

    def test_unknown_label_is_validation_error(self, tmp_path, small_epochs):
        save_epochset(small_epochs, tmp_path / "ds")
        mpath = tmp_path / "ds" / "manifest.json"
        manifest = json.loads(mpath.read_text())
        manifest["subjects"][0]["labels"][0] = 99
        mpath.write_text(json.dumps(manifest))
        with pytest.raises(ValidationError):
            load_epochset(tmp_path / "ds")

    def test_empty_subject_list_is_validation_error(self, tmp_path, small_epochs):
        save_epochset(small_epochs, tmp_path / "ds")
        mpath = tmp_path / "ds" / "manifest.json"
        manifest = json.loads(mpath.read_text())
        manifest["subjects"] = []
        mpath.write_text(json.dumps(manifest))
        with pytest.raises(ValidationError):
            load_epochset(tmp_path / "ds")

    def test_nan_sample_rejected_on_save(self, tmp_path, small_epochs):
        small_epochs.x[0, 0, 0] = np.nan
        with pytest.raises(ValidationError):
            save_epochset(small_epochs, tmp_path / "ds")

    def test_sample_beyond_float32_rejected_before_any_write(
        self, tmp_path, small_epochs
    ):
        # finite in float64, but the stored float32 would be inf
        small_epochs.x[3, 1, 2] = 1e39
        with pytest.raises(ValidationError, match="trial 3"):
            save_epochset(small_epochs, tmp_path / "ds")
        assert not (tmp_path / "ds").exists()

    def test_unwritable_location_is_write_error(self, tmp_path, small_epochs):
        blocker = tmp_path / "blocker"
        blocker.write_text("not a directory")
        with pytest.raises(WriteError):
            save_epochset(small_epochs, blocker / "ds")


class TestCsvImport:
    def test_two_trials(self, tmp_path):
        (tmp_path / "t0.csv").write_text("1.0,2.0,3.0\n4.0,5.0,6.0\n")
        (tmp_path / "t1.csv").write_text("0.5,0.5,0.5\n-1.0,0.0,1.0\n")
        epochs = load_csv_trials(
            [tmp_path / "t0.csv", tmp_path / "t1.csv"],
            labels=[0, 1],
            fs=100.0,
            class_names=["left", "right"],
        )
        assert epochs.n_channels == 2
        assert epochs.n_samples == 3
        np.testing.assert_array_equal(
            epochs.x[0], [[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]]
        )
        assert epochs.labels().tolist() == [0, 1]


class TestBandpass:
    def test_passband_tone_preserved(self):
        epochs = sine_epochs(20.0)
        out = bandpass_filter(epochs, 8.0, 32.0)
        a_in = fft_amplitude(epochs.x[0, 0], epochs.fs, 20.0)
        a_out = fft_amplitude(out.x[0, 0], epochs.fs, 20.0)
        assert 0.9 * a_in <= a_out <= 1.1 * a_in

    def test_stopband_tone_attenuated_20db(self):
        epochs = sine_epochs(1.0)
        out = bandpass_filter(epochs, 8.0, 32.0)
        a_in = fft_amplitude(epochs.x[0, 0], epochs.fs, 1.0)
        a_out = fft_amplitude(out.x[0, 0], epochs.fs, 1.0)
        assert a_out <= a_in * 10 ** (-20 / 20)

    def test_zero_in_zero_out(self):
        epochs = epochs_from_arrays(np.zeros((1, 2, 1000)), [0], fs=250.0)
        out = bandpass_filter(epochs, 8.0, 32.0)
        np.testing.assert_array_equal(out.x, 0.0)

    def test_input_untouched(self):
        epochs = sine_epochs(20.0)
        before = epochs.x.copy()
        bandpass_filter(epochs, 8.0, 32.0)
        np.testing.assert_array_equal(epochs.x, before)

    def test_matches_per_trial_filtfilt(self):
        # the stacked call must equal filtering each trial on its own
        epochs = make_epochset(n_per_class=3, c=3, t=64, n_subjects=2)
        out = bandpass_filter(epochs, 8.0, 32.0)
        b, a = butter(BUTTER_ORDER, [8.0 / 64.0, 32.0 / 64.0], btype="band")
        for trial, got in zip(epochs.x, out.x):
            want = filtfilt(b, a, trial, axis=1, padtype="odd",
                            padlen=FILTFILT_PADLEN)
            np.testing.assert_array_equal(got, want)
        np.testing.assert_array_equal(out.y, epochs.y)
        np.testing.assert_array_equal(out.subject_ids, epochs.subject_ids)

    def test_band_outside_nyquist_rejected(self):
        epochs = sine_epochs(20.0, fs=60.0)
        with pytest.raises(ParameterError):
            bandpass_filter(epochs, 8.0, 32.0)
        with pytest.raises(ParameterError):
            bandpass_filter(epochs, 32.0, 8.0)

    @settings(max_examples=20, deadline=None)
    @given(
        a=st.floats(-3, 3, allow_nan=False),
        b=st.floats(-3, 3, allow_nan=False),
        seed=st.integers(0, 2**16),
    )
    def test_linearity(self, a, b, seed):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((2, 40))
        y = rng.standard_normal((2, 40))

        def filt(data):
            epochs = epochs_from_arrays(data[None], [0])
            return bandpass_filter(epochs, 8.0, 32.0).x[0]

        lhs = filt(a * x + b * y)
        rhs = a * filt(x) + b * filt(y)
        np.testing.assert_allclose(lhs, rhs, rtol=1e-9, atol=1e-9)


class TestSynthesize:
    def test_empirical_covariance_matches_target(self):
        covs = [np.diag([4.0, 1.0]), np.diag([1.0, 4.0])]
        spec = SynthSpec(
            n_channels=2,
            n_samples=64,
            n_classes=2,
            class_covariances=covs,
            trials_per_class=500,
        )
        epochs = synthesize_dataset(spec, seed=7)
        for k, target in enumerate(covs):
            xs = epochs.x[epochs.class_indices(k)]
            emp = np.mean(xs @ xs.transpose(0, 2, 1), axis=0) / xs.shape[2]
            rel = np.linalg.norm(emp - target) / np.linalg.norm(target)
            assert rel < 0.10

    def test_deterministic_for_fixed_seed(self):
        spec = SynthSpec(
            n_channels=3,
            n_samples=16,
            n_classes=2,
            class_covariances=default_class_covariances(3, 2),
            trials_per_class=4,
            noise_scale=0.5,
            n_subjects=2,
        )
        e1 = synthesize_dataset(spec, seed=11)
        e2 = synthesize_dataset(spec, seed=11)
        np.testing.assert_array_equal(e1.x, e2.x)
        assert e1.labels().tolist() == [0] * 4 + [1] * 4 + [0] * 4 + [1] * 4
        assert e1.subject_ids.tolist() == ["S1"] * 8 + ["S2"] * 8

    def test_different_seeds_differ(self):
        spec = SynthSpec(
            n_channels=2,
            n_samples=16,
            n_classes=1,
            class_covariances=[np.eye(2)],
            trials_per_class=1,
        )
        e1 = synthesize_dataset(spec, seed=1)
        e2 = synthesize_dataset(spec, seed=2)
        assert not np.array_equal(e1.x, e2.x)

    def test_negative_noise_rejected(self):
        with pytest.raises(ParameterError):
            SynthSpec(
                n_channels=2,
                n_samples=16,
                n_classes=1,
                class_covariances=[np.eye(2)],
                trials_per_class=1,
                noise_scale=-0.1,
            )

    def test_non_spd_covariance_rejected(self):
        with pytest.raises(ParameterError):
            SynthSpec(
                n_channels=2,
                n_samples=16,
                n_classes=1,
                class_covariances=[np.diag([1.0, 0.0])],
                trials_per_class=1,
            )

    def test_values_are_float32_representable(self):
        spec = SynthSpec(
            n_channels=2,
            n_samples=8,
            n_classes=1,
            class_covariances=[np.eye(2)],
            trials_per_class=2,
        )
        epochs = synthesize_dataset(spec, seed=3)
        np.testing.assert_array_equal(
            epochs.x, epochs.x.astype(np.float32).astype(np.float64)
        )

    @pytest.mark.parametrize("noise, contrast", [(1e300, 3.0), (0.0, 1e300)],
                             ids=["noise", "contrast"])
    def test_draw_beyond_float32_rejected(self, noise, contrast):
        spec = SynthSpec(
            n_channels=2,
            n_samples=8,
            n_classes=2,
            class_covariances=default_class_covariances(2, 2, contrast),
            trials_per_class=2,
            noise_scale=noise,
        )
        with pytest.raises(ParameterError, match="float32"):
            synthesize_dataset(spec, seed=3)


class TestWithinSubjectSplit:
    def test_paper_144_trial_counts(self):
        epochs = make_epochset(n_per_class=72, c=2, t=4, n_classes=2)
        plan = split_within_subject(epochs, 0.8, seed=0)
        assert len(plan.train_indices) == 114
        assert len(plan.test_indices) == 30
        labels = epochs.labels()
        train_labels = labels[plan.train_indices]
        assert (train_labels == 0).sum() == 57
        assert (train_labels == 1).sum() == 57

    def test_half_split_of_four(self):
        epochs = make_epochset(n_per_class=2, c=2, t=4, n_classes=2)
        plan = split_within_subject(epochs, 0.5, seed=0)
        labels = epochs.labels()
        assert sorted(labels[plan.train_indices].tolist()) == [0, 1]
        assert sorted(labels[plan.test_indices].tolist()) == [0, 1]

    def test_seeds_change_selection_not_counts(self):
        epochs = make_epochset(n_per_class=20, c=2, t=4, n_classes=2)
        p1 = split_within_subject(epochs, 0.8, seed=1)
        p2 = split_within_subject(epochs, 0.8, seed=2)
        assert len(p1.train_indices) == len(p2.train_indices)
        assert p1.train_indices != p2.train_indices

    def test_small_class_rejected(self):
        epochs = epochs_from_arrays(np.zeros((3, 2, 4)), [0, 0, 1])
        with pytest.raises(ValidationError):
            split_within_subject(epochs, 0.8, seed=0)

    def test_bad_ratio_rejected(self, small_epochs):
        with pytest.raises(ParameterError):
            split_within_subject(small_epochs, 0.0, seed=0)
        with pytest.raises(ParameterError):
            split_within_subject(small_epochs, 1.0, seed=0)

    @settings(max_examples=40, deadline=None)
    @given(
        n_per_class=st.integers(2, 30),
        n_classes=st.integers(1, 4),
        ratio=st.floats(0.05, 0.95),
        seed=st.integers(0, 2**16),
    )
    def test_partition_and_stratification(self, n_per_class, n_classes, ratio, seed):
        epochs = make_epochset(n_per_class, c=2, t=4, n_classes=n_classes)
        try:
            plan = split_within_subject(epochs, ratio, seed)
        except ValidationError:
            return  # ratio left no test trials; legitimately rejected
        n = epochs.n_trials
        assert sorted(plan.train_indices + plan.test_indices) == list(range(n))
        assert not set(plan.train_indices) & set(plan.test_indices)
        labels = epochs.labels()
        for k in range(n_classes):
            n_k = int((labels == k).sum())
            expected = max(1, int(np.floor(ratio * n_k + 1e-9)))
            got = int((labels[plan.train_indices] == k).sum())
            assert got == expected


class TestLoso:
    def test_nine_subjects_hold_out_first(self):
        sets = [
            retag(make_epochset(n_per_class=3, c=2, t=4, seed=s), f"S{s + 1}")
            for s in range(9)
        ]
        train, test = split_loso(sets, "S1")
        assert test.subjects() == ["S1"]
        assert train.subjects() == [f"S{s + 1}" for s in range(1, 9)]
        assert train.n_trials == 8 * 6
        assert test.n_trials == 6

    def test_two_subjects(self):
        sets = [
            retag(make_epochset(n_per_class=2, c=2, t=4, seed=s), f"S{s + 1}")
            for s in range(2)
        ]
        train, test = split_loso(sets, "S2")
        assert train.subjects() == ["S1"]

    def test_keeps_manifest_and_trial_order(self):
        epochs = marked_epochs(["S3", "S1", "S3", "S2", "S1", "S2", "S3"],
                               n_classes=3)
        groups = by_subject(epochs)
        train, test = split_loso(groups, "S1")
        assert markers(test) == [1, 4]
        assert train.subjects() == ["S3", "S2"]
        assert markers(train) == [0, 2, 6, 3, 5]
        assert train.labels().tolist() == [0, 2, 0, 0, 2]

    def test_metadata_mismatch_rejected(self):
        a = make_epochset(c=2, t=4)
        b = retag(make_epochset(c=3, t=4), "S2")
        with pytest.raises(ValidationError):
            split_loso([a, b], "S1")

    def test_unknown_subject_rejected(self):
        sets = [make_epochset(seed=0), retag(make_epochset(seed=1), "S2")]
        with pytest.raises(ParameterError):
            split_loso(sets, "S99")


class TestSubsample:
    def test_identity_at_full_ratio(self, small_epochs):
        assert subsample_training(small_epochs, 1.0, seed=0) is small_epochs

    def test_ten_percent_of_hundred(self):
        epochs = make_epochset(n_per_class=50, c=2, t=4, n_classes=2)
        sub = subsample_training(epochs, 0.1, seed=0)
        labels = sub.labels()
        assert sub.n_trials == 10
        assert (labels == 0).sum() == 5
        assert (labels == 1).sum() == 5

    def test_deterministic(self, small_epochs):
        s1 = subsample_training(small_epochs, 0.5, seed=9)
        s2 = subsample_training(small_epochs, 0.5, seed=9)
        np.testing.assert_array_equal(s1.x, s2.x)
        np.testing.assert_array_equal(s1.y, s2.y)

    def test_keeps_trial_order(self):
        epochs = marked_epochs(["S1"] * 20, n_classes=2)
        sub = subsample_training(epochs, 0.5, seed=4)
        kept = markers(sub)
        assert len(kept) == 10 and kept == sorted(kept)
        assert sub.labels().tolist() == [i % 2 for i in kept]

    def test_bad_ratio_rejected(self, small_epochs):
        with pytest.raises(ParameterError):
            subsample_training(small_epochs, 0.0, seed=0)
        with pytest.raises(ParameterError):
            subsample_training(small_epochs, 1.5, seed=0)


class TestBySubject:
    def test_partition(self):
        epochs = make_epochset(n_per_class=2, n_subjects=3)
        parts = by_subject(epochs)
        assert [p.subjects() for p in parts] == [["S1"], ["S2"], ["S3"]]
        assert sum(p.n_trials for p in parts) == epochs.n_trials

    def test_keeps_manifest_and_trial_order(self):
        epochs = marked_epochs(["S2", "S1", "S2", "S3", "S1", "S2"])
        parts = by_subject(epochs)
        assert [p.subjects() for p in parts] == [["S2"], ["S1"], ["S3"]]
        assert [markers(p) for p in parts] == [[0, 2, 5], [1, 4], [3]]
        assert [p.labels().tolist() for p in parts] == [[0, 0, 1], [1, 0],
                                                        [1]]
