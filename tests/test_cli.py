"""Command-line front end: exit codes, outputs, determinism."""

import argparse

import numpy as np
import pytest

from cspnet import cli
from cspnet.cli import (
    EXIT_OK,
    EXIT_RUNTIME,
    EXIT_USAGE,
    UsageError,
    main,
    merge_options,
    read_config_file,
)
from cspnet.csp import load_csp
from cspnet.data import load_epochset
from cspnet.harness import SweepCell
from cspnet.nn import layers as nn_layers


def run_cli(*argv):
    return main([str(a) for a in argv])


def synth_dir(tmp_path, name="data", channels=6, classes=2, trials=16,
              samples=32, subjects=1):
    out = tmp_path / name
    code = run_cli(
        "synth", "--channels", channels, "--classes", classes,
        "--trials", trials, "--samples", samples, "--subjects", subjects,
        "--fs", 32.0, "--seed", 0, "--out", out,
    )
    assert code == EXIT_OK
    return out


def tree_bytes(root):
    return {
        p.relative_to(root).as_posix(): p.read_bytes()
        for p in sorted(root.rglob("*")) if p.is_file()
    }


FAST_RUN = (
    "--repeats", 2, "--epochs", 2, "--batch-size", 8, "--eval-every", 2,
    "--f", 4, "--seed", 0,
)


class TestConfigFile:
    def test_parses_pairs_skipping_comments_and_blanks(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("# comment\n\nchannels = 4\nfs=32.0\n")
        assert read_config_file(cfg) == {"channels": "4", "fs": "32.0"}

    def test_line_without_equals_rejected(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("channels\n")
        with pytest.raises(UsageError, match="key=value"):
            read_config_file(cfg)

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(UsageError, match="cannot read"):
            read_config_file(tmp_path / "absent.cfg")

    def test_flag_beats_file_beats_default(self):
        class Args:
            alpha = 3
            beta = None
            gamma = None

        schema = {"alpha": (int, 0), "beta": (int, 1), "gamma": (int, 7)}
        merged = merge_options(Args(), {"alpha": "9", "beta": "5"}, schema)
        assert merged == {"alpha": 3, "beta": 5, "gamma": 7}

    def test_unknown_config_key_rejected(self):
        class Args:
            alpha = None

        with pytest.raises(UsageError, match="typo"):
            merge_options(Args(), {"typo": "1"}, {"alpha": (int, 0)})

    def test_repeated_key_rejected(self, tmp_path):
        cfg = tmp_path / "twice.cfg"
        cfg.write_text("channels=4\n# comment\nfs=32\nchannels=6\n")
        with pytest.raises(UsageError, match="channels.*line 1") as info:
            read_config_file(cfg)
        assert ":4:" in str(info.value)

    def test_uncastable_value_rejected(self):
        class Args:
            alpha = None

        with pytest.raises(UsageError, match="alpha"):
            merge_options(Args(), {"alpha": "many"}, {"alpha": (int, 0)})

    def test_config_file_drives_synth(self, tmp_path, capsys):
        cfg = tmp_path / "synth.cfg"
        cfg.write_text("channels=4\nclasses=2\ntrials=8\nsamples=32\nfs=32\n")
        out = tmp_path / "d"
        assert run_cli("synth", "--config", cfg, "--out", out) == EXIT_OK
        epochs = load_epochset(out)
        assert epochs.n_channels == 4
        assert epochs.n_trials == 16

    def test_flag_overrides_config_value(self, tmp_path):
        cfg = tmp_path / "synth.cfg"
        cfg.write_text("channels=4\ntrials=8\nsamples=32\n")
        out = tmp_path / "d"
        code = run_cli("synth", "--config", cfg, "--channels", 6,
                       "--out", out)
        assert code == EXIT_OK
        assert load_epochset(out).n_channels == 6


class TestSynth:
    def test_round_trips_as_loadable_dataset(self, tmp_path, capsys):
        out = synth_dir(tmp_path, channels=8, classes=2, trials=10)
        epochs = load_epochset(out)
        assert epochs.n_channels == 8
        assert epochs.n_classes == 2
        assert epochs.n_trials == 20
        assert "wrote 20 trials" in capsys.readouterr().out

    def test_negative_trials_is_usage_error(self, tmp_path, capsys):
        code = run_cli("synth", "--trials", -3, "--out", tmp_path / "d")
        assert code == EXIT_USAGE
        assert "trials_per_class" in capsys.readouterr().err

    def test_missing_out_is_usage_error(self, tmp_path, capsys):
        assert run_cli("synth", "--trials", 4) == EXIT_USAGE
        assert "--out" in capsys.readouterr().err

    def test_same_flags_twice_write_identical_bytes(self, tmp_path):
        a = synth_dir(tmp_path, "a")
        b = synth_dir(tmp_path, "b")
        assert tree_bytes(a) == tree_bytes(b)


class TestCsp:
    def test_binary_bank_has_one_column_per_filter(self, tmp_path):
        data = synth_dir(tmp_path)
        bank = tmp_path / "bank.csp"
        weights = tmp_path / "w.csv"
        code = run_cli("csp", "--data", data, "--f", 4, "--out", bank,
                       "--export-weights", weights)
        assert code == EXIT_OK
        model = load_csp(bank)
        assert model.W.shape == (6, 4)
        exported = np.loadtxt(weights, delimiter=",")
        assert exported.shape == (6, 4)
        np.testing.assert_array_equal(exported, model.W)

    def test_four_class_bank_pools_two_filters_per_class(self, tmp_path):
        data = synth_dir(tmp_path, "d4", channels=8, classes=4, trials=12)
        bank = tmp_path / "bank4.csp"
        code = run_cli("csp", "--data", data, "--f", 8, "--out", bank)
        assert code == EXIT_OK
        assert load_csp(bank).W.shape == (8, 8)

    def test_odd_filter_count_on_binary_data_is_usage_error(
        self, tmp_path, capsys
    ):
        data = synth_dir(tmp_path)
        code = run_cli("csp", "--data", data, "--f", 5,
                       "--out", tmp_path / "x.csp")
        assert code == EXIT_USAGE
        assert "even" in capsys.readouterr().err

    def test_filter_count_beyond_channels_is_usage_error(self, tmp_path):
        data = synth_dir(tmp_path)
        code = run_cli("csp", "--data", data, "--f", 8,
                       "--out", tmp_path / "x.csp")
        assert code == EXIT_USAGE

    def test_negative_ridge_is_usage_error(self, tmp_path, capsys):
        data = synth_dir(tmp_path)
        bank = tmp_path / "x.csp"
        code = run_cli("csp", "--data", data, "--f", 4, "--ridge", -1,
                       "--out", bank)
        assert code == EXIT_USAGE
        assert "ridge must be nonnegative" in capsys.readouterr().err
        assert not bank.exists()

    def test_unknown_subject_is_usage_error(self, tmp_path, capsys):
        data = synth_dir(tmp_path)
        code = run_cli("csp", "--data", data, "--f", 4, "--subject", "S9",
                       "--out", tmp_path / "x.csp")
        assert code == EXIT_USAGE
        assert "S9" in capsys.readouterr().err

    def test_missing_dataset_is_usage_error(self, tmp_path):
        code = run_cli("csp", "--data", tmp_path / "absent", "--f", 4,
                       "--out", tmp_path / "x.csp")
        assert code == EXIT_USAGE

    def test_full_ratio_fits_on_every_trial(self, tmp_path, capsys):
        data = synth_dir(tmp_path, trials=10)
        code = run_cli("csp", "--data", data, "--f", 4, "--train-ratio", 1.0,
                       "--out", tmp_path / "bank.csp")
        assert code == EXIT_OK
        assert "on 20 trials" in capsys.readouterr().out


class TestRun:
    def test_two_approaches_give_two_summary_rows(self, tmp_path, capsys):
        data = synth_dir(tmp_path, channels=4)
        out = tmp_path / "rep"
        code = run_cli(
            "run", "--data", data, "--scenario", "within",
            "--approach", "standard,cspnet1-fix", "--backbone", "eegnet",
            *FAST_RUN, "--out", out,
        )
        assert code == EXIT_OK
        lines = (out / "summary.csv").read_text().splitlines()
        assert len(lines) == 3
        assert lines[1].startswith("backbone-eegnet,")
        assert lines[2].startswith("cspnet1-fix-eegnet,")
        printed = capsys.readouterr().out
        assert "backbone-eegnet: average accuracy" in printed

    def test_rerun_with_same_seed_is_byte_identical(self, tmp_path):
        data = synth_dir(tmp_path, channels=4)
        args = ("run", "--data", data, "--approach", "standard,csp-lr",
                *FAST_RUN)
        assert run_cli(*args, "--out", tmp_path / "r1") == EXIT_OK
        assert run_cli(*args, "--out", tmp_path / "r2") == EXIT_OK
        assert tree_bytes(tmp_path / "r1") == tree_bytes(tmp_path / "r2")

    def test_parallel_jobs_match_reference_output(self, tmp_path):
        data = synth_dir(tmp_path, channels=4)
        args = ("run", "--data", data, "--approach", "standard,csp-lr",
                *FAST_RUN)
        assert run_cli(*args, "--out", tmp_path / "r1") == EXIT_OK
        assert run_cli(*args, "--jobs", 2, "--out", tmp_path / "rj") == EXIT_OK
        assert tree_bytes(tmp_path / "r1") == tree_bytes(tmp_path / "rj")

    def test_unknown_approach_fails_before_any_computation(
        self, tmp_path, capsys
    ):
        data = synth_dir(tmp_path, channels=4)
        out = tmp_path / "rep"
        code = run_cli("run", "--data", data, "--approach", "nosuch",
                       *FAST_RUN, "--out", out)
        assert code == EXIT_USAGE
        assert "nosuch" in capsys.readouterr().err
        assert not out.exists()

    def test_requires_exactly_one_data_source(self, tmp_path, capsys):
        data = synth_dir(tmp_path, channels=4)
        code = run_cli("run", *FAST_RUN, "--out", tmp_path / "r")
        assert code == EXIT_USAGE
        assert "data source" in capsys.readouterr().err
        code = run_cli("run", "--data", data, "--synth", *FAST_RUN,
                       "--out", tmp_path / "r")
        assert code == EXIT_USAGE

    def test_cross_scenario_needs_two_subjects(self, tmp_path, capsys):
        data = synth_dir(tmp_path, channels=4)
        code = run_cli("run", "--data", data, "--scenario", "cross",
                       *FAST_RUN, "--out", tmp_path / "r")
        assert code == EXIT_USAGE
        assert "2 subjects" in capsys.readouterr().err

    def test_cross_scenario_reports_one_row_per_subject(self, tmp_path):
        data = synth_dir(tmp_path, "d2", channels=4, subjects=2, trials=8)
        out = tmp_path / "rep"
        code = run_cli("run", "--data", data, "--scenario", "cross",
                       "--approach", "csp-lr", *FAST_RUN, "--out", out)
        assert code == EXIT_OK
        rows = (out / "runs.csv").read_text().splitlines()
        assert len(rows) == 1 + 2 * 2  # header + subjects x repeats

    def test_synthesized_source_runs_end_to_end(self, tmp_path):
        out = tmp_path / "rep"
        code = run_cli("run", "--synth", "--channels", 4, "--trials", 12,
                       "--samples", 32, "--fs", 32, "--approach", "csp-lr",
                       *FAST_RUN, "--out", out)
        assert code == EXIT_OK
        assert (out / "runs.csv").exists()

    def test_ratio_sweep_writes_one_column_per_value(self, tmp_path):
        data = synth_dir(tmp_path, channels=4, trials=20)
        out = tmp_path / "swp"
        code = run_cli("run", "--data", data, "--approach", "csp-lr",
                       "--sweep", "ratio=0.5,1.0", *FAST_RUN, "--out", out)
        assert code == EXIT_OK
        lines = (out / "sweep_ratio.csv").read_text().splitlines()
        assert lines[0] == "approach,0.5,1"
        cells = lines[1].split(",")
        assert cells[0] == "csp-lr"
        assert len(cells) == 3
        runs = (out / "sweep_runs.csv").read_text().splitlines()
        assert runs[0] == "approach,ratio,subject,repeat,accuracy"
        assert len(runs) == 1 + 2 * 2  # header + values x repeats

    def test_skipped_sweep_cells_do_not_fail_the_run(self, tmp_path):
        data = synth_dir(tmp_path, channels=4)
        out = tmp_path / "swp"
        code = run_cli("run", "--data", data, "--approach", "csp-lr",
                       "--sweep", "f=4,22", *FAST_RUN, "--out", out)
        assert code == EXIT_OK
        grid = (out / "sweep_f.csv").read_text()
        assert "skipped: f=22 exceeds 4 channels" in grid

    def test_failed_sweep_cell_exits_nonzero_with_diagnostics(
        self, tmp_path, capsys, monkeypatch
    ):
        data = synth_dir(tmp_path, channels=4)

        def broken_sweep(dataset, approach, axis, values, **kwargs):
            return {
                0.5: SweepCell(key=0.5, status="failed",
                               reason="NumericalError: singular"),
            }

        monkeypatch.setattr(cli, "run_sweep", broken_sweep)
        code = run_cli("run", "--data", data, "--approach", "csp-lr",
                       "--sweep", "ratio=0.5", *FAST_RUN,
                       "--out", tmp_path / "swp")
        assert code == EXIT_RUNTIME
        assert "singular" in capsys.readouterr().err

    def test_failed_mandatory_run_exits_nonzero(
        self, tmp_path, capsys, monkeypatch
    ):
        from cspnet.errors import NumericalError

        data = synth_dir(tmp_path, channels=4)

        def explode(*args, **kwargs):
            raise NumericalError("covariance not positive definite")

        monkeypatch.setattr(cli, "run_within_subject", explode)
        code = run_cli("run", "--data", data, "--approach", "csp-lr",
                       *FAST_RUN, "--out", tmp_path / "rep")
        assert code == EXIT_RUNTIME
        assert "NumericalError" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--noise", "--contrast"],
                             ids=["noise", "contrast"])
    def test_overflowing_synthesis_is_usage_error_without_traceback(
        self, tmp_path, capsys, flag
    ):
        out = tmp_path / "rep"
        code = run_cli("run", "--synth", "--channels", 4, "--trials", 4,
                       "--samples", 32, flag, 1e300, "--approach",
                       "csp-lr", "--f", 2, "--repeats", 1, "--out", out)
        assert code == EXIT_USAGE
        err = capsys.readouterr().err
        assert "error: synthetic trials overflow float32" in err
        assert "Traceback" not in err
        assert not out.exists()

    def test_usage_class_error_after_work_starts_exits_runtime(
        self, tmp_path, capsys, monkeypatch
    ):
        from cspnet.errors import ParameterError

        data = synth_dir(tmp_path, channels=4)

        def explode(*args, **kwargs):
            raise ParameterError("raised mid-run")

        monkeypatch.setattr(cli, "run_within_subject", explode)
        code = run_cli("run", "--data", data, "--approach", "csp-lr",
                       *FAST_RUN, "--out", tmp_path / "rep")
        assert code == EXIT_RUNTIME
        assert "error: ParameterError: raised mid-run" in \
            capsys.readouterr().err

    @pytest.mark.parametrize("sweep", [(), ("--sweep", "f=2,4")],
                             ids=["plain", "sweep-f"])
    @pytest.mark.parametrize("approach",
                             ["standard", "cspnet1-fix", "cspnet2-fix"])
    @pytest.mark.parametrize("backbone", ["eegnet", "shallowcnn", "deepcnn"])
    def test_trials_too_short_for_the_backbone_fail_before_any_computation(
        self, tmp_path, capsys, backbone, approach, sweep
    ):
        out = tmp_path / "rep"
        code = run_cli("run", "--synth", "--channels", 4, "--trials", 8,
                       "--samples", 16, "--fs", 32, "--backbone", backbone,
                       "--approach", f"csp-lr,{approach}", *FAST_RUN, *sweep,
                       "--out", out)
        assert code == EXIT_USAGE
        assert "exceeds input" in capsys.readouterr().err
        assert not out.exists()

    def test_f_sweep_skipping_every_cell_builds_nothing(self, tmp_path):
        # every swept f is skipped, so no network is built: trials too short
        # for the backbone write an all-skipped grid
        out = tmp_path / "swp"
        code = run_cli("run", "--synth", "--channels", 4, "--trials", 8,
                       "--samples", 16, "--fs", 32, "--approach",
                       "csp-lr,cspnet1-fix", *FAST_RUN, "--sweep", "f=3,6",
                       "--out", out)
        assert code == EXIT_OK
        rows = (out / "sweep_f.csv").read_text().splitlines()[1:]
        assert all(cell.startswith("skipped: ")
                   for row in rows for cell in row.split(",")[1:])

    @pytest.mark.parametrize("extra,reason", [
        (("--train-ratio", 1.5), "train_ratio"),
        (("--train-ratio", 1.0), "train_ratio"),
        (("--f", 3), "even"),
        (("--f", 6), "exceeds 4 channels"),
        (("--f", 1), "at least 2 filters"),
        (("--f", 4, "--ridge", -1), "ridge must be nonnegative"),
        (("--sweep", "ratio=0.5", "--train-ratio", 1.5), "train_ratio"),
        (("--sweep", "ratio=0.5,1.5"), "sweep ratios"),
        (("--baseline", "nosuch"), "baseline 'nosuch'"),
    ], ids=["ratio-above-1", "ratio-1", "odd-f", "f-above-channels", "f-1",
            "negative-ridge", "sweep-ratio-above-1", "sweep-value-above-1",
            "unknown-baseline"])
    def test_bad_value_fails_before_any_computation(
        self, tmp_path, capsys, extra, reason
    ):
        data = synth_dir(tmp_path, channels=4)
        out = tmp_path / "rep"
        code = run_cli("run", "--data", data, "--approach", "cspnet1-fix",
                       *FAST_RUN, *extra, "--out", out)
        assert code == EXIT_USAGE
        assert reason in capsys.readouterr().err
        assert not out.exists()

    def test_bad_sweep_axis_is_usage_error(self, tmp_path, capsys):
        data = synth_dir(tmp_path, channels=4)
        code = run_cli("run", "--data", data, "--approach", "csp-lr",
                       "--sweep", "lr=0.1", *FAST_RUN,
                       "--out", tmp_path / "r")
        assert code == EXIT_USAGE
        assert "ratio or f" in capsys.readouterr().err


class TestGradcheck:
    def test_fresh_build_passes_and_lists_every_kind(self, capsys):
        assert run_cli("gradcheck") == EXIT_OK
        out = capsys.readouterr().out
        for kind in ("conv2d", "batchnorm", "elu", "square", "safelog",
                     "avgpool", "maxpool", "dropout", "dense"):
            assert f"  {kind}" in out
        assert "gradient check passed" in out

    def test_corrupted_elu_backward_fails(self, capsys, monkeypatch):
        real = nn_layers.backward

        def corrupted(spec, *args, **kwargs):
            gx, grads = real(spec, *args, **kwargs)
            if spec.kind == "elu":
                gx = gx * 1.01  # simulated backward-pass bug
            return gx, grads

        monkeypatch.setattr(nn_layers, "backward", corrupted)
        assert run_cli("gradcheck") == EXIT_RUNTIME
        out = capsys.readouterr().out
        assert "FAIL" in out
        assert "gradient check FAILED" in out


class TestReport:
    def test_rebuilds_identical_summary_from_runs_csv(self, tmp_path):
        data = synth_dir(tmp_path, channels=4)
        first = tmp_path / "rep"
        code = run_cli("run", "--data", data, "--approach", "standard,csp-lr",
                       *FAST_RUN, "--out", first)
        assert code == EXIT_OK
        rebuilt = tmp_path / "rep2"
        code = run_cli("report", "--runs", first / "runs.csv",
                       "--out", rebuilt)
        assert code == EXIT_OK
        assert (rebuilt / "summary.csv").read_bytes() == \
            (first / "summary.csv").read_bytes()
        assert (rebuilt / "runs.csv").read_bytes() == \
            (first / "runs.csv").read_bytes()

    def test_wrong_header_is_usage_error(self, tmp_path, capsys):
        bad = tmp_path / "runs.csv"
        bad.write_text("approach,subject,acc\nx,S1,0.5\n")
        code = run_cli("report", "--runs", bad, "--out", tmp_path / "r")
        assert code == EXIT_USAGE
        assert "header" in capsys.readouterr().err

    def test_missing_runs_file_is_usage_error(self, tmp_path):
        code = run_cli("report", "--runs", tmp_path / "absent.csv",
                       "--out", tmp_path / "r")
        assert code == EXIT_USAGE

    def test_out_of_range_accuracy_is_usage_error(self, tmp_path, capsys):
        bad = tmp_path / "runs.csv"
        bad.write_text("approach,subject,repeat,accuracy\nx,S1,0,1.5\n")
        code = run_cli("report", "--runs", bad, "--out", tmp_path / "r")
        assert code == EXIT_USAGE
        assert ":2:" in capsys.readouterr().err


class TestParserBasics:
    def test_no_command_is_usage_error(self, capsys):
        assert main([]) == EXIT_USAGE
        capsys.readouterr()

    def test_help_exits_cleanly(self, capsys):
        assert main(["--help"]) == EXIT_OK
        assert "synth" in capsys.readouterr().out

    def test_unknown_flag_is_usage_error(self, capsys):
        assert main(["synth", "--frobnicate"]) == EXIT_USAGE
        capsys.readouterr()

    @pytest.mark.parametrize("argv", [
        ["gradcheck", "--out", "ignored"],
        ["report", "--runs", "runs.csv", "--out", "r", "--seed", "3"],
    ], ids=["gradcheck-out", "report-seed"])
    def test_shared_flag_the_command_does_not_read_is_usage_error(
            self, argv, capsys):
        assert main(argv) == EXIT_USAGE
        assert "unrecognized arguments" in capsys.readouterr().err


def subparser_flags(command):
    parser = cli.build_parser()
    sub = next(a for a in parser._actions
               if isinstance(a, argparse._SubParsersAction))
    return set(sub.choices[command]._option_string_actions)


SYNTH_FLAGS = {"--channels", "--classes", "--trials", "--samples",
               "--subjects", "--fs", "--noise", "--contrast"}
HELP_AND_CONFIG = {"-h", "--help", "--config"}


class TestOptionTable:
    @pytest.mark.parametrize("command,flags", [
        ("synth", SYNTH_FLAGS | {"--seed", "--out"}),
        ("csp", {"--data", "--f", "--ridge", "--train-ratio", "--subject",
                 "--export-weights", "--seed", "--out"}),
        ("run", SYNTH_FLAGS | {
            "--data", "--synth", "--scenario", "--approach", "--backbone",
            "--f", "--ridge", "--repeats", "--train-ratio", "--batch-size",
            "--lr", "--weight-decay", "--epochs", "--eval-every",
            "--dropout", "--balanced", "--sweep", "--baseline", "--seed",
            "--jobs", "--out"}),
        ("gradcheck", {"--seed"}),
        ("report", {"--runs", "--baseline", "--out"}),
    ])
    def test_each_command_keeps_its_flag_set(self, command, flags):
        assert subparser_flags(command) == flags | HELP_AND_CONFIG

    def test_every_option_is_read_by_some_command(self):
        read = {name for _, _, names, _ in cli.COMMANDS.values()
                for name in names}
        assert read == set(cli.OPTIONS)
        assert len(cli.OPTIONS) == 32

    @pytest.mark.parametrize("command,name", [
        (command, name)
        for command, (_, _, names, _) in cli.COMMANDS.items()
        for name in names
    ])
    def test_flag_and_config_key_give_the_same_value(self, command, name):
        cast, default, _ = cli.OPTIONS[name]
        schema = {n: cli.OPTIONS[n] for n in cli.COMMANDS[command][2]}
        flag = "--" + name.replace("_", "-")
        if cast is cli._parse_bool:
            argv, text = [flag], "true"
        else:
            text = {int: "3", float: "0.5", str: "text"}[cast]
            argv = [flag, text]
        parser = cli.build_parser()
        from_flag = merge_options(parser.parse_args([command, *argv]), {},
                                  schema)
        from_file = merge_options(parser.parse_args([command]), {name: text},
                                  schema)
        assert from_flag == from_file
        assert from_flag[name] != default
        expected = bool if cast is cli._parse_bool else cast
        assert type(from_flag[name]) is expected
        assert default is None or type(default) is expected

    @pytest.mark.parametrize("argv,missing", [
        (["synth", "--trials", "4"], "--out"),
        (["csp", "--data", "{tmp}/d", "--f", "4"], "--out"),
        (["csp", "--f", "4", "--out", "{tmp}/x.csp"], "--data"),
        (["run", "--synth", "--channels", "4"], "--out"),
        (["report", "--runs", "{tmp}/runs.csv"], "--out"),
        (["report", "--out", "{tmp}/r"], "--runs"),
    ], ids=["synth-out", "csp-out", "csp-data", "run-out", "report-out",
            "report-runs"])
    def test_missing_required_option_is_usage_error(
        self, tmp_path, capsys, argv, missing
    ):
        argv = [a.format(tmp=tmp_path) for a in argv]
        assert main(argv) == EXIT_USAGE
        assert f"missing required option {missing}" in capsys.readouterr().err
        assert not any(tmp_path.iterdir())
