"""End-to-end acceptance gate.

Nine checks, one per release criterion, each printing a PASS/FAIL line.
They exercise the public seams only: eigensolver fidelity, objective
invariance, gradient correctness, the freeze contract, filter replication,
synthetic end-to-end accuracy ordering, statistics oracles, byte-level
rerun determinism, and (when an export is available) a real-data sanity
band. Run with -s to see the verdict lines on success.
"""

import collections
import os
import subprocess
import sys
import time

import numpy as np
import pytest
import scipy.stats

from cspnet.cli import GRADCHECK_INPUT, GRADCHECK_LAYERS
from cspnet.csp import (
    SpatialCovariance,
    _pencil_filters,
    class_mean_covariance,
    csp_objective,
    default_ridge,
    solve_csp,
)
from cspnet.cspnets import CspLayerMode, make_cspnet1, make_cspnet2
from cspnet.data import (
    SynthSpec,
    default_class_covariances,
    load_epochset,
    synthesize_dataset,
)
from cspnet.harness import (
    ApproachSpec,
    TrainConfig,
    run_sweep,
    run_within_subject,
    train_model,
)
from cspnet.models import BACKBONE_KINDS, BackboneSpec, build_backbone
from cspnet.nn import grad_check
from cspnet.nn.gradcheck import layer_probe_graph
from cspnet.stats import bh_adjust, paired_ttest

# spatial-kernel counts in the published backbone tables
SPATIAL_KERNELS = {"eegnet": 8, "shallowcnn": 40, "deepcnn": 25}


def verdict(number: int, ok: bool, text: str) -> None:
    print(f"acceptance {number}/9: {'PASS' if ok else 'FAIL'} - {text}")
    assert ok, f"criterion {number}: {text}"


def random_spd(rng, c: int) -> np.ndarray:
    m = rng.standard_normal((c, c))
    return m @ m.T + 0.1 * np.eye(c)


def test_1_eigensolver_matches_dense_oracle():
    rng = np.random.default_rng(11)
    started = time.perf_counter()
    worst_residual = 0.0
    worst_orth = 0.0
    worst_eval = 0.0
    for _ in range(100):
        c = int(rng.integers(2, 9))
        c1 = random_spd(rng, c)
        c2 = random_spd(rng, c)
        ridge = 0.01 * np.trace(c2) / c
        b = c2 + ridge * np.eye(c)
        w, evals = _pencil_filters(c1, c2, ridge, np.arange(c))
        for j in range(c):
            lhs = c1 @ w[:, j]
            rhs = evals[j] * (b @ w[:, j])
            scale = np.linalg.norm(lhs) + np.linalg.norm(rhs)
            worst_residual = max(
                worst_residual, np.linalg.norm(lhs - rhs) / scale
            )
        gram = w.T @ b @ w
        worst_orth = max(worst_orth, np.max(np.abs(gram - np.eye(c))))
        dense = np.sort(np.linalg.eigvals(np.linalg.solve(b, c1)).real)
        rel = np.max(np.abs(np.sort(evals) - dense) / np.abs(dense))
        worst_eval = max(worst_eval, rel)
    elapsed = time.perf_counter() - started
    ok = (worst_residual <= 1e-8 and worst_orth <= 1e-8
          and worst_eval <= 1e-8 and elapsed < 5.0)
    verdict(
        1, ok,
        f"eigensolver: residual {worst_residual:.2e}, "
        f"orthogonality {worst_orth:.2e}, eigenvalues vs dense "
        f"{worst_eval:.2e}, {elapsed:.2f}s",
    )


def test_2_objective_scale_invariance():
    rng = np.random.default_rng(23)
    worst = 0.0
    for _ in range(20):
        c = int(rng.integers(2, 9))
        c1 = SpatialCovariance(random_spd(rng, c), 1)
        c2 = SpatialCovariance(random_spd(rng, c), 1)
        w = rng.standard_normal((c, int(rng.integers(1, c + 1))))
        base = csp_objective(w, c1, c2)
        for k in (-3.0, 0.5, 7.0):
            scaled = csp_objective(k * w, c1, c2)
            worst = max(worst, np.max(np.abs(scaled - base) / np.abs(base)))
    ok = worst <= 1e-12
    verdict(2, ok, f"objective scale invariance: worst deviation {worst:.2e}")


def test_3_gradients_match_finite_differences():
    started = time.perf_counter()
    worst_layer = 0.0
    for kind, spec in GRADCHECK_LAYERS:
        for seed in range(5):
            rng = np.random.default_rng(1000 + seed)
            # a trainable conv below the probed layer carries its input
            # gradient into the check
            graph = layer_probe_graph(spec, GRADCHECK_INPUT, seed=seed)
            batch = rng.standard_normal((3,) + GRADCHECK_INPUT)
            if kind == "safelog":
                batch = np.abs(batch) + 0.1
            labels = rng.integers(0, 2, size=3)
            worst_layer = max(worst_layer, grad_check(graph, batch, labels))
    worst_model = 0.0
    for kind in BACKBONE_KINDS:
        for seed in range(5):
            bspec = BackboneSpec(kind, n_channels=4, n_samples=64,
                                 fs=32.0, n_classes=2)
            graph = build_backbone(bspec, seed=seed)
            # probe batches picked clear of pooling argmax ties; central
            # differences are only valid in a smooth neighborhood
            rng = np.random.default_rng(4000 + seed)
            batch = rng.standard_normal((3, 1, 4, 64))
            labels = rng.integers(0, 2, size=3)
            worst_model = max(
                worst_model,
                grad_check(graph, batch, labels, max_elements_per_param=20),
            )
    elapsed = time.perf_counter() - started
    ok = worst_layer < 1e-4 and worst_model < 1e-3 and elapsed < 120
    verdict(
        3, ok,
        f"gradients: layers {worst_layer:.2e} < 1e-4, "
        f"models {worst_model:.2e} < 1e-3, {elapsed:.1f}s",
    )


def small_binary_set(seed=0, trials=15):
    spec = SynthSpec(n_channels=6, n_samples=64, n_classes=2,
                     class_covariances=default_class_covariances(6, 2, 3.0),
                     trials_per_class=trials, noise_scale=0.5, fs=32.0)
    return synthesize_dataset(spec, seed=seed)


def fitted_bank(epochs, f=4):
    c1 = class_mean_covariance(epochs, 0)
    c2 = class_mean_covariance(epochs, 1)
    return solve_csp(c1, c2, f, default_ridge(c2))


def test_4_fix_variants_freeze_filters_for_fifty_epochs():
    started = time.perf_counter()
    train = small_binary_set(seed=0)
    test = small_binary_set(seed=1, trials=5)
    bank = fitted_bank(train)
    bspec = BackboneSpec("eegnet", n_channels=6, n_samples=64, fs=32.0,
                         n_classes=2)
    cfg = TrainConfig(batch_size=16, max_epochs=50, eval_every=50)
    outcomes = {}
    for maker, family in ((make_cspnet1, "cspnet1"), (make_cspnet2, "cspnet2")):
        for variant in ("fix", "upd"):
            model = maker(bspec, bank, CspLayerMode(variant, seed=3), seed=3)
            before = model.csp_param().value.copy()
            train_model(model, train, test, cfg)
            after = model.csp_param().value
            outcomes[f"{family}-{variant}"] = np.array_equal(before, after)
    elapsed = time.perf_counter() - started
    ok = (outcomes["cspnet1-fix"] and outcomes["cspnet2-fix"]
          and not outcomes["cspnet1-upd"] and not outcomes["cspnet2-upd"]
          and elapsed < 120)
    fixed = outcomes["cspnet1-fix"] and outcomes["cspnet2-fix"]
    moved = not outcomes["cspnet1-upd"] and not outcomes["cspnet2-upd"]
    verdict(
        4, ok,
        f"freeze contract after 50 epochs: fix bit-identical {fixed}, "
        f"upd moved {moved}, {elapsed:.1f}s",
    )


def column_multiplicities(model, bank) -> list[int]:
    weights = model.csp_param().value
    counts = []
    for j in range(bank.W.shape[1]):
        column = bank.W[:, j]
        hits = sum(
            np.array_equal(weights[i, 0, :, 0], column)
            for i in range(weights.shape[0])
        )
        counts.append(hits)
    return counts


def test_5_replication_multiplicities_per_backbone():
    spec = SynthSpec(n_channels=8, n_samples=256, n_classes=2,
                     class_covariances=default_class_covariances(8, 2, 3.0),
                     trials_per_class=12, noise_scale=0.5, fs=32.0)
    epochs = synthesize_dataset(spec, seed=5)
    bank = fitted_bank(epochs, f=8)
    mode = CspLayerMode("fix", seed=0)
    results = {}
    for kind in BACKBONE_KINDS:
        bspec = BackboneSpec(kind, n_channels=8, n_samples=256, fs=32.0,
                             n_classes=2)
        model = make_cspnet2(bspec, bank, mode, seed=0)
        assert model.csp_param().value.shape[0] == SPATIAL_KERNELS[kind]
        results[kind] = column_multiplicities(model, bank)
    eegnet_model = make_cspnet2(
        BackboneSpec("eegnet", n_channels=8, n_samples=256, fs=32.0,
                     n_classes=2),
        bank, mode, seed=0,
    )
    w = eegnet_model.csp_param().value
    in_order = all(
        np.array_equal(w[j, 0, :, 0], bank.W[:, j]) for j in range(8)
    )
    shallow_ok = results["shallowcnn"] == [5] * 8
    deep_ok = sorted(
        collections.Counter(results["deepcnn"]).items()
    ) == [(3, 7), (4, 1)]
    eegnet_ok = results["eegnet"] == [1] * 8 and in_order
    ok = shallow_ok and deep_ok and eegnet_ok
    verdict(
        5, ok,
        f"replication: shallow x5 {shallow_ok}, deep 4+3x7 {deep_ok}, "
        f"eegnet in-order {eegnet_ok}",
    )


def test_6_synthetic_end_to_end_accuracy_ordering():
    started = time.perf_counter()
    spec = SynthSpec(n_channels=8, n_samples=256, n_classes=2,
                     class_covariances=default_class_covariances(8, 2, 2.0),
                     trials_per_class=150, noise_scale=1.5, fs=32.0)
    dataset = synthesize_dataset(spec, seed=0)
    cfg = TrainConfig(max_epochs=150, eval_every=150)
    protocol = dict(repeats=5, base_seed=0, cfg=cfg, train_ratio=2 / 3)
    means = {}
    for method in ("csp-lr", "backbone", "cspnet1-fix"):
        records = run_within_subject(dataset, ApproachSpec(method), **protocol)
        assert len(records) == 5
        means[method] = float(
            np.mean([r.final_test_acc for r in records])
        )
    small = {}
    for method in ("backbone", "cspnet1-fix"):
        cells = run_sweep(dataset, ApproachSpec(method), "ratio", (0.1,),
                          **protocol)
        small[method] = float(
            np.mean([r.final_test_acc for r in cells[0.1].records])
        )
    elapsed = time.perf_counter() - started
    gap = small["cspnet1-fix"] - small["backbone"]
    ok = (means["csp-lr"] >= 0.95
          and means["backbone"] >= 0.80
          and means["cspnet1-fix"] >= means["backbone"] - 0.02
          and gap >= 0.03
          and elapsed < 900)
    verdict(
        6, ok,
        f"end-to-end: csp-lr {means['csp-lr']:.3f} >= 0.95, "
        f"eegnet {means['backbone']:.3f} >= 0.80, "
        f"hybrid margin {means['cspnet1-fix'] - means['backbone']:+.3f} "
        f">= -0.02, low-data gap {gap:+.3f} >= 0.03, {elapsed:.0f}s",
    )


def test_7_statistics_match_oracles():
    rng = np.random.default_rng(71)
    worst_t = 0.0
    worst_p = 0.0
    for _ in range(100):
        n = int(rng.integers(4, 31))
        a = rng.standard_normal(n)
        b = a + 0.3 * rng.standard_normal(n) + 0.1
        t_stat, p_value = paired_ttest(a, b)
        oracle = scipy.stats.ttest_rel(a, b)
        worst_t = max(worst_t, abs(t_stat - oracle.statistic))
        worst_p = max(worst_p, abs(p_value - oracle.pvalue))
    adjusted = bh_adjust([0.005, 0.011, 0.02, 0.04])
    expected = [0.02, 0.022, 0.0267, 0.04]
    bh_ok = np.allclose(adjusted, expected, atol=1e-4)
    ok = worst_t <= 1e-8 and worst_p <= 1e-8 and bh_ok
    verdict(
        7, ok,
        f"statistics: t within {worst_t:.2e}, p within {worst_p:.2e}, "
        f"step-up example {bh_ok}",
    )


def test_8_rerun_is_byte_identical(tmp_path):
    args = [
        sys.executable, "-m", "cspnet", "run", "--synth",
        "--channels", "4", "--classes", "2", "--trials", "12",
        "--samples", "32", "--fs", "32", "--approach", "standard,csp-lr",
        "--f", "4", "--repeats", "2", "--epochs", "4", "--batch-size", "8",
        "--eval-every", "2", "--seed", "0", "--jobs", "1",
    ]
    trees = []
    for name in ("first", "second"):
        out = tmp_path / name
        proc = subprocess.run(args + ["--out", str(out)],
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        trees.append({
            p.relative_to(out).as_posix(): p.read_bytes()
            for p in sorted(out.rglob("*")) if p.is_file()
        })
    ok = trees[0] == trees[1] and "runs.csv" in trees[0]
    verdict(8, ok, f"two runs, {len(trees[0])} files each, byte-identical")


def test_9_real_dataset_accuracy_bands():
    root = os.environ.get("CSPNET_MI2C_DIR")
    if not root:
        pytest.skip("set CSPNET_MI2C_DIR to a dataset export to enable")
    dataset = load_epochset(root)
    cfg = TrainConfig()
    protocol = dict(repeats=5, base_seed=0, cfg=cfg, train_ratio=0.8)
    means = {}
    for method in ("csp-lr", "backbone", "cspnet1-fix"):
        records = run_within_subject(dataset, ApproachSpec(method), **protocol)
        means[method] = float(
            np.mean([r.final_test_acc for r in records])
        )
    ok = (abs(means["csp-lr"] - 0.7572) <= 0.08
          and abs(means["cspnet1-fix"] - 0.8169) <= 0.08
          and means["cspnet1-fix"] > means["backbone"])
    verdict(
        9, ok,
        f"real data: csp-lr {means['csp-lr']:.4f} in 0.7572+-0.08, "
        f"hybrid {means['cspnet1-fix']:.4f} in 0.8169+-0.08, "
        f"ranking holds {means['cspnet1-fix'] > means['backbone']}",
    )
