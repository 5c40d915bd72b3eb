"""Layer zoo for 4-axis activations (batch, maps, height, width).

For EEG inputs, height is the electrode axis and width the time axis.
Convolution is cross-correlation (no kernel flip); "same-width" padding
zero-fills the time axis only, so channel-axis kernels always run in
valid mode. Everything is float64. A conv with at most
DIRECT_CONV_MAX_MAPS output maps per group contracts its forward pass and
weight gradient directly over its window view; a wider one runs each as
one matmul on (maps x taps, positions) columns laid out as the output,
which copies nothing for a full-height (c, 1) kernel. Every input
gradient is one matmul into tap-major columns, folded back by `_fold`.

Each kind implements: output-shape propagation, parameter creation,
forward (returning a cache), and backward (consuming it). The public
`permute` swap of the maps and height axes is not a user-facing kind;
it exists so a bank of spatial projections can be re-read as channels.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from ..errors import BuildError, ParameterError

KINDS = (
    "conv2d",
    "batchnorm",
    "elu",
    "square",
    "safelog",
    "avgpool",
    "maxpool",
    "dropout",
    "flatten",
    "dense",
    "permute",
)

BATCHNORM_EPS = 1e-5
BATCHNORM_MOMENTUM = 0.1
SAFELOG_CLAMP = 1e-6
DIRECT_CONV_MAX_MAPS = 8


@dataclass
class LayerSpec:
    kind: str
    name: str | None = None
    # conv2d
    out_maps: int | None = None
    kernel: tuple[int, int] | None = None
    groups: int = 1
    padding: str = "valid"  # "valid" or "same-width"
    bias: bool = True
    # pooling
    window: tuple[int, int] | None = None
    stride: tuple[int, int] | None = None
    # dropout
    p: float = 0.25
    # dense
    units: int | None = None

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise BuildError(f"unknown layer kind {self.kind!r}")


def _need_3d(spec: LayerSpec, shape) -> None:
    if len(shape) != 3:
        raise BuildError(f"{spec.kind} expects a maps x height x width input, "
                         f"got shape {shape}")


def _pool_geometry(spec: LayerSpec, shape):
    _need_3d(spec, shape)
    m, h, w = shape
    if spec.window is None:
        raise BuildError(f"{spec.kind} needs a window")
    ph, pw = spec.window
    sh, sw = spec.stride if spec.stride is not None else spec.window
    if ph < 1 or pw < 1 or sh < 1 or sw < 1:
        raise BuildError(f"pool window/stride must be >= 1, got {spec.window} "
                         f"and stride {(sh, sw)}")
    if ph > h or pw > w:
        raise BuildError(f"pool window {spec.window} exceeds input {h}x{w}")
    return m, h, w, ph, pw, sh, sw, (h - ph) // sh + 1, (w - pw) // sw + 1


def out_shape(spec: LayerSpec, in_shape) -> tuple:
    """Symbolic shape propagation; raises BuildError on any mismatch."""
    if spec.kind == "conv2d":
        _need_3d(spec, in_shape)
        m, h, w = in_shape
        if spec.out_maps is None or spec.kernel is None:
            raise BuildError("conv2d needs out_maps and kernel")
        kh, kw = spec.kernel
        if kh < 1 or kw < 1:
            raise BuildError(f"kernel {spec.kernel} must be >= 1 in both axes")
        if spec.groups < 1 or m % spec.groups or spec.out_maps % spec.groups:
            raise BuildError(
                f"groups {spec.groups} must divide input maps {m} "
                f"and output maps {spec.out_maps}"
            )
        if spec.padding not in ("valid", "same-width"):
            raise BuildError(f"unknown padding {spec.padding!r}")
        if kh > h:
            raise BuildError(f"kernel height {kh} exceeds input height {h}")
        if spec.padding == "valid":
            if kw > w:
                raise BuildError(f"kernel width {kw} exceeds input width {w}")
            return (spec.out_maps, h - kh + 1, w - kw + 1)
        return (spec.out_maps, h - kh + 1, w)
    if spec.kind == "batchnorm":
        _need_3d(spec, in_shape)
        return tuple(in_shape)
    if spec.kind in ("elu", "square", "safelog"):
        return tuple(in_shape)
    if spec.kind in ("avgpool", "maxpool"):
        m, _, _, _, _, _, _, ho, wo = _pool_geometry(spec, in_shape)
        if ho < 1 or wo < 1:
            raise BuildError(f"pool {spec.window} empties the input {in_shape}")
        return (m, ho, wo)
    if spec.kind == "dropout":
        if not 0.0 <= spec.p < 1.0:
            raise BuildError(f"drop probability must be in [0, 1), got {spec.p}")
        return tuple(in_shape)
    if spec.kind == "flatten":
        _need_3d(spec, in_shape)
        return (int(np.prod(in_shape)),)
    if spec.kind == "dense":
        if len(in_shape) != 1:
            raise BuildError(f"dense expects a flat input, got shape {in_shape}")
        if spec.units is None or spec.units < 1:
            raise BuildError("dense needs a positive unit count")
        return (spec.units,)
    if spec.kind == "permute":
        _need_3d(spec, in_shape)
        m, h, w = in_shape
        return (h, m, w)
    raise BuildError(f"unknown layer kind {spec.kind!r}")


def _glorot(shape, fan_in, fan_out, rng: np.random.Generator) -> np.ndarray:
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape)


def init_params(spec: LayerSpec, in_shape, rng: np.random.Generator) -> dict:
    """Fresh parameter values keyed by local name (weight/bias/gamma/beta)."""
    if spec.kind == "conv2d":
        m = in_shape[0]
        kh, kw = spec.kernel
        shape = (spec.out_maps, m // spec.groups, kh, kw)
        params = {"weight": _glorot(shape, shape[1] * kh * kw,
                                    shape[0] * kh * kw, rng)}
        if spec.bias:
            params["bias"] = np.zeros(spec.out_maps)
        return params
    if spec.kind == "batchnorm":
        m = in_shape[0]
        return {"gamma": np.ones(m), "beta": np.zeros(m)}
    if spec.kind == "dense":
        shape = (in_shape[0], spec.units)
        return {
            "weight": _glorot(shape, shape[0], shape[1], rng),
            "bias": np.zeros(spec.units),
        }
    return {}


def decay_exempt_names(spec: LayerSpec) -> set:
    """Local parameter names excluded from weight decay."""
    if spec.kind == "batchnorm":
        return {"gamma", "beta"}
    return {"bias"}


def init_buffers(spec: LayerSpec, in_shape) -> dict:
    if spec.kind == "batchnorm":
        m = in_shape[0]
        return {"running_mean": np.zeros(m), "running_var": np.ones(m)}
    return {}


# ---------------------------------------------------------------------------
# forward / backward per kind


def _conv_pad(spec: LayerSpec, x: np.ndarray) -> np.ndarray:
    if spec.padding == "same-width":
        kw = spec.kernel[1]
        left = (kw - 1) // 2
        return np.pad(x, ((0, 0), (0, 0), (0, 0), (left, kw - 1 - left)))
    return x


def _fold(gcols: np.ndarray, x_shape, stride) -> np.ndarray:
    """Adjoint of a strided window view: add each window's gradient back.
    `gcols` is tap-major, (n, m, kh, kw, ho, wo); tap (i, j) of window
    (a, b) reads input row i + a * sh and column j + b * sw."""
    _, _, kh, kw, ho, wo = gcols.shape
    if (kh, kw, ho, wo) == (x_shape[2], 1, 1, x_shape[3]):  # full height
        return gcols.reshape(x_shape)
    sh, sw = stride
    gx = np.zeros(x_shape)
    for i, j in np.ndindex(kh, kw):
        rows, cols = slice(i, i + sh * ho, sh), slice(j, j + sw * wo, sw)
        gx[:, :, rows, cols] += gcols[:, :, i, j]
    return gx


def _spread(g: np.ndarray, axis: int, x_shape, k: int, s: int) -> np.ndarray:
    """Adjoint of summing k-wide windows every s along `axis`: tap by tap
    if disjoint, else a cumsum of + at window starts and - at window ends."""
    if k == s == 1:
        return g
    at, n, size = (slice(None),) * axis, g.shape[axis], x_shape[axis]
    d = np.zeros(g.shape[:axis] + (size + 1,) + g.shape[axis + 1:])
    for j in range(k if k <= s else 1):
        d[at + (slice(j, j + s * n, s),)] = g
    if k > s:
        d[at + (slice(k, k + s * n, s),)] -= g
        d = np.cumsum(d, axis=axis)
    return d[at + (slice(0, size),)]


def _conv_columns(spec, xp):
    """Stride-1 windows of the padded input, (n, g, m/g, kh, kw, ho, wo)."""
    win = sliding_window_view(xp, spec.kernel, axis=(2, 3))
    win = win.reshape(xp.shape[0], spec.groups, -1, *win.shape[2:])
    return win.transpose(0, 1, 2, 5, 6, 3, 4)


def _conv_forward(spec, values, x):
    w, g = values["weight"], spec.groups
    o, mg, kh, kw = w.shape
    xp = _conv_pad(spec, x)
    cols = _conv_columns(spec, xp)
    n, ho, wo = x.shape[0], *cols.shape[5:]
    if o // g > DIRECT_CONV_MAX_MAPS:
        out = np.matmul(w.reshape(g, o // g, mg * kh * kw),
                        cols.reshape(n, g, mg * kh * kw, ho * wo))
    else:
        out = np.einsum("ngmijhw,gomij->ngohw", cols,
                        w.reshape(g, o // g, mg, kh, kw))
    out = out.reshape(n, o, ho, wo)
    if spec.bias:
        out += values["bias"][None, :, None, None]
    return out, {"xp": xp}


def _conv_backward(spec, values, cache, gy, want_param_grads, want_input_grad):
    w, g = values["weight"], spec.groups
    o, mg, kh, kw = w.shape
    xp = cache["xp"]
    n, _, ho, wo = gy.shape
    gyg = gy.reshape(n, g, o // g, ho * wo)
    grads = {}
    if want_param_grads:
        cols = _conv_columns(spec, xp)
        if o // g > DIRECT_CONV_MAX_MAPS:
            cols = cols.reshape(n, g, mg * kh * kw, ho * wo)
            gw = np.matmul(gyg, cols.swapaxes(2, 3)).sum(axis=0)
        else:
            gw = np.einsum("ngmijhw,ngohw->gomij", cols,
                           gyg.reshape(n, g, o // g, ho, wo))
        grads["weight"] = gw.reshape(w.shape)
        if spec.bias:
            grads["bias"] = gy.sum(axis=(0, 2, 3))
    if not want_input_grad:
        return None, grads
    # matmul on every geometry: the direct einsum ties only on depthwise convs
    gcols = np.matmul(w.reshape(g, o // g, mg * kh * kw).swapaxes(1, 2), gyg)
    gxp = _fold(gcols.reshape(n, g * mg, kh, kw, ho, wo), xp.shape, (1, 1))
    if spec.padding == "same-width":
        left = (kw - 1) // 2
        return gxp[:, :, :, left : left + wo], grads
    return gxp, grads


def _bn_forward(spec, values, buffers, x, mode):
    gamma = values["gamma"][None, :, None, None]
    beta = values["beta"][None, :, None, None]
    if mode == "train":
        mean = x.mean(axis=(0, 2, 3))
        var = x.var(axis=(0, 2, 3))
        buffers["running_mean"] *= 1.0 - BATCHNORM_MOMENTUM
        buffers["running_mean"] += BATCHNORM_MOMENTUM * mean
        buffers["running_var"] *= 1.0 - BATCHNORM_MOMENTUM
        buffers["running_var"] += BATCHNORM_MOMENTUM * var
    else:
        mean = buffers["running_mean"]
        var = buffers["running_var"]
    invstd = 1.0 / np.sqrt(var + BATCHNORM_EPS)
    xhat = (x - mean[None, :, None, None]) * invstd[None, :, None, None]
    return gamma * xhat + beta, {"xhat": xhat, "invstd": invstd}


def _bn_backward(spec, values, cache, gy, want_param_grads, want_input_grad):
    xhat = cache["xhat"]
    grads = {}
    if want_param_grads:
        grads["gamma"] = (gy * xhat).sum(axis=(0, 2, 3))
        grads["beta"] = gy.sum(axis=(0, 2, 3))
    if not want_input_grad:
        return None, grads
    invstd = cache["invstd"][None, :, None, None]
    gamma = values["gamma"][None, :, None, None]
    n = gy.shape[0] * gy.shape[2] * gy.shape[3]
    gxhat = gy * gamma
    sum_g = gxhat.sum(axis=(0, 2, 3), keepdims=True)
    sum_gx = (gxhat * xhat).sum(axis=(0, 2, 3), keepdims=True)
    return invstd / n * (n * gxhat - sum_g - xhat * sum_gx), grads


def _pool_windows(spec, x):
    _, _, _, ph, pw, sh, sw, _, _ = _pool_geometry(spec, x.shape[1:])
    win = sliding_window_view(x, (ph, pw), axis=(2, 3))[:, :, ::sh, ::sw]
    return win, (sh, sw)


def forward(spec: LayerSpec, values: dict, buffers: dict, x: np.ndarray,
            mode: str, rng: np.random.Generator | None):
    """One layer forward pass; returns (output, cache-for-backward)."""
    if spec.kind == "conv2d":
        return _conv_forward(spec, values, x)
    if spec.kind == "batchnorm":
        return _bn_forward(spec, values, buffers, x, mode)
    if spec.kind == "elu":
        out = np.where(x > 0, x, np.expm1(np.minimum(x, 0.0)))
        return out, {"x": x}
    if spec.kind == "square":
        return x * x, {"x": x}
    if spec.kind == "safelog":
        return np.log(np.maximum(x, SAFELOG_CLAMP)), {"x": x}
    if spec.kind in ("avgpool", "maxpool"):
        win, stride = _pool_windows(spec, x)
        cache = {"x_shape": x.shape, "stride": stride, "window": win.shape[4:]}
        if spec.kind == "avgpool":
            return win.mean(axis=(-2, -1)), cache
        if mode != "train":  # only a train-mode pass is ever run backward
            return win.max(axis=(-2, -1)), cache
        flat = win.reshape(win.shape[:4] + (-1,))
        cache["argmax"] = flat.argmax(axis=-1)
        return flat.max(axis=-1), cache
    if spec.kind == "dropout":
        if mode != "train" or spec.p == 0.0:
            return x, {"mask": None}
        if rng is None:
            raise ParameterError("dropout in train mode needs a random stream")
        mask = (rng.random(x.shape) >= spec.p) / (1.0 - spec.p)
        return x * mask, {"mask": mask}
    if spec.kind == "flatten":
        return x.reshape(x.shape[0], -1), {"x_shape": x.shape}
    if spec.kind == "dense":
        out = x @ values["weight"] + values["bias"]
        return out, {"x": x}
    if spec.kind == "permute":
        return np.ascontiguousarray(x.transpose(0, 2, 1, 3)), {}
    raise BuildError(f"unknown layer kind {spec.kind!r}")


def backward(spec: LayerSpec, values: dict, cache: dict, gy: np.ndarray,
             want_param_grads: bool, want_input_grad: bool = True):
    """One layer backward pass; returns (input gradient, parameter grads).
    Without want_input_grad, conv2d, batchnorm and dense return None for
    the input gradient."""
    if spec.kind in ("conv2d", "batchnorm"):
        impl = _conv_backward if spec.kind == "conv2d" else _bn_backward
        return impl(spec, values, cache, gy, want_param_grads, want_input_grad)
    if spec.kind == "elu":
        x = cache["x"]
        return gy * np.where(x > 0, 1.0, np.exp(np.minimum(x, 0.0))), {}
    if spec.kind == "square":
        return gy * 2.0 * cache["x"], {}
    if spec.kind == "safelog":
        x = cache["x"]
        gx = np.where(x > SAFELOG_CLAMP, gy / np.maximum(x, SAFELOG_CLAMP), 0.0)
        return gx, {}
    if spec.kind in ("avgpool", "maxpool"):
        (ph, pw), (sh, sw) = cache["window"], cache["stride"]
        if spec.kind == "avgpool":
            gx = _spread(gy / (ph * pw), 3, cache["x_shape"], pw, sw)
            return _spread(gx, 2, cache["x_shape"], ph, sh), {}
        taps = np.arange(ph * pw).reshape(ph, pw, 1, 1)
        hot = cache["argmax"][:, :, None, None] == taps
        return _fold(gy[:, :, None, None] * hot, cache["x_shape"], (sh, sw)), {}
    if spec.kind == "dropout":
        mask = cache["mask"]
        return (gy if mask is None else gy * mask), {}
    if spec.kind == "flatten":
        return gy.reshape(cache["x_shape"]), {}
    if spec.kind == "dense":
        grads = {}
        if want_param_grads:
            grads["weight"] = cache["x"].T @ gy
            grads["bias"] = gy.sum(axis=0)
        return (gy @ values["weight"].T if want_input_grad else None), grads
    if spec.kind == "permute":
        return np.ascontiguousarray(gy.transpose(0, 2, 1, 3)), {}
    raise BuildError(f"unknown layer kind {spec.kind!r}")


def layer_forward(spec: LayerSpec, params: dict, x: np.ndarray,
                  mode: str = "eval", rng: np.random.Generator | None = None,
                  buffers: dict | None = None) -> np.ndarray:
    """Standalone single-layer application (testing convenience)."""
    if buffers is None:
        buffers = init_buffers(spec, x.shape[1:])
    out, _ = forward(spec, params, buffers, x, mode, rng)
    return out
