"""Sequential model container: build-time shape checks, forward/backward,
parameter freezing and binary checkpoints.

A ModelGraph owns named Parameters ("<layer>.weight" etc.) plus non-learned
buffers (batchnorm running statistics). Shapes are propagated symbolically
at construction, so incompatible stacks fail before any data flows.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field

import numpy as np

from ..errors import BuildError, CorruptionError, FormatError, ParameterError
from ..rng import substream
from . import layers
from .layers import LayerSpec
from .loss import softmax_xent

CHECKPOINT_MAGIC = "cspnet-checkpoint v1"


@dataclass
class Parameter:
    name: str
    value: np.ndarray
    grad: np.ndarray
    trainable: bool = True
    decay_exempt: bool = False


@dataclass
class ModelGraph:
    specs: list[LayerSpec]
    input_shape: tuple  # (maps, height, width), batch excluded
    seed: int = 0
    mode: str = "train"
    layer_names: list[str] = field(init=False)
    shapes: list[tuple] = field(init=False)  # output shape per layer
    params: dict = field(init=False)
    buffers: dict = field(init=False)
    # per layer, local name -> the same Parameter / array held in params
    # and buffers under "<layer>.<local>"
    _layer_params: list = field(init=False, repr=False)
    _layer_buffers: list = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if len(self.input_shape) != 3 or any(d < 1 for d in self.input_shape):
            raise BuildError(f"input shape must be 3 positive axes, "
                             f"got {self.input_shape}")
        self.input_shape = tuple(int(d) for d in self.input_shape)
        self.layer_names = []
        self.shapes = []
        self.params = {}
        self.buffers = {}
        self._layer_params = []
        self._layer_buffers = []
        shape = self.input_shape
        for i, spec in enumerate(self.specs):
            name = spec.name if spec.name else f"l{i}_{spec.kind}"
            if name in self.layer_names:
                raise BuildError(f"duplicate layer name {name!r}")
            in_shape, shape = shape, layers.out_shape(spec, shape)
            exempt = layers.decay_exempt_names(spec)
            rng = substream(self.seed, "init", i)
            own = {
                local: Parameter(f"{name}.{local}", value, np.zeros_like(value),
                                 decay_exempt=local in exempt)
                for local, value in layers.init_params(spec, in_shape, rng).items()
            }
            bufs = layers.init_buffers(spec, in_shape)
            self.layer_names.append(name)
            self.shapes.append(shape)
            self._layer_params.append(own)
            self._layer_buffers.append(bufs)
            self.params.update((p.name, p) for p in own.values())
            self.buffers.update((f"{name}.{k}", b) for k, b in bufs.items())

    @property
    def output_shape(self) -> tuple:
        return self.shapes[-1]

    def layer_params(self, index: int) -> dict:
        return {k: p.value for k, p in self._layer_params[index].items()}

    def layer_buffers(self, index: int) -> dict:
        return self._layer_buffers[index]

    def parameter(self, name: str) -> Parameter:
        if name not in self.params:
            raise ParameterError(f"no parameter named {name!r}")
        return self.params[name]

    def n_parameters(self) -> int:
        return sum(p.value.size for p in self.params.values())

    def set_mode(self, mode: str) -> None:
        if mode not in ("train", "eval"):
            raise ParameterError(f"mode must be train or eval, got {mode!r}")
        self.mode = mode

    def zero_grads(self) -> None:
        for p in self.params.values():
            p.grad.fill(0.0)


def _check_batch(graph: ModelGraph, batch: np.ndarray) -> np.ndarray:
    x = np.asarray(batch, dtype=np.float64)
    if x.ndim != 4 or x.shape[1:] != graph.input_shape:
        raise ParameterError(
            f"batch shape {x.shape} does not match input signature "
            f"(N, {', '.join(map(str, graph.input_shape))})"
        )
    if not np.all(np.isfinite(x)):
        raise ParameterError("batch contains non-finite values")
    return x


def _run_forward(graph: ModelGraph, x: np.ndarray, mode: str,
                 rng: np.random.Generator | None, keep_caches: bool):
    caches = []
    for i, spec in enumerate(graph.specs):
        x, cache = layers.forward(
            spec, graph.layer_params(i), graph.layer_buffers(i), x, mode, rng
        )
        caches.append(cache if keep_caches else None)
    if x.ndim != 2:
        raise BuildError("model does not end in a flat logit layer")
    return x, caches


def model_forward(graph: ModelGraph, batch, mode: str | None = None,
                  dropout_rng: np.random.Generator | None = None) -> np.ndarray:
    """Run the stack; returns logits (batch x K). Eval mode is deterministic;
    train mode is deterministic given the dropout stream.
    """
    x = _check_batch(graph, batch)
    mode = mode if mode is not None else graph.mode
    if mode == "train" and dropout_rng is None:
        dropout_rng = substream(graph.seed, "dropout-default")
    out, _ = _run_forward(graph, x, mode, dropout_rng, keep_caches=False)
    if not np.all(np.isfinite(out)):
        raise ParameterError("forward pass produced non-finite logits")
    return out


def model_backward(graph: ModelGraph, batch, labels,
                   dropout_rng: np.random.Generator | None = None) -> float:
    """Forward + loss + reverse sweep in train mode.

    Fills the grad buffers of trainable parameters (frozen ones stay
    all-zero) and returns the scalar loss.
    """
    x = _check_batch(graph, batch)
    if graph.mode != "train":
        raise ParameterError("backward requires train mode")
    if dropout_rng is None:
        dropout_rng = substream(graph.seed, "dropout-default")
    out, caches = _run_forward(graph, x, "train", dropout_rng, keep_caches=True)
    loss, gy = softmax_xent(out, labels)

    graph.zero_grads()
    # nothing reads the input gradient of the lowest layer holding a
    # trainable parameter, so the sweep stops there
    wants = [any(p.trainable for p in own.values())
             for own in graph._layer_params]
    lowest = wants.index(True) if True in wants else len(wants)
    for i in range(len(wants) - 1, lowest - 1, -1):
        own = graph._layer_params[i]
        gy, grads = layers.backward(
            graph.specs[i], graph.layer_params(i), caches[i], gy, wants[i],
            want_input_grad=i > lowest,
        )
        for k, g in grads.items():
            if own[k].trainable:
                own[k].grad[...] = g
    return float(loss)


# ---------------------------------------------------------------------------
# checkpoints


def _spec_dict(name: str, spec: LayerSpec) -> dict:
    d = {k: v for k, v in asdict(spec).items() if v is not None}
    d["name"] = name
    for key in ("kernel", "window", "stride"):
        if key in d:
            d[key] = list(d[key])
    return d


def _spec_from_dict(d: dict) -> LayerSpec:
    d = dict(d)
    for key in ("kernel", "window", "stride"):
        if key in d:
            d[key] = tuple(d[key])
    return LayerSpec(**d)


def save_checkpoint(graph: ModelGraph, path) -> None:
    """Single binary file: text header (graph + parameter manifest), then
    64-bit little-endian payloads in manifest order (parameters, buffers).
    """
    header = {
        "input_shape": list(graph.input_shape),
        "mode": graph.mode,
        "seed": graph.seed,
        "layers": [
            _spec_dict(n, s) for n, s in zip(graph.layer_names, graph.specs)
        ],
        "parameters": [
            {
                "name": p.name,
                "shape": list(p.value.shape),
                "trainable": p.trainable,
                "decay_exempt": p.decay_exempt,
            }
            for p in graph.params.values()
        ],
        "buffers": [
            {"name": n, "shape": list(b.shape)}
            for n, b in graph.buffers.items()
        ],
    }
    blob = json.dumps(header).encode()
    with open(path, "wb") as fh:
        fh.write(f"{CHECKPOINT_MAGIC} {len(blob)}\n".encode())
        fh.write(blob)
        for p in graph.params.values():
            fh.write(p.value.astype("<f8").tobytes(order="C"))
        for b in graph.buffers.values():
            fh.write(b.astype("<f8").tobytes(order="C"))


def _read_payload(fh, what: str, entry: dict, target: np.ndarray) -> None:
    """Overwrite `target` in place with the next payload, which the
    manifest entry must declare at the rebuilt graph's shape."""
    name, shape = entry["name"], tuple(entry["shape"])
    if shape != target.shape:
        raise CorruptionError(f"{what} {name} shape {shape} does not match "
                              f"the rebuilt graph's {target.shape}")
    raw = fh.read(8 * target.size)
    if len(raw) != 8 * target.size:
        raise CorruptionError(f"payload truncated at {what} {name!r}")
    target[...] = np.frombuffer(raw, dtype="<f8").reshape(shape)


def load_checkpoint(path) -> ModelGraph:
    with open(path, "rb") as fh:
        first = fh.readline().decode(errors="replace").rstrip("\n")
        if not first.startswith(CHECKPOINT_MAGIC + " "):
            raise FormatError(f"not a model checkpoint: header {first!r}")
        try:
            nbytes = int(first.rsplit(" ", 1)[1])
        except ValueError as exc:
            raise FormatError("malformed checkpoint header length") from exc
        blob = fh.read(nbytes)
        if len(blob) != nbytes:
            raise CorruptionError("checkpoint header truncated")
        try:
            header = json.loads(blob)
        except json.JSONDecodeError as exc:
            raise FormatError(f"checkpoint header is not valid JSON: {exc}") from exc

        specs = [_spec_from_dict(d) for d in header["layers"]]
        graph = ModelGraph(
            specs=specs,
            input_shape=tuple(header["input_shape"]),
            seed=int(header.get("seed", 0)),
            mode=header["mode"],
        )
        manifest_names = [e["name"] for e in header["parameters"]]
        if manifest_names != list(graph.params):
            raise CorruptionError("parameter manifest does not match the graph")
        for entry in header["parameters"]:
            p = graph.params[entry["name"]]
            _read_payload(fh, "parameter", entry, p.value)
            p.trainable = bool(entry["trainable"])
            p.decay_exempt = bool(entry["decay_exempt"])
        buffer_names = [e["name"] for e in header["buffers"]]
        if buffer_names != list(graph.buffers):
            raise CorruptionError("buffer manifest does not match the graph")
        for entry in header["buffers"]:
            _read_payload(fh, "buffer", entry, graph.buffers[entry["name"]])
        if fh.read(1):
            raise CorruptionError("trailing bytes after declared payloads")
    return graph
