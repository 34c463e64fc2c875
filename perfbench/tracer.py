"""Outside-in layer tracer for visir.

The tracer wraps public functions of each visir module from outside: every
module attribute that is one of the traced functions is replaced by a
wrapper that records a span, and ``uninstall`` puts the originals back.
Nothing under ``src/`` changes.  Spans stay in memory (compact arrays) and
are written out once, at exit.

A span is (name, start, end, parent, run id).  The run id is the index of
the measured-loop cycle that caused it; set-up and check phases use
negative ids.  Self time is a span's duration minus the time its direct
children cover; calls are strictly nested on one thread, so that is the sum
of the children's durations.
"""

from __future__ import annotations

import os
import time
from array import array

import numpy as np

# Layer name -> traced public functions, in the order metrics are reported.
PRIMITIVES = (
    "add", "sub", "mul", "neg", "scale", "matmul", "transpose", "reshape", "narrow",
    "concat", "tensor_sum", "mean", "sine_activation", "gelu", "sigmoid", "softmax", "layer_norm",
)
REPORTED_PRIMITIVES = (
    "sine_activation", "matmul", "transpose", "add", "softmax", "layer_norm",
    "reshape", "narrow", "concat", "scale", "gelu", "sigmoid",
)
COPYING_PRIMITIVES = ("transpose", "reshape", "narrow", "concat")
LAYERS = {
    "autodiff": PRIMITIVES + ("backward", "adam_step"),
    "model": ("encode", "mhsa", "apply_stack", "decode_hr", "predict", "siren_inr_forward", "init_parameters"),
    "training": ("train", "evaluate", "sweep", "fit_siren_inr", "save_checkpoint", "load_checkpoint"),
    "metrics": ("evaluate_pair", "ssim"),
    "data": ("synth_field", "bicubic_downsample", "write_grid", "read_grid", "read_png", "write_png",
             "load_pairs", "build_dataset"),
    "cli": ("build_parser", "load_settings", "main"),
}
# Inclusive per-call times reported for the coarse layers.
PER_CALL = {
    "training": ("evaluate", "fit_siren_inr", "save_checkpoint", "load_checkpoint"),
    "metrics": ("evaluate_pair", "ssim"),
    "data": LAYERS["data"],
    "cli": LAYERS["cli"],
}


class Tracer:
    """Span recorder that patches visir's module namespaces while installed."""

    def __init__(self, package):
        self._modules = [package] + [getattr(package, layer) for layer in LAYERS]
        self._autodiff = package.autodiff
        self.names: list[str] = []
        self.name_ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_run = array("i")
        self.span_start = array("q")
        self.span_end = array("q")
        self._stack: list[int] = []
        self.run_id = -1
        # Counters keyed by name; only spans with run id >= 0 (the measured
        # loop) add to `window`, every span adds to `total`.
        self.window: dict[str, float] = {}
        self.total: dict[str, float] = {}
        self.sweep_cells = 0
        self._patches: list[tuple[object, str, object]] = []
        self._wrappers: dict[int, object] = {}
        for layer, functions in LAYERS.items():
            module = getattr(package, layer)
            for fname in functions:
                orig = getattr(module, fname)
                self._wrappers[id(orig)] = self._wrap(f"{layer}.{fname}", orig)

    @property
    def installed(self) -> bool:
        return bool(self._patches)

    def install(self) -> None:
        if self._patches:
            return
        for module in self._modules:
            for attr, value in list(vars(module).items()):
                wrapper = self._wrappers.get(id(value))
                if wrapper is not None:
                    self._patches.append((module, attr, value))
                    setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, value in self._patches:
            setattr(module, attr, value)
        self._patches.clear()

    def _count(self, key: str, value: float) -> None:
        self.total[key] = self.total.get(key, 0.0) + value
        if self.run_id >= 0:
            self.window[key] = self.window.get(key, 0.0) + value

    def _wrap(self, name: str, fn):
        nid = len(self.names)
        self.names.append(name)
        self.name_ids[name] = nid
        names, parents, runs = self.span_name, self.span_parent, self.span_run
        starts, ends, stack = self.span_start, self.span_end, self._stack
        clock = time.perf_counter_ns
        pre, post = self._hooks(name)

        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            runs.append(self.run_id)
            ends.append(0)
            stack.append(idx)
            if pre is not None:
                pre(args)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if post is not None:
                post(args, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    def _hooks(self, name: str):
        """Counters taken at a boundary, outside the span's own interval."""
        short = name.split(".", 1)[1]
        if name == "autodiff.backward":
            tape_length = self._autodiff.tape_length
            return (lambda args: self._count("tape_entries", tape_length())), None
        if name == "autodiff.matmul":
            def flops(args, out):
                m, k = args[0].shape
                self._count("matmul_flop", 2.0 * m * k * args[1].shape[1])
            return None, flops
        if short in COPYING_PRIMITIVES and name.startswith("autodiff."):
            return None, lambda args, out: self._count("copy_bytes", out.data.nbytes)
        if name == "data.write_grid":
            return None, lambda args, out: self._count("grid_bytes_written", np.asarray(args[1]).nbytes)
        if name == "data.read_grid":
            return None, lambda args, out: self._count("grid_bytes_read", out[0].nbytes)
        if name in ("training.save_checkpoint", "training.load_checkpoint"):
            path = 1 if name == "training.save_checkpoint" else 0

            def size(args, out):
                self._count("checkpoint_bytes", os.path.getsize(args[path]))
                self._count("checkpoint_files", 1)
            return None, size
        if name == "training.sweep":
            def cells(args, out):
                self.sweep_cells += len(out.cells)
            return None, cells
        return None, None

    # ------------------------------------------------------------------
    # Reduction and output
    # ------------------------------------------------------------------

    def _arrays(self):
        name = np.frombuffer(self.span_name, dtype=np.int32).copy()
        parent = np.frombuffer(self.span_parent, dtype=np.int32).copy()
        run = np.frombuffer(self.span_run, dtype=np.int32).copy()
        start = np.frombuffer(self.span_start, dtype=np.int64).copy()
        end = np.frombuffer(self.span_end, dtype=np.int64).copy()
        return name, parent, run, start, end

    def per_layer(self, unit_span: str, overhead_ratio: float) -> dict[str, float]:
        """Per-layer metrics.

        The unit is one call of `unit_span` in the traced window: a training
        step (`autodiff.backward`) or an image (`model.predict`).  autodiff
        and model figures are per unit over the window; training, metrics,
        data and cli times are inclusive milliseconds per call over every
        traced phase, set-up included.
        """
        name, parent, run, start, end = self._arrays()
        dur = (end - start).astype(np.float64) / 1e6
        child = np.zeros_like(dur)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        self_ms = dur - child
        in_window = run >= 0
        units = max(int((in_window & (name == self.name_ids[unit_span])).sum()), 1)

        def window_sum(fname, values):
            mask = in_window & (name == self.name_ids[fname])
            return float(values[mask].sum()), int(mask.sum())

        def per_call(fname):
            mask = name == self.name_ids[fname]
            n = int(mask.sum())
            return float(dur[mask].sum()) / n if n else 0.0

        out: dict[str, float] = {}
        backward_ms, backward_calls = window_sum("autodiff.backward", dur)
        out["autodiff.tape_entries_per_step"] = self.window.get("tape_entries", 0.0) / backward_calls \
            if backward_calls else 0.0
        prim_ids = np.array([self.name_ids[f"autodiff.{p}"] for p in PRIMITIVES])
        out["autodiff.primitive_calls_per_step"] = float((in_window & np.isin(name, prim_ids)).sum()) / units
        out["autodiff.backward.ms"] = backward_ms / units
        out["autodiff.adam_step.ms"] = window_sum("autodiff.adam_step", dur)[0] / units
        for p in REPORTED_PRIMITIVES:
            total_self, calls = window_sum(f"autodiff.{p}", self_ms)
            out[f"autodiff.{p}.self_ms"] = total_self / units
            out[f"autodiff.{p}.calls"] = calls / units
        out["autodiff.matmul.gflop"] = self.window.get("matmul_flop", 0.0) / 1e9 / units
        out["autodiff.copy_mb"] = self.window.get("copy_bytes", 0.0) / 1e6 / units
        for f in LAYERS["model"]:
            out[f"model.{f}.ms"] = window_sum(f"model.{f}", dur)[0] / units
        for f in PER_CALL["training"]:
            out[f"training.{f}.ms"] = per_call(f"training.{f}")
        sweep_mask = name == self.name_ids["training.sweep"]
        out["training.sweep.cell_ms"] = float(dur[sweep_mask].sum()) / self.sweep_cells if self.sweep_cells else 0.0
        files = self.total.get("checkpoint_files", 0.0)
        out["training.checkpoint_mb"] = self.total.get("checkpoint_bytes", 0.0) / 1e6 / files if files else 0.0
        for layer in ("metrics", "data", "cli"):
            for f in PER_CALL[layer]:
                out[f"{layer}.{f}.ms"] = per_call(f"{layer}.{f}")
        out["data.grid_mb_written"] = self.window.get("grid_bytes_written", 0.0) / 1e6 / units
        out["data.grid_mb_read"] = self.window.get("grid_bytes_read", 0.0) / 1e6 / units
        out["trace_overhead_ratio"] = overhead_ratio
        return out

    def write(self, path) -> int:
        """Write every span to a compressed .npz file; returns the span count."""
        name, parent, run, start, end = self._arrays()
        np.savez_compressed(path, names=np.array(self.names), name=name, parent=parent, run=run,
                            start_ns=start, end_ns=end)
        return len(name)
