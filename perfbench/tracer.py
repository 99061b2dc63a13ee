"""Instrumentation installed from outside the program: wrappers placed
around rmnlab's public functions by the benchmark's own code.

Two kinds of wrapper exist:

* `Tracer` records one span per call (name, start, end, parent, stage and
  two per-call work figures) into flat in-memory arrays and derives
  self-time and the per-layer metrics from them after the run.
* the probes in `workloads` only read the clock around a few coarse calls;
  they are all the untraced end-to-end run installs.

`Patcher` replaces a function at *every* rmnlab module that bound it at
import time (`rmnlab.trainer.forward`, `rmnlab.model.affine`,
`rmnlab.cli.evaluate`, the package namespace, ...) and restores the
originals in reverse order, so wrappers can be stacked and removed.
"""

from __future__ import annotations

import functools
import os
import sys
import time
from array import array

import numpy as np

# (home module, function) pairs the tracer wraps. Everything the workloads
# reach through the library is here, so named spans cover the run.
TRACED = {
    "data": ("read_archive", "splice", "mean_var_normalize"),
    "numerics": (
        "affine",
        "affine_backward",
        "relu",
        "relu_backward",
        "diag_scale",
        "diag_scale_backward",
        "softmax_xent",
    ),
    "model": (
        "forward",
        "backward",
        "streaming_forward",
        "model_input",
        "init_params",
        "save_checkpoint",
        "load_checkpoint",
    ),
    "trainer": ("fit", "make_minibatches", "sgd_step", "evaluate", "evaluate_streaming"),
}

# sgd_step touches three arrays per parameter entry (value, grad, velocity)
# and writes all three: the smallest traffic any implementation can have.
SGD_BYTES_PER_ENTRY = 6 * 8


def rmnlab_modules():
    return [m for n, m in sorted(sys.modules.items()) if n == "rmnlab" or n.startswith("rmnlab.")]


class Patcher:
    """Replace functions where they are bound; undo everything on close."""

    def __init__(self):
        self._undo: list[tuple[object, str, object]] = []

    def install(self, home, name: str, make_wrapper) -> None:
        current = getattr(home, name)
        wrapper = make_wrapper(current)
        for mod in rmnlab_modules():
            if mod.__dict__.get(name) is current:
                self._undo.append((mod, name, current))
                setattr(mod, name, wrapper)

    def close(self) -> None:
        while self._undo:
            mod, name, original = self._undo.pop()
            setattr(mod, name, original)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


def _arg(args, kwargs, pos: int, name: str, default=None):
    if len(args) > pos:
        return args[pos]
    return kwargs.get(name, default)


def self_times(parent: np.ndarray, dur: np.ndarray) -> np.ndarray:
    """Each span's duration minus the durations of its direct children."""
    children = np.zeros_like(dur)
    has_parent = parent >= 0
    np.add.at(children, parent[has_parent], dur[has_parent])
    return dur - children


class Tracer:
    """Span recorder. Spans live in flat arrays until `write`."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.names: list[str] = []
        self.stage_names: list[str] = []
        self._name_id: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stage = array("i")
        self.work = array("d")     # flops, rows, bytes: see _details
        self.useful = array("d")   # useful rows (forward/backward only)
        self._stack: list[int] = []
        self._stage_of: dict[int, int] = {}
        self._pinned: list = []    # keeps registered arrays alive so ids stay unique
        self._last_forward = (None, -1)  # (id of cache, span index) of the latest forward
        self._sgd_bytes: dict[int, float] = {}

    # -- recording ---------------------------------------------------------

    def _intern(self, name: str) -> int:
        if name not in self._name_id:
            self._name_id[name] = len(self.names)
            self.names.append(name)
        return self._name_id[name]

    def wrap(self, fn, qualname: str, detail=None):
        nid = self._intern(qualname)
        names, parents, starts, ends = self.name, self.parent, self.start, self.end
        stages, work, useful, stack = self.stage, self.work, self.useful, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(names)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            stages.append(-1)
            work.append(0.0)
            useful.append(0.0)
            ends.append(0.0)
            stack.append(i)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()
            if detail is not None:
                detail(i, args, kwargs, result)
            return result

        return traced

    def install(self, patcher: Patcher) -> None:
        import rmnlab

        details = self._details()
        for module_name, functions in TRACED.items():
            home = getattr(rmnlab, module_name)
            for fname in functions:
                qual = f"{module_name}.{fname}"
                patcher.install(home, fname, functools.partial(self.wrap, qualname=qual, detail=details.get(qual)))

    def register(self, params) -> None:
        """Name the stage of every weight matrix of a ModelParams."""
        stages = [("input_w", params.input_w), ("proj_w", params.proj_w)]
        stages += [(f"layer_w[{l}]", w) for l, w in enumerate(params.layer_w)]
        stages += [("out1_w", params.out1_w), ("out2_w", params.out2_w)]
        for label, p in stages:
            if label not in self.stage_names:
                self.stage_names.append(label)
            self._stage_of[id(p.value)] = self.stage_names.index(label)
            self._pinned.append(p.value)

    def _details(self) -> dict:
        work, useful, stage = self.work, self.useful, self.stage
        stage_of = self._stage_of

        def gemm(factor):
            def detail(i, args, kwargs, result):
                x, w = args[0], args[1]
                work[i] = factor * x.shape[0] * w.shape[0] * w.shape[1]
                stage[i] = stage_of.get(id(w), -1)
            return detail

        def forward(i, args, kwargs, result):
            rows = np.shape(_arg(args, kwargs, 2, "x"))[0]
            work[i] = useful[i] = rows
            self._last_forward = (id(result[0]), i)

        def backward(i, args, kwargs, result):
            cache = _arg(args, kwargs, 2, "cache")
            rows = cache.x.shape[0]
            window = _arg(args, kwargs, 5, "grad_window")
            kept = rows if window is None else window[1] - window[0]
            work[i], useful[i] = rows, kept
            # the forward that built this cache only served these rows
            if self._last_forward[0] == id(cache):
                useful[self._last_forward[1]] = kept

        def streaming(i, args, kwargs, result):
            work[i] = useful[i] = np.shape(_arg(args, kwargs, 2, "x"))[0]

        def sgd(i, args, kwargs, result):
            params = _arg(args, kwargs, 0, "params")
            key = id(params)
            if key not in self._sgd_bytes:
                self._pinned.append(params)
                total = sum(p.value.size for p in params.parameters())
                self._sgd_bytes[key] = float(SGD_BYTES_PER_ENTRY * total)
            work[i] = self._sgd_bytes[key]

        def file_size(pos, name):
            def detail(i, args, kwargs, result):
                work[i] = os.path.getsize(_arg(args, kwargs, pos, name))
            return detail

        def init(i, args, kwargs, result):
            self.register(result)

        def load(i, args, kwargs, result):
            work[i] = os.path.getsize(_arg(args, kwargs, 0, "path"))
            self.register(result.params)

        return {
            "numerics.affine": gemm(2),
            "numerics.affine_backward": gemm(4),
            "model.forward": forward,
            "model.backward": backward,
            "model.streaming_forward": streaming,
            "model.init_params": init,
            "model.load_checkpoint": load,
            "model.save_checkpoint": file_size(1, "path"),
            "data.read_archive": file_size(0, "path"),
            "trainer.sgd_step": sgd,
        }

    # -- results -----------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        start = np.array(self.start, dtype=np.float64)
        end = np.array(self.end, dtype=np.float64)
        parent = np.array(self.parent, dtype=np.int64)
        dur = end - start
        return {
            "name": np.array(self.name, dtype=np.int64),
            "parent": parent,
            "start": start,
            "end": end,
            "dur": dur,
            "self": self_times(parent, dur),
            "stage": np.array(self.stage, dtype=np.int64),
            "work": np.array(self.work, dtype=np.float64),
            "useful": np.array(self.useful, dtype=np.float64),
        }

    def write(self, path) -> None:
        """Store every span with its self-time; `root` is the index of the
        top-level span (one library call made by the workload) it belongs to."""
        a = self.arrays()
        root = np.arange(len(a["parent"]))
        for i, p in enumerate(a["parent"].tolist()):
            if p >= 0:
                root[i] = root[p]
        tmp = f"{path}.tmp.npz"
        np.savez(
            tmp,
            run_id=np.array(self.run_id),
            names=np.array(self.names),
            stage_names=np.array(self.stage_names),
            root=root,
            **{k: v for k, v in a.items() if k != "dur"},
        )
        os.replace(tmp, path)
