"""Span tracing of usproc's layers from outside the package.

Each traced function is replaced, where its caller looks it up, by a wrapper
that records a span (layer, parent span, start, duration, time covered by
child spans) and, for a few layers, what the call did (pixels, iterations,
cap hits).  A layer's self time is its spans' durations minus the time their
child spans cover; the CLI's own time is the run's wall time minus the root
spans, so the self times of one run add up to its wall time.

Two pieces of work cannot be wrapped from outside and stay inside their
caller's self time: ``tof`` calls the private ``_dft_batch`` (FFT time stays
in ``tof.detect_envelope``), and ``beamform.mv`` binds ``estimate_covariance``
as a default argument when it is defined (covariance time stays in
``beamform.mv``).
"""

from __future__ import annotations

import functools
import importlib
import statistics
import tracemalloc
from time import perf_counter

# (module, attribute, layer).  The attribute is the name the caller looks up
# at call time: ``usproc.cli`` imports ``simulate`` by name, ``beamform``
# binds ``solve_hermitian``, ``clutter`` binds ``svd``, ``ulm`` binds
# ``ista`` and ``sparse`` binds ``operator_norm``; everything else is called
# as a module attribute.  ``__post_init__`` is looked up on the class by the
# dataclass ``__init__``.
BINDINGS = [
    ("usproc.cli", "simulate", "simulator.simulate"),
    ("usproc.tof", "compute_delays", "tof.compute_delays"),
    ("usproc.tof", "focus", "tof.focus"),
    ("usproc.tof", "detect_envelope", "tof.detect_envelope"),
    ("usproc.beamform", "das", "beamform.das"),
    ("usproc.beamform", "mv", "beamform.mv"),
    ("usproc.beamform", "cf_weighted_das", "beamform.cf_weighted_das"),
    ("usproc.beamform", "imap", "beamform.imap"),
    ("usproc.beamform", "solve_hermitian", "numerics.solve_hermitian"),
    ("usproc.clutter", "svd", "numerics.svd"),
    ("usproc.clutter", "rpca", "clutter.rpca"),
    ("usproc.clutter", "default_lambda1", "clutter.default_lambda1"),
    ("usproc.ulm", "ista", "sparse.ista"),
    ("usproc.sparse", "operator_norm", "numerics.operator_norm"),
    ("usproc.ulm", "localize_sparse", "ulm.localize_sparse"),
    ("usproc.ulm", "max_correlation", "ulm.max_correlation"),
    ("usproc.ulm", "detect_centroids", "ulm.detect_centroids"),
    ("usproc.ulm", "accumulate", "ulm.accumulate"),
    ("usproc.io", "read_urf1", "io.read_urf1"),
    ("usproc.io", "write_urf1", "io.write_urf1"),
    ("usproc.io", "read_uim1_seq", "io.read_uim1_seq"),
    ("usproc.io", "write_uim1", "io.write"),
    ("usproc.io", "write_uim1_seq", "io.write"),
    ("usproc.io", "write_pgm", "io.write"),
    ("usproc.io", "write_pgm_linear", "io.write"),
    ("usproc.io", "write_scatterer_field", "io.write"),
    ("usproc.io", "validate", "core.validate"),
    ("usproc.core.RfDataCube", "__post_init__", "core.validate"),
    ("usproc.core.FocusedTensor", "__post_init__", "core.validate"),
    ("usproc.core.BeamformedImage", "__post_init__", "core.validate"),
    ("usproc.metrics", "contrast_db", "metrics"),
    ("usproc.metrics", "cnr", "metrics"),
]

LAYERS = list(dict.fromkeys(layer for _, _, layer in BINDINGS))

# Layers whose per-call allocation peak is taken with tracemalloc.
PEAK_LAYERS = ("simulator.simulate", "tof.focus", "tof.compute_delays",
               "beamform.mv")


def _resolve(path: str):
    """Import ``a.b.C`` as module ``a.b`` attribute ``C`` (or module ``a.b.C``)."""
    try:
        return importlib.import_module(path)
    except ModuleNotFoundError:
        module, _, name = path.rpartition(".")
        return getattr(importlib.import_module(module), name)


def _probe_mv(args, kwargs, result):
    focused = args[0] if args else kwargs["focused"]
    nx, nz = focused.grid.shape
    return {"pixels": nx * nz}


def _probe_ista(args, kwargs, result):
    # ista returns (x_hat, iterations_used, final_objective)
    problem = args[0] if args else kwargs["problem"]
    iters = int(result[1])
    return {"iters": iters, "cap_hit": iters >= problem.max_iters}


def _probe_rpca(args, kwargs, result):
    # rpca returns (tissue, blood, iterations)
    return {"iters": int(result[2])}


PROBES = {"beamform.mv": _probe_mv, "sparse.ista": _probe_ista,
          "clutter.rpca": _probe_rpca}


class Span:
    __slots__ = ("layer", "parent", "start", "duration", "child_time", "info",
                 "peak_bytes")

    def __init__(self, layer, parent):
        self.layer = layer
        self.parent = parent
        self.start = 0.0
        self.duration = 0.0
        self.child_time = 0.0
        self.info = None
        self.peak_bytes = None


class Tracer:
    """Installs span wrappers at :data:`BINDINGS` and restores them."""

    def __init__(self, memory: bool = False):
        self.memory = memory
        self.spans: list[Span] = []
        self.unbound: list[str] = []
        self._stack: list[Span] = []
        self._undo: list[tuple[object, str, object]] = []

    def __enter__(self):
        for owner_path, attr, layer in BINDINGS:
            owner = _resolve(owner_path)
            original = getattr(owner, attr, None)
            if original is None:
                # A later refactor may drop a binding; its layer then reads 0.
                self.unbound.append(f"{owner_path}.{attr}")
                continue
            setattr(owner, attr, self._wrap(layer, original))
            self._undo.append((owner, attr, original))
        if self.memory:
            tracemalloc.start()
        return self

    def __exit__(self, *exc):
        if self.memory:
            tracemalloc.stop()
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        restored = all(getattr(owner, attr) is original
                       for owner, attr, original in self._undo)
        self._undo.clear()
        if not restored:
            raise RuntimeError("trace wrappers were not restored")
        return False

    def _wrap(self, layer, fn):
        probe = PROBES.get(layer)
        peak = self.memory and layer in PEAK_LAYERS
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(layer, stack[-1] if stack else None)
            spans.append(span)
            stack.append(span)
            if peak:
                base = tracemalloc.get_traced_memory()[0]
                tracemalloc.reset_peak()
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                span.start, span.duration = t0, t1 - t0
                if span.parent is not None:
                    span.parent.child_time += span.duration
            if peak:
                span.peak_bytes = tracemalloc.get_traced_memory()[1] - base
            if probe is not None:
                span.info = probe(args, kwargs, result)
            return result

        return traced


def layer_times(spans, wall: float) -> dict[str, float]:
    """Per-layer metrics of one traced run whose wall time was ``wall``."""
    self_s = dict.fromkeys(LAYERS, 0.0)
    inclusive = dict.fromkeys(LAYERS, 0.0)
    calls = dict.fromkeys(LAYERS, 0)
    root = 0.0
    for span in spans:
        self_s[span.layer] += span.duration - span.child_time
        inclusive[span.layer] += span.duration
        calls[span.layer] += 1
        if span.parent is None:
            root += span.duration
    info = {layer: [s.info for s in spans if s.layer == layer]
            for layer in PROBES}

    m = {f"{layer}.self_s": self_s[layer] for layer in LAYERS}
    m["cli.self_s"] = wall - root
    m["trace.wall_s"] = wall
    pixels = sum(i["pixels"] for i in info["beamform.mv"])
    m["beamform.mv.pixels_per_s"] = (pixels / inclusive["beamform.mv"]
                                     if pixels else 0.0)
    for layer in ("numerics.solve_hermitian", "numerics.svd", "sparse.ista",
                  "ulm.localize_sparse", "io.read_urf1"):
        m[f"{layer}.calls"] = calls[layer]
    for layer in ("sparse.ista", "clutter.rpca"):
        iters = sum(i["iters"] for i in info[layer])
        m[f"{layer}.iters"] = iters
        m[f"{layer}.s_per_iter"] = inclusive[layer] / iters if iters else 0.0
    m["sparse.ista.cap_hits"] = sum(i["cap_hit"] for i in info["sparse.ista"])
    per_call = [s.duration for s in spans if s.layer == "ulm.localize_sparse"]
    m["ulm.localize_sparse.p50_ms"] = (1e3 * statistics.median(per_call)
                                       if per_call else 0.0)
    return m


def layer_peaks(spans) -> dict[str, float]:
    """Largest per-call tracemalloc peak above the call's entry level, in MB."""
    peaks = dict.fromkeys(PEAK_LAYERS, 0.0)
    for span in spans:
        if span.peak_bytes is not None:
            peaks[span.layer] = max(peaks[span.layer], span.peak_bytes / 2**20)
    return {f"{layer}.peak_mb": value for layer, value in peaks.items()}
