"""Span tracing of the kerrqgt modules from outside the package.

The tracer replaces every module-level function of the package with a thin
wrapper, at every module namespace that binds it (``eig_tridiagonal`` lives in
``kerrqgt.eigensolver`` and is also bound in ``kerrqgt.qgt``), so calls made
through any import path are seen.  Nothing inside ``src/`` changes.

A span records its name, its parent, the thread it ran on, wall-clock start
and end (``perf_counter``) and the thread's CPU clock at start and end
(``thread_time``).  Self time is a span's CPU time minus the CPU time of its
children on the same thread.  CPU time rather than wall time is used because
the sweep pool runs items on two threads that mostly wait for each other on
the interpreter lock: wall-clock self times of concurrent items would count
the same second twice.

Spans are kept in memory and written out when the benchmark ends.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import itertools
import statistics
import sys
import threading
import time
import types

LAYERS = {
    "kerrqgt.model": "model",
    "kerrqgt.eigensolver": "eigensolver",
    "kerrqgt.qgt": "qgt",
    "kerrqgt._fd": "qgt",
    "kerrqgt.scaling": "scaling",
    "kerrqgt.sweep": "sweep",
    "kerrqgt.cli": "cli",
    "kerrqgt.plots": "plots",
}

# Private helpers count toward their caller, except the manifest steps, which
# the sweep layer reports on their own.
PRIVATE_TRACED = {"_write_manifest", "_prepare"}
# Called once per serialized value; a span each would cost more than the work.
UNTRACED = {"fmt_float"}

OBSERVABLES = {"model.mean_photon", "model.rho", "model.tail_weight",
               "model.apply_gauge_phases", "model.photon_variance"}
FD_TOP = {"qgt.metric_overlap", "qgt.berry_plaquette", "qgt.fidelity_susceptibility"}
FD = FD_TOP | {"qgt.metric_fd", "qgt.curvature_fd", "qgt.susceptibility_fd"}
FITS = {"scaling.fit_shifted_power", "scaling.extrapolate_critical_point",
        "scaling.fit_power_law", "scaling.nu_convergence", "scaling.pair_slopes",
        "scaling.perturbation_dimensions"}
COLLAPSE = {"scaling.collapse_objective", "scaling.optimize_collapse"}
WRITE = {"sweep.write_csv", "sweep.dumps_json", "sweep.atomic_write_text"}
MANIFEST = {"sweep._write_manifest", "sweep.manifest_is_current",
            "sweep.sha256_file", "sweep._prepare"}
POOL_ITEM = "sweep.pool_item"

# Harness-level spans (one per CLI invocation) are named with this prefix.
STEP_PREFIX = "step."

CLI_STEPS = ("scaling", "k0", "plots", "rerun", "phase-diagram", "qgt")

PER_LAYER = [
    ("model.parity_blocks.calls", "count"),
    ("model.parity_blocks.self_s", "s"),
    ("model.observables.self_s", "s"),
    ("eigensolver.eig_tridiagonal.calls", "count"),
    ("eigensolver.eig_tridiagonal.self_s", "s"),
    ("eigensolver.eig_tridiagonal.p50_ms", "ms"),
    ("eigensolver.eig_tridiagonal.p90_ms", "ms"),
    ("eigensolver.eigenpairs", "count"),
    ("eigensolver.ground_state.calls", "count"),
    ("eigensolver.ground_state.self_s", "s"),
    ("eigensolver.worst_residual", "norm"),
    ("eigensolver.share", "ratio"),
    ("qgt.qgt_spectral.calls", "count"),
    ("qgt.qgt_spectral.self_s", "s"),
    ("qgt.qgt_spectral.p50_ms", "ms"),
    ("qgt.fd.calls", "count"),
    ("qgt.fd.self_s", "s"),
    ("qgt.fd.solves_per_call", "count"),
    ("scaling.locate_peak.calls", "count"),
    ("scaling.locate_peak.evals", "count"),
    ("scaling.locate_peak.total_s", "s"),
    ("scaling.sweep_family.points", "count"),
    ("scaling.sweep_family.total_s", "s"),
    ("scaling.collapse.total_s", "s"),
    ("scaling.collapse_objective.calls", "count"),
    ("scaling.fits.total_s", "s"),
    ("scaling.k0_pipeline.points", "count"),
    ("scaling.k0_pipeline.total_s", "s"),
    ("sweep.pool.items", "count"),
    ("sweep.pool.wall_s", "s"),
    ("sweep.pool.busy_ratio", "ratio"),
    ("sweep.write.bytes", "B"),
    ("sweep.write.self_s", "s"),
    ("sweep.manifest.self_s", "s"),
    *[(f"cli.{step}.wall_s", "s") for step in CLI_STEPS],
    ("plots.emit_plots.self_s", "s"),
    ("run.wall_s", "s"),
    ("run.ref_s", "s"),
    ("trace.overhead_ratio", "ratio"),
    ("trace.coverage", "ratio"),
]


class Span:
    __slots__ = ("id", "parent", "name", "thread", "t0", "t1", "c0", "c1", "info")

    def __init__(self, span_id, parent, name, thread):
        self.id, self.parent, self.name, self.thread = span_id, parent, name, thread
        self.t1 = self.c1 = None
        self.info = None
        self.c0 = time.thread_time()
        self.t0 = time.perf_counter()

    @property
    def wall(self) -> float:
        return self.t1 - self.t0

    @property
    def cpu(self) -> float:
        return self.c1 - self.c0

    def to_dict(self) -> dict:
        return {"id": self.id, "parent": self.parent, "name": self.name,
                "thread": self.thread, "start": self.t0, "end": self.t1,
                "cpu_s": self.cpu, **(self.info or {})}


class Tracer:
    """Records spans while ``recording`` is set; wrappers pass calls straight
    through otherwise, so correctness checks can call the library untraced."""

    def __init__(self):
        self.spans: list[Span] = []
        self.recording = False
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patches: list[tuple[types.ModuleType, str, object]] = []

    # -- span bookkeeping -------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str, parent: int | None = None) -> Span:
        stack = self._stack()
        if parent is None and stack:
            parent = stack[-1].id
        # next() on a count and list.append are single C-level operations,
        # so worker threads may open spans concurrently without a lock.
        span = Span(next(self._ids), parent, name, threading.get_ident())
        stack.append(span)
        self.spans.append(span)
        return span

    def close(self, span: Span) -> None:
        span.t1 = time.perf_counter()
        span.c1 = time.thread_time()
        self._stack().pop()

    @contextlib.contextmanager
    def step(self, label: str):
        """Span for one CLI invocation made by the harness."""
        span = self.open(STEP_PREFIX + label) if self.recording else None
        try:
            yield span
        finally:
            if span is not None:
                self.close(span)

    # -- patching ---------------------------------------------------------

    def install(self) -> None:
        """Wrap the traced modules' functions wherever they are bound."""
        modules = {name: mod for name, mod in list(sys.modules.items())
                   if (name == "kerrqgt" or name.startswith("kerrqgt."))
                   and isinstance(mod, types.ModuleType)}
        wrappers = {}
        for mod_name, layer in LAYERS.items():
            module = modules.get(mod_name)
            if module is None:
                continue
            for attr, value in vars(module).items():
                traced = (not attr.startswith("_") or attr in PRIVATE_TRACED)
                if (traced and attr not in UNTRACED and inspect.isfunction(value)
                        and value.__module__ == mod_name):
                    wrappers[id(value)] = self._wrap(f"{layer}.{attr}", value)
        for module in modules.values():
            for attr, value in list(vars(module).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None and wrapper.__wrapped__ is value:
                    self._patches.append((module, attr, value))
                    setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    def _wrap(self, name: str, fn):
        tracer = self
        adapt = {"sweep.ordered_parallel_map": self._adapt_pool,
                 "scaling.locate_peak": self._adapt_peak}.get(name)
        describe = {"eigensolver.eig_tridiagonal": _describe_spectrum,
                    "sweep.atomic_write_text": _describe_write}.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.recording:
                return fn(*args, **kwargs)
            span = tracer.open(name)
            try:
                if adapt is not None:
                    args, kwargs = adapt(span, args, kwargs)
                result = fn(*args, **kwargs)
            finally:
                tracer.close(span)
            if describe is not None:
                describe(span, args, kwargs, result)
            return result

        return wrapper

    def _adapt_pool(self, span, args, kwargs):
        """Wrap the mapped function so that each item gets a span whose parent
        is the pool call, whichever thread runs it."""
        fn, items, threads = (list(args) + [None] * 3)[:3]
        fn = kwargs.pop("fn", fn)
        items = kwargs.pop("items", items)
        threads = kwargs.pop("threads", threads)
        span.info = {"items": len(items), "threads": int(threads),
                     "pooled": bool(threads > 1 and len(items) > 1)}
        tracer = self

        def item(x):
            item_span = tracer.open(POOL_ITEM, parent=span.id)
            try:
                return fn(x)
            finally:
                tracer.close(item_span)

        return (item, items, threads), kwargs

    def _adapt_peak(self, span, args, kwargs):
        evaluate = kwargs.pop("evaluate", args[0] if args else None)
        span.info = {"evals": 0}

        def counted(x):
            span.info["evals"] += 1
            return evaluate(x)

        return (counted, *args[1:]), kwargs


def _describe_spectrum(span, args, kwargs, result):
    lam = getattr(result, "eigenvalues", None)
    if lam is not None:
        span.info = {"eigenpairs": len(lam),
                     "residual": float(getattr(result, "max_residual", 0.0)),
                     "scale": max(1.0, float(abs(lam).max())) if len(lam) else 1.0}


def _describe_write(span, args, kwargs, result):
    text = kwargs.get("text", args[1] if len(args) > 1 else "")
    span.info = {"bytes": len(text.encode())}


# ---------------------------------------------------------------------------
# Per-layer metrics of one traced iteration

def _as_set(names) -> set:
    return {names} if isinstance(names, str) else names


class SpanIndex:
    def __init__(self, spans: list[Span]):
        self.spans = [s for s in spans if s.t1 is not None]
        self.by_id = {s.id: s for s in self.spans}
        self.child_cpu: dict[int, float] = {}
        for s in self.spans:
            parent = self.by_id.get(s.parent)
            if parent is not None and parent.thread == s.thread:
                self.child_cpu[parent.id] = self.child_cpu.get(parent.id, 0.0) + s.cpu

    def named(self, names) -> list[Span]:
        names = _as_set(names)
        return [s for s in self.spans if s.name in names]

    def self_cpu(self, span: Span) -> float:
        return span.cpu - self.child_cpu.get(span.id, 0.0)

    def self_s(self, names) -> float:
        return sum(self.self_cpu(s) for s in self.named(names))

    def ancestors(self, span: Span):
        parent = self.by_id.get(span.parent)
        while parent is not None:
            yield parent
            parent = self.by_id.get(parent.parent)

    def total_s(self, names) -> float:
        """Wall time of the outermost spans of a group (nested calls counted once)."""
        names = _as_set(names)
        return sum(s.wall for s in self.named(names)
                   if not any(a.name in names for a in self.ancestors(s)))

    def under(self, name: str, ancestor_names) -> list[Span]:
        ancestor_names = _as_set(ancestor_names)
        return [s for s in self.named(name)
                if any(a.name in ancestor_names for a in self.ancestors(s))]


def _quantile_ms(values: list[float], q: int) -> float:
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0] * 1e3
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1] * 1e3


def layer_metrics(spans: list[Span], cpu: float) -> dict[str, float]:
    """Per-layer figures of one traced iteration.

    ``cpu`` is the process CPU time the iteration's CLI calls took.  Shares
    (``eigensolver.share``, ``trace.coverage``) are taken of it rather than of
    wall time, because pool threads overlap in wall time.
    """
    ix = SpanIndex(spans)
    eig = ix.named("eigensolver.eig_tridiagonal")
    qgt = ix.named("qgt.qgt_spectral")
    fd_top = ix.named(FD_TOP)
    peaks = ix.named("scaling.locate_peak")
    pools = [s for s in ix.named("sweep.ordered_parallel_map") if s.info and s.info["pooled"]]
    pool_ids = {s.id for s in pools}
    pool_items = [s for s in ix.named(POOL_ITEM) if s.parent in pool_ids]
    pool_capacity = sum(s.wall * s.info["threads"] for s in pools)
    eigensolver_spans = [s for s in ix.spans if s.name.startswith("eigensolver.")]
    named_spans = [s for s in ix.spans if not s.name.startswith(STEP_PREFIX)]
    return {
        "model.parity_blocks.calls": len(ix.named("model.parity_blocks")),
        "model.parity_blocks.self_s": ix.self_s("model.parity_blocks"),
        "model.observables.self_s": ix.self_s(OBSERVABLES),
        "eigensolver.eig_tridiagonal.calls": len(eig),
        "eigensolver.eig_tridiagonal.self_s": ix.self_s("eigensolver.eig_tridiagonal"),
        "eigensolver.eig_tridiagonal.p50_ms": _quantile_ms([s.cpu for s in eig], 50),
        "eigensolver.eig_tridiagonal.p90_ms": _quantile_ms([s.cpu for s in eig], 90),
        "eigensolver.eigenpairs": sum((s.info or {}).get("eigenpairs", 0) for s in eig),
        "eigensolver.ground_state.calls": len(ix.named("eigensolver.ground_state")),
        "eigensolver.ground_state.self_s": ix.self_s("eigensolver.ground_state"),
        "eigensolver.worst_residual": max(
            [(s.info or {}).get("residual", 0.0) for s in eig], default=0.0),
        "eigensolver.share": sum(ix.self_cpu(s) for s in eigensolver_spans) / cpu,
        "qgt.qgt_spectral.calls": len(qgt),
        "qgt.qgt_spectral.self_s": ix.self_s("qgt.qgt_spectral"),
        "qgt.qgt_spectral.p50_ms": _quantile_ms([s.cpu for s in qgt], 50),
        "qgt.fd.calls": len(fd_top),
        "qgt.fd.self_s": ix.self_s(FD),
        "qgt.fd.solves_per_call": (len(ix.under("eigensolver.eig_tridiagonal", FD_TOP))
                                   / len(fd_top) if fd_top else 0.0),
        "scaling.locate_peak.calls": len(peaks),
        "scaling.locate_peak.evals": sum(s.info["evals"] for s in peaks),
        "scaling.locate_peak.total_s": ix.total_s("scaling.locate_peak"),
        "scaling.sweep_family.points": len(ix.under("qgt.qgt_spectral",
                                                    "scaling.sweep_family")),
        "scaling.sweep_family.total_s": ix.total_s("scaling.sweep_family"),
        "scaling.collapse.total_s": ix.total_s(COLLAPSE),
        "scaling.collapse_objective.calls": len(ix.named("scaling.collapse_objective")),
        "scaling.fits.total_s": ix.total_s(FITS),
        "scaling.k0_pipeline.points": len(ix.under("qgt.qgt_spectral",
                                                   "scaling.k0_pipeline")),
        "scaling.k0_pipeline.total_s": ix.total_s("scaling.k0_pipeline"),
        "sweep.pool.items": len(pool_items),
        "sweep.pool.wall_s": sum(s.wall for s in pools),
        "sweep.pool.busy_ratio": (sum(s.cpu for s in pool_items) / pool_capacity
                                  if pool_capacity else 0.0),
        "sweep.write.bytes": sum((s.info or {}).get("bytes", 0)
                                 for s in ix.named("sweep.atomic_write_text")),
        "sweep.write.self_s": ix.self_s(WRITE),
        "sweep.manifest.self_s": ix.self_s(MANIFEST),
        "plots.emit_plots.self_s": ix.self_s("plots.emit_plots"),
        "trace.coverage": sum(ix.self_cpu(s) for s in named_spans) / cpu,
    }


def step_counts(spans: list[Span], label: str, name: str) -> int:
    """Number of ``name`` spans made during the harness step ``label``."""
    ix = SpanIndex(spans)
    return len(ix.under(name, STEP_PREFIX + label))
