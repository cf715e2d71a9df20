"""Exclusive host time per simulator layer, measured from outside.

The traced pass wraps public functions of each layer (the table below)
with a stack-based timer: a call's *self* time is its wall time minus
the wall time of the wrapped calls it made.  Nothing inside ``repro``
changes; :meth:`Tracer.installed` swaps the wrappers in and puts the
original objects back on exit.

Each wrapper costs host time of its own: part of it lands inside the
wrapped interval and inflates the callee's self time, the rest lands
in the caller's.  So the tracer also counts, per layer, the wrapped
calls made directly from that layer's own calls; with a per-call cost
split into ``inner`` and ``outer`` parts, a layer's self time less
``calls * inner + child_calls * outer`` is wrapper-free.
:func:`calibrate` times an empty wrapped call to find that split.
"""

from __future__ import annotations

import contextlib
import importlib
import inspect
import sys
import time
from typing import Callable, Dict, Iterator, List, Sequence, Tuple

#: Layer name -> the public functions whose calls it covers, as
#: ``(module, pattern)``.  A pattern is ``Class.method``,
#: ``Class.prefix*`` (every method starting with the prefix),
#: ``Class.*`` (every public method), ``*.method`` (that method on
#: every class of the module that defines it) or a module-level
#: ``function`` (rebound in every ``repro`` module that imported it).
LAYERS: Tuple[Tuple[str, Tuple[Tuple[str, str], ...]], ...] = (
    ("spark.rdd", (("repro.spark.rdd", "*.compute_partition"),)),
    (
        "spark.scheduler",
        tuple(
            ("repro.spark.scheduler", f"Scheduler.{m}")
            for m in ("run_action", "run_take", "get_records", "fetch_shuffle")
        ),
    ),
    ("spark.partition", (("repro.spark.partition", "HashPartitioner.bucket_into"),)),
    (
        "spark.columnar",
        (("repro.spark.columnar", "ColumnBatch.from_records"),)
        + tuple(
            ("repro.spark.columnar", f)
            for f in (
                "apply_reduce_kernel",
                "bucket_into_segments",
                "split_batch",
                "concat_segments",
            )
        ),
    ),
    (
        "spark.shuffle",
        (
            ("repro.spark.shuffle", "ShuffleManager.write"),
            ("repro.spark.shuffle", "ShuffleManager.read"),
        ),
    ),
    (
        "spark.block_manager",
        tuple(
            ("repro.spark.block_manager", f"BlockManager.{m}")
            for m in ("put", "get", "unpersist", "ensure_capacity", "kill")
        ),
    ),
    (
        "spark.materialize",
        (
            ("repro.spark.materialize", "Materializer.materialize"),
            ("repro.spark.materialize", "Materializer.release"),
        ),
    ),
    (
        "spark.serialized",
        (
            ("repro.spark.serialized", "SerializedColumnBatch.pack"),
            ("repro.spark.serialized", "SerializedColumnBatch.unpack"),
        ),
    ),
    (
        "heap.alloc",
        (
            ("repro.heap.managed_heap", "ManagedHeap.allocate_*"),
            ("repro.heap.managed_heap", "ManagedHeap.new_object"),
        ),
    ),
    ("heap.regions", (("repro.heap.regions", "RegionManager.*"),)),
    ("gc.minor", (("repro.gc.collector", "Collector.collect_minor"),)),
    ("gc.major", (("repro.gc.collector", "Collector.collect_major"),)),
    (
        "gc.charging",
        (
            ("repro.gc.charging", "ChargeAccumulator.flush"),
            ("repro.gc.charging", "ChargeAccumulator.visit_all"),
        ),
    ),
    (
        "memory.machine",
        tuple(
            ("repro.memory.machine", f"Machine.{m}")
            for m in ("access", "run_rows", "run_batch", "transfer")
        ),
    ),
    (
        "core.static_analysis",
        (
            ("repro.core.static_analysis", "analyze_program"),
            ("repro.core.static_analysis", "classify_lifetimes"),
        ),
    ),
    ("workloads", (("repro.workloads.registry", "build_workload"),)),
    ("faults", (("repro.faults.injector", "FaultInjector.*"),)),
    ("cluster.executor", (("repro.cluster.executor", "Executor.run_job"),)),
    ("cluster.service", (("repro.cluster.service", "ShuffleService.*"),)),
)

#: Pseudo-layers reported next to the wrapped ones: the post-op cycle
#: collection, and op wall time no wrapped call covers.
RECLAIM = "host.reclaim"
UNATTRIBUTED = "unattributed"

#: Wrapped functions whose non-None results the ratios in the report
#: count (block-manager hits, successful columnar packs) and the
#: shuffle-service calls the remote-fetch ratio divides.
BLOCK_GET = "repro.spark.block_manager:BlockManager.get"
COLUMNAR_PACK = "repro.spark.columnar:ColumnBatch.from_records"
SERVICE_REMOTE = "repro.cluster.service:ShuffleService.record_remote"
SERVICE_LOCAL = "repro.cluster.service:ShuffleService.record_local"


def _class_targets(cls: type, pattern: str) -> List[str]:
    """Method names of ``cls`` (own ``__dict__`` only) matching a
    ``method``, ``prefix*`` or ``*`` pattern; properties are skipped."""
    names = []
    for name, obj in vars(cls).items():
        wrappable = isinstance(obj, (classmethod, staticmethod))
        if not (wrappable or inspect.isfunction(obj)):
            continue
        if pattern == "*":
            match = not name.startswith("_")
        elif pattern.endswith("*"):
            match = name.startswith(pattern[:-1])
        else:
            match = name == pattern
        if match:
            names.append(name)
    return names


def resolve(module_name: str, pattern: str) -> List[Tuple[object, str, str]]:
    """The ``(owner, attribute, label)`` triples one pattern names.

    Owners are classes or modules; a module-level function yields one
    triple for its own module and one per other ``repro`` module whose
    namespace holds that function.
    """
    module = importlib.import_module(module_name)
    head, _, tail = pattern.partition(".")
    if not tail:
        fn = getattr(module, head)
        return [
            (mod, head, f"{module_name}:{head}")
            for mod_name, mod in sorted(sys.modules.items())
            if (mod is module or mod_name == "repro" or mod_name.startswith("repro."))
            and getattr(mod, head, None) is fn
        ]
    if head == "*":
        classes = [
            obj
            for obj in vars(module).values()
            if inspect.isclass(obj) and obj.__module__ == module_name
        ]
    else:
        classes = [getattr(module, head)]
    return [
        (cls, name, f"{module_name}:{cls.__name__}.{name}")
        for cls in classes
        for name in _class_targets(cls, tail)
    ]


class Tracer:
    """Exclusive-time counters for every layer in :data:`LAYERS`.

    Per layer, ``self_ns`` accumulates exclusive wrapped time and
    ``child_calls`` the wrapped calls made directly from the layer's
    own calls; per wrapped function label, ``fn_calls`` and ``fn_some``
    count calls and non-None results.  Counters only grow; callers diff
    :meth:`snapshot` values around the region they measure.
    """

    def __init__(
        self, layers: Sequence[Tuple[str, Sequence[Tuple[str, str]]]] = LAYERS
    ) -> None:
        self.layers = tuple(layers)
        self.names = [name for name, _ in self.layers]
        self.self_ns = [0] * len(self.layers)
        self.child_calls = [0] * len(self.layers)
        self.labels: List[str] = []
        self.fn_layer: List[int] = []
        self.fn_calls: List[int] = []
        self.fn_some: List[int] = []
        self._label_index: Dict[str, int] = {}
        #: One ``[child wall ns, child calls]`` frame per live call.
        self._stack: List[List[int]] = []

    def _function_id(self, label: str, layer: int) -> int:
        fid = self._label_index.get(label)
        if fid is None:
            fid = self._label_index[label] = len(self.labels)
            self.labels.append(label)
            self.fn_layer.append(layer)
            self.fn_calls.append(0)
            self.fn_some.append(0)
        return fid

    def wrap(self, layer: int, label: str, fn: Callable) -> Callable:
        """``fn`` timed into ``layer`` (exclusive of nested wrapped
        calls) and counted under ``label``."""
        fid = self._function_id(label, layer)
        stack = self._stack
        self_ns = self.self_ns
        child_calls = self.child_calls
        fn_calls = self.fn_calls
        fn_some = self.fn_some
        clock = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            frame = [0, 0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                self_ns[layer] += elapsed - frame[0]
                child_calls[layer] += frame[1]
                fn_calls[fid] += 1
                if stack:
                    parent = stack[-1]
                    parent[0] += elapsed
                    parent[1] += 1
            if result is not None:
                fn_some[fid] += 1
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", "wrapper")
        wrapper.__qualname__ = getattr(fn, "__qualname__", "wrapper")
        return wrapper

    def snapshot(self) -> Tuple[List[int], List[int], List[int], List[int]]:
        """Copies of (per-layer self ns, per-layer child calls,
        per-function calls, per-function non-None results)."""
        return (
            list(self.self_ns),
            list(self.child_calls),
            list(self.fn_calls),
            list(self.fn_some),
        )

    @contextlib.contextmanager
    def installed(self) -> Iterator["Tracer"]:
        """Swap every layer's wrappers in; restore the originals on exit.

        Targets that no longer exist are reported on stderr and skipped
        (their layer then reads zero calls).
        """
        patches: List[Tuple[object, str, object]] = []
        try:
            for layer, (name, targets) in enumerate(self.layers):
                for module_name, pattern in targets:
                    try:
                        found = resolve(module_name, pattern)
                    except (ImportError, AttributeError):
                        found = []
                    if not found:
                        print(
                            f"bench: layer {name}: {module_name}:{pattern} not found",
                            file=sys.stderr,
                        )
                    for owner, attr, label in found:
                        original = vars(owner)[attr]
                        if isinstance(original, (classmethod, staticmethod)):
                            replacement = type(original)(
                                self.wrap(layer, label, original.__func__)
                            )
                        else:
                            replacement = self.wrap(layer, label, original)
                        patches.append((owner, attr, original))
                        setattr(owner, attr, replacement)
            yield self
        finally:
            for owner, attr, original in reversed(patches):
                setattr(owner, attr, original)


def calibrate(calls: int = 20000, repeats: int = 5) -> Tuple[float, float]:
    """Host cost of one wrapper around an empty function, in ns.

    Returns ``(inner_ns, outer_ns)``: the part of the cost inside the
    wrapped interval (it inflates the callee's self time) and the part
    outside it (the caller sees it).  Each is the minimum over
    ``repeats`` timings of ``calls`` nested calls.
    """
    clock = time.perf_counter_ns

    def empty(x):
        return None

    best_total = best_inner = float("inf")
    for _ in range(repeats):
        tracer = Tracer(layers=(("calibration", ()),))
        wrapped = tracer.wrap(0, "empty", empty)
        # Nested under a live frame: the common case, and it takes the
        # wrapper's ``if stack`` branch.
        tracer._stack.append([0, 0])
        start = clock()
        for i in range(calls):
            empty(i)
        plain = clock() - start
        start = clock()
        for i in range(calls):
            wrapped(i)
        traced = clock() - start
        tracer._stack.pop()
        best_total = min(best_total, (traced - plain) / calls)
        best_inner = min(best_inner, (tracer.self_ns[0] - plain) / calls)
    inner = max(0.0, best_inner)
    return inner, max(0.0, best_total - inner)
