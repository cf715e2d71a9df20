"""Parallel experiment execution with a content-addressed result cache.

Every figure and table of the reproduction is a grid of independent,
deterministic ``(workload, SystemConfig, scale)`` points — exactly the
embarrassingly-parallel shape a process pool eats for breakfast.  This
module provides:

* :class:`ExperimentPoint` — one grid point, picklable, with a stable
  content fingerprint (config + workload + scale + code version).
* :class:`ResultCache` — a content-addressed on-disk cache so repeated
  sweeps and CI re-runs skip completed points entirely.
* :class:`ExperimentEngine` — fans points across
  :class:`~concurrent.futures.ProcessPoolExecutor` workers, consults the
  cache first, and emits structured :class:`EngineEvent` progress events
  for live CLI status.

Parallel output is bit-identical to serial output: the simulation is
fully deterministic (seeded RNGs, no wall-clock reads) and results carry
no process-local state once the live :class:`~repro.spark.context.
SparkContext` handle is dropped (see
:meth:`~repro.harness.experiment.ExperimentResult.without_runtime_handles`).
"""

from __future__ import annotations

import enum
import hashlib
import json
import os
import pathlib
import pickle
import time
from dataclasses import dataclass, field
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Tuple,
)

import repro
from repro.config import SystemConfig
from repro.errors import ConfigError
from repro.faults import FaultPlan
from repro.harness.experiment import ExperimentResult, run_experiment

#: Signature of the progress callback: ``fn(event)``.
EventCallback = Callable[["EngineEvent"], None]

_code_version: Optional[str] = None


def code_version() -> str:
    """A digest of every ``repro`` source file, cached per process.

    Cache entries embed this version so any code change — a new cost
    rule, a GC fix — invalidates every cached result automatically.
    """
    global _code_version
    if _code_version is None:
        digest = hashlib.sha256()
        root = pathlib.Path(repro.__file__).resolve().parent
        for path in sorted(root.rglob("*.py")):
            digest.update(path.relative_to(root).as_posix().encode())
            digest.update(b"\0")
            digest.update(path.read_bytes())
            digest.update(b"\0")
        _code_version = digest.hexdigest()
    return _code_version


@dataclass
class ExperimentPoint:
    """One grid point: a workload under a configuration at a scale.

    Attributes:
        workload: Table 4 abbreviation (PR, KM, ...).
        config: the node configuration to run under.
        scale: joint data/heap scale factor.
        workload_kwargs: extra keyword arguments for the workload builder
            (e.g. ``{"iterations": 3}``).
        trace: record the heap event stream (see :mod:`repro.trace`) and
            carry it on the result as ``trace_events``.
        faults: inject this :class:`~repro.faults.plan.FaultPlan` and
            carry the measured report on the result as
            ``fault_report``.  Part of the fingerprint, so faulted and
            fault-free runs never share a cache entry.
    """

    workload: str
    config: SystemConfig
    scale: float = 1.0
    workload_kwargs: Dict[str, Any] = field(default_factory=dict)
    trace: bool = False
    faults: Optional[FaultPlan] = None

    @property
    def label(self) -> str:
        """Human-readable ``PR [panthera]`` style label."""
        return f"{self.workload} [{self.config.policy.value}]"

    def fingerprint(self) -> str:
        """Stable content hash of this point plus the code version.

        Two points share a fingerprint iff they would produce identical
        results: same workload, same configuration (every field), same
        scale, same workload arguments, same simulator source.

        The dataset memo in :mod:`repro.workloads.datasets` needs no
        extra key material here: its cache key (scale, seed) is a pure
        function of ``(workload, scale, workload_kwargs)``, which this
        payload already covers.
        """
        payload = {
            "code": code_version(),
            "config": self.config.to_dict(),
            "faults": self.faults.to_dict() if self.faults is not None else None,
            "scale": self.scale,
            "trace": self.trace,
            "workload": self.workload,
            "workload_kwargs": dict(sorted(self.workload_kwargs.items())),
        }
        canonical = json.dumps(payload, sort_keys=True, default=_key_material)
        return hashlib.sha256(canonical.encode()).hexdigest()


def _key_material(value: Any) -> Any:
    """``json.dumps`` fallback for the fingerprint payload.

    Enum members (``StorageLevel``, ``PolicyName``) encode by value.
    Anything else that is not JSON raises: a ``repr`` fallback would key
    the cache on memory addresses (functions, arbitrary objects) and
    silently miss on every run.
    """
    if isinstance(value, enum.Enum):
        return value.value
    raise ConfigError(
        f"cannot fingerprint {type(value).__name__} value {value!r}: "
        "experiment points must hold JSON values or Enum members"
    )


@dataclass
class EngineEvent:
    """One structured progress event from an engine run.

    Attributes:
        kind: ``"start"`` (point dispatched), ``"done"`` (point executed)
            or ``"cached"`` (point satisfied from the result cache).
        index: position of the point in the submitted sequence.
        point: the point the event describes.
        seconds: wall-clock execution time (``done`` events only).
        completed: points finished (executed or cached) so far.
        total: total points in this run.
    """

    kind: str
    index: int
    point: ExperimentPoint
    seconds: float
    completed: int
    total: int


@dataclass
class EngineStats:
    """Counters for one :meth:`ExperimentEngine.run` call.

    Attributes:
        executed: points actually simulated.
        cached: points satisfied from the result cache.
        wall_s: wall-clock duration of the whole run.
    """

    executed: int = 0
    cached: int = 0
    wall_s: float = 0.0


class ResultCache:
    """Content-addressed on-disk cache of experiment results.

    Results are pickled under ``<root>/<aa>/<fingerprint>.pkl`` (with a
    human-readable JSON sidecar of the scalar metrics) where the
    fingerprint hashes the full configuration, workload, scale and code
    version — so a cache never returns a stale result for changed code
    or a tweaked config.
    """

    def __init__(self, root: os.PathLike) -> None:
        self.root = pathlib.Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.hits = 0
        self.misses = 0

    def path_for(self, fingerprint: str) -> pathlib.Path:
        """Where a fingerprint's pickle lives (sharded by prefix)."""
        return self.root / fingerprint[:2] / f"{fingerprint}.pkl"

    def get(self, fingerprint: str) -> Optional[ExperimentResult]:
        """The cached result, or None on a miss (or unreadable entry)."""
        path = self.path_for(fingerprint)
        try:
            with open(path, "rb") as fh:
                result = pickle.load(fh)
        except (OSError, pickle.UnpicklingError, EOFError, AttributeError):
            self.misses += 1
            return None
        self.hits += 1
        return result

    def put(self, fingerprint: str, result: ExperimentResult) -> None:
        """Store one result atomically (tmp file + rename)."""
        from repro.harness.export import result_to_dict

        path = self.path_for(fingerprint)
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_suffix(f".tmp.{os.getpid()}")
        with open(tmp, "wb") as fh:
            pickle.dump(result, fh, protocol=pickle.HIGHEST_PROTOCOL)
        os.replace(tmp, path)
        sidecar = path.with_suffix(".json")
        sidecar.write_text(
            json.dumps(result_to_dict(result), indent=2, sort_keys=True) + "\n"
        )


def _execute_point(point: ExperimentPoint) -> Tuple[ExperimentResult, float]:
    """Worker entry: run one point and time it (also used inline)."""
    started = time.perf_counter()
    result = run_experiment(
        point.workload,
        point.config,
        scale=point.scale,
        workload_kwargs=point.workload_kwargs or None,
        trace=point.trace,
        faults=point.faults,
    )
    return result.without_runtime_handles(), time.perf_counter() - started


class ExperimentEngine:
    """Run experiment points across a process pool, cache-first.

    Args:
        jobs: worker processes (1 = run inline in this process; results
            are bit-identical either way).
        cache_dir: directory for the content-addressed result cache
            (None disables caching).
        on_event: optional callback receiving :class:`EngineEvent`
            progress events.
    """

    def __init__(
        self,
        jobs: int = 1,
        cache_dir: Optional[os.PathLike] = None,
        on_event: Optional[EventCallback] = None,
    ) -> None:
        if jobs < 1:
            raise ValueError("jobs must be >= 1")
        self.jobs = jobs
        self.cache = ResultCache(cache_dir) if cache_dir else None
        self.on_event = on_event
        self.stats = EngineStats()

    def _emit(self, event: EngineEvent) -> None:
        if self.on_event is not None:
            self.on_event(event)

    def run(self, points: Iterable[ExperimentPoint]) -> List[ExperimentResult]:
        """Run every point, in submission order, cache-first.

        Returns results positionally aligned with the input points.
        Points already in the cache are never executed; fresh results are
        written back so the next run can skip them.
        """
        todo = list(points)
        total = len(todo)
        started = time.perf_counter()
        self.stats = EngineStats()
        results: List[Optional[ExperimentResult]] = [None] * total
        completed = 0

        pending: List[Tuple[int, ExperimentPoint, str]] = []
        for index, point in enumerate(todo):
            fingerprint = point.fingerprint()
            cached = self.cache.get(fingerprint) if self.cache else None
            if cached is not None:
                results[index] = cached
                self.stats.cached += 1
                completed += 1
                self._emit(EngineEvent("cached", index, point, 0.0, completed, total))
            else:
                pending.append((index, point, fingerprint))

        if self.jobs <= 1 or len(pending) <= 1:
            completed = self._run_inline(pending, results, completed, total)
        else:
            completed = self._run_pool(pending, results, completed, total)

        self.stats.wall_s = time.perf_counter() - started
        return [r for r in results if r is not None]

    def _finish(
        self,
        index: int,
        point: ExperimentPoint,
        fingerprint: str,
        result: ExperimentResult,
        seconds: float,
        results: List[Optional[ExperimentResult]],
        completed: int,
        total: int,
    ) -> int:
        """Record one executed result: cache it, count it, announce it."""
        results[index] = result
        if self.cache is not None:
            self.cache.put(fingerprint, result)
        self.stats.executed += 1
        completed += 1
        self._emit(EngineEvent("done", index, point, seconds, completed, total))
        return completed

    def _run_inline(
        self,
        pending: List[Tuple[int, ExperimentPoint, str]],
        results: List[Optional[ExperimentResult]],
        completed: int,
        total: int,
    ) -> int:
        """Serial path: execute pending points in this process."""
        for index, point, fingerprint in pending:
            self._emit(EngineEvent("start", index, point, 0.0, completed, total))
            result, seconds = _execute_point(point)
            completed = self._finish(
                index, point, fingerprint, result, seconds, results, completed, total
            )
        return completed

    def _run_pool(
        self,
        pending: List[Tuple[int, ExperimentPoint, str]],
        results: List[Optional[ExperimentResult]],
        completed: int,
        total: int,
    ) -> int:
        """Parallel path: fan pending points across worker processes."""
        # Imported here: a serial run never loads the pool's machinery
        # (concurrent.futures pulls in multiprocessing).
        from concurrent.futures import (
            FIRST_COMPLETED,
            ProcessPoolExecutor,
            wait,
        )

        workers = min(self.jobs, len(pending))
        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = {}
            for index, point, fingerprint in pending:
                self._emit(EngineEvent("start", index, point, 0.0, completed, total))
                future = pool.submit(_execute_point, point)
                futures[future] = (index, point, fingerprint)
            outstanding = set(futures)
            while outstanding:
                finished, outstanding = wait(outstanding, return_when=FIRST_COMPLETED)
                for future in finished:
                    index, point, fingerprint = futures[future]
                    result, seconds = future.result()
                    completed = self._finish(
                        index,
                        point,
                        fingerprint,
                        result,
                        seconds,
                        results,
                        completed,
                        total,
                    )
        return completed


def run_points(
    cells: Mapping[Any, Tuple[str, SystemConfig]],
    scale: float,
    jobs: int = 1,
    cache_dir: Optional[os.PathLike] = None,
    on_event: Optional[EventCallback] = None,
) -> Dict[Any, ExperimentResult]:
    """Run a keyed ``{key: (workload, config)}`` grid through one engine.

    The convenience entry the sweep benchmarks use: one flat engine run
    maximises pool utilisation, and the returned dict is keyed like the
    input (insertion order preserved).
    """
    engine = ExperimentEngine(jobs=jobs, cache_dir=cache_dir, on_event=on_event)
    points = [
        ExperimentPoint(workload, config, scale)
        for workload, config in cells.values()
    ]
    results = engine.run(points)
    return dict(zip(cells.keys(), results))
