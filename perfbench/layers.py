"""Per-layer instrumentation, attached from outside the program.

Every hook here wraps a call into one of the package's layers from the
benchmark's side: the program itself is unchanged and pays nothing when a
hook is not installed.  Hooks are installed for one pass with
:func:`patched` and removed when it ends.

* ``simulator`` spans come from the package's own
  :class:`~repro.obs.profile.PhaseProfiler`, attached through
  ``Simulator(profiler=...)`` by :class:`SimulatorTap`.
* ``routing.global_info`` planning is timed by wrapping
  ``shortest_usable_path`` (:class:`CallTimer`).
* ``experiments.cache`` reads and writes are timed by wrapping the
  ``get``/``put`` of every ``ResultCache`` the service builds
  (:class:`CacheTimer`).
"""

from __future__ import annotations

from contextlib import contextmanager
from time import perf_counter
from typing import Callable, Dict, Iterator, List, Optional

from repro.experiments.cache import ResultCache
from repro.obs.profile import PhaseProfiler
from repro.simulator.engine import Simulator


@contextmanager
def patched(owner: object, name: str, value: object) -> Iterator[None]:
    """Replace ``owner.name`` with ``value`` for the duration of the block."""
    original = getattr(owner, name)
    setattr(owner, name, value)
    try:
        yield
    finally:
        setattr(owner, name, original)


class CallTimer:
    """Host seconds and call count of one wrapped function."""

    def __init__(self) -> None:
        self.seconds = 0.0
        self.calls = 0

    def wrap(self, fn: Callable) -> Callable:
        def timed(*args, **kwargs):
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self.seconds += perf_counter() - start
                self.calls += 1

        return timed


class SimulatorTap:
    """A ``Simulator`` stand-in that records each instance it builds.

    Installed in place of a module's ``Simulator`` name, it lets the
    benchmark read ``SimulationStats`` of simulators the public entry points
    construct internally, and attaches ``profiler`` when one is given.
    """

    def __init__(self, profiler: Optional[PhaseProfiler] = None) -> None:
        self.profiler = profiler
        self.sims: List[Simulator] = []

    def __call__(self, *args, **kwargs) -> Simulator:
        if self.profiler is not None:
            kwargs["profiler"] = self.profiler
        sim = Simulator(*args, **kwargs)
        self.sims.append(sim)
        return sim

    def pop(self) -> Simulator:
        """The one simulator built since the last pop."""
        if len(self.sims) != 1:
            raise RuntimeError(f"expected one simulator, saw {len(self.sims)}")
        return self.sims.pop()


class CacheTimer:
    """Builds ``ResultCache`` instances whose ``get``/``put`` are timed."""

    def __init__(self) -> None:
        self.get = CallTimer()
        self.put = CallTimer()
        self.caches: List[ResultCache] = []

    def __call__(self, *args, **kwargs) -> ResultCache:
        cache = ResultCache(*args, **kwargs)
        cache.get = self.get.wrap(cache.get)
        cache.put = self.put.wrap(cache.put)
        self.caches.append(cache)
        return cache

    def metrics(self) -> Dict[str, float]:
        return {
            "cache.get_s": self.get.seconds,
            "cache.put_s": self.put.seconds,
            "cache.hits": float(sum(c.stats.hits for c in self.caches)),
            "cache.misses": float(sum(c.stats.misses for c in self.caches)),
            "cache.writes": float(sum(c.stats.writes for c in self.caches)),
        }


_STEP = ("step",)
_INFO = _STEP + ("information",)
_MSG = _STEP + ("messages",)
#: Message-phase spans of the probe-table path.
_TABLE_SPANS = ("source_poll", "ledger_sweep", "decision_batch", "probe_advance", "occupancy")


def simulator_metrics(profiler: PhaseProfiler, plan_seconds: float) -> Dict[str, float]:
    """The ``sim.*`` metrics from one profiler's span tree.

    ``sim.messages_object_s`` is the message phase's self time with the
    global-information planning (timed separately, and nested inside the
    message phase) taken out: the object tier's whole message phase, or the
    table path's residual outside its named spans.
    """
    metrics = {
        "sim.step_s": profiler.seconds(*_STEP),
        "sim.fault_detect_s": profiler.seconds(*_INFO, "fault_detect"),
        "sim.labeling_round_s": profiler.seconds(*_INFO, "labeling_round"),
        "sim.protocols_s": profiler.seconds(*_INFO, "protocols"),
    }
    table = 0.0
    for name in _TABLE_SPANS:
        seconds = profiler.seconds(*_MSG, name)
        metrics[f"sim.{name}_s"] = seconds
        table += seconds
    metrics["sim.messages_object_s"] = max(
        0.0, profiler.seconds(*_MSG) - table - plan_seconds
    )
    metrics["sim.steps"] = float(profiler.count(*_STEP))
    metrics["sim.labeling_rounds"] = float(profiler.count(*_INFO, "labeling_round"))
    return metrics


def span_coverage(metrics: Dict[str, float], plan_seconds: float) -> float:
    """Share of ``sim.step_s`` covered by the leaf spans plus planning."""
    step = metrics["sim.step_s"]
    if step <= 0.0:
        return 0.0
    leaves = sum(
        metrics[f"sim.{name}_s"]
        for name in ("fault_detect", "labeling_round", "protocols", "messages_object")
        + _TABLE_SPANS
    )
    return (leaves + plan_seconds) / step
