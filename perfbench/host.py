"""Host-side measurements: set-up timing, memory, and run diagnostics.

Diagnostics (CPU vs wall time, steal ticks, a fixed calibration loop) are
printed beside the metrics so a reader can tell a slow host from a slow
program.  They are not metrics, and nothing is normalised by them: host
speed on the reference box drifts over minutes in a way a calibration loop
run at the start and end of a run does not track.
"""

from __future__ import annotations

import os
import resource
import subprocess
import sys
from pathlib import Path
from time import perf_counter
from typing import Dict, List, Sequence

#: Modules every workload imports before it can do anything; importing them
#: in a fresh interpreter is the cold-start part of ``setup_s``.
SETUP_IMPORTS = ("numpy", "repro.throughput", "repro.experiments", "repro.service")


def import_seconds(root: Path) -> float:
    """Wall time of a fresh interpreter importing :data:`SETUP_IMPORTS`."""
    code = "import " + ", ".join(SETUP_IMPORTS)
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    start = perf_counter()
    subprocess.run(
        [sys.executable, "-c", code], cwd=root, env=env, check=True, timeout=60
    )
    return perf_counter() - start


def calibration_seconds() -> float:
    """Host time of a fixed pure-Python loop (a drift diagnostic only)."""
    start = perf_counter()
    acc = 0
    for i in range(2_000_000):
        acc = (acc + i * i) % 1_000_003
    return perf_counter() - start


def steal_ticks() -> int:
    """Cumulative steal ticks of all CPUs from ``/proc/stat`` (0 if absent)."""
    try:
        with open("/proc/stat", encoding="ascii") as handle:
            fields = handle.readline().split()
    except OSError:
        return 0
    return int(fields[8]) if len(fields) > 8 else 0


def child_pids() -> List[int]:
    """Live direct children of this process (the sweep pool's workers)."""
    me = os.getpid()
    pids = []
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            stat = (entry / "stat").read_text()
        except OSError:
            continue
        # Field 4 (after the parenthesised command name) is the parent pid.
        if int(stat.rsplit(")", 1)[1].split()[1]) == me:
            pids.append(int(entry.name))
    return pids


def _peak_rss_kb(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def peak_rss_mb(pids: Sequence[int] = ()) -> float:
    """Peak resident memory of this process plus ``pids``, in MiB.

    Forked workers share pages with the parent, so the sum over-counts
    shared memory; it is the footprint a user would see summed in ``top``.
    """
    own = _peak_rss_kb(os.getpid()) or resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return (own + sum(_peak_rss_kb(pid) for pid in pids)) / 1024.0


class HostProbe:
    """Start/finish snapshot of the run's host diagnostics."""

    def __init__(self) -> None:
        self._wall = perf_counter()
        self._times = os.times()
        self._steal = steal_ticks()
        self._calibration = calibration_seconds()

    def finish(self) -> Dict[str, float]:
        times = os.times()
        cpu = sum(
            getattr(times, f) - getattr(self._times, f)
            for f in ("user", "system", "children_user", "children_system")
        )
        return {
            "wall_s": perf_counter() - self._wall,
            "cpu_s": cpu,
            "steal_ticks": steal_ticks() - self._steal,
            "calibration_start_s": self._calibration,
            "calibration_end_s": calibration_seconds(),
        }
