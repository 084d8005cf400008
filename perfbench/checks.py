"""Correctness checks, all run outside the timed region.

* :func:`scalar_backend` re-runs one designated unit of work on the scalar
  reference backend, the parity oracle the vector engines must match.
* :class:`RepeatRecord` holds simulated metrics to the rule that a seed
  gives the same simulation every time: across the passes of one run, and
  across runs of the same seed in one checkout.
"""

from __future__ import annotations

import hashlib
import json
import os
from contextlib import contextmanager
from pathlib import Path
from typing import Dict, Iterator, List

from repro.backend import ENV_VAR as BACKEND_ENV_VAR


@contextmanager
def scalar_backend() -> Iterator[None]:
    """Resolve the default backend to ``scalar`` inside the block."""
    previous = os.environ.get(BACKEND_ENV_VAR)
    os.environ[BACKEND_ENV_VAR] = "scalar"
    try:
        yield
    finally:
        if previous is None:
            del os.environ[BACKEND_ENV_VAR]
        else:
            os.environ[BACKEND_ENV_VAR] = previous


def source_digest(root: Path) -> str:
    """Digest of the package and benchmark sources.

    Records are keyed by it, so a record never outlives a change to the
    program or to the benchmark's inputs.
    """
    digest = hashlib.sha256()
    sources = [*(root / "src" / "repro").rglob("*.py"), *Path(__file__).parent.glob("*.py")]
    for path in sorted(sources):
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


class RepeatRecord:
    """Simulated metrics that must repeat exactly for one (workload, seed).

    The first run of a seed in a checkout writes the record under the
    checkout's build directory; later runs of the same seed and the same
    package sources must reproduce it value for value.
    """

    def __init__(self, state_dir: Path, workload: str, seed: int, key: str) -> None:
        self.path = state_dir / f"sim-{workload}-{seed}-{key}.json"

    def mismatches(self, values: Dict[str, float]) -> List[str]:
        """Names whose value differs from the stored record (writes it if new)."""
        try:
            stored = json.loads(self.path.read_text())
        except (OSError, ValueError):
            self.path.parent.mkdir(parents=True, exist_ok=True)
            tmp = self.path.with_suffix(f".tmp.{os.getpid()}")
            tmp.write_text(json.dumps(values, sort_keys=True))
            os.replace(tmp, self.path)
            return []
        return sorted(k for k in set(stored) | set(values) if stored.get(k) != values.get(k))


def differing(first: Dict[str, float], second: Dict[str, float]) -> List[str]:
    """Keys whose values are not exactly equal between two metric rows."""
    return sorted(k for k in set(first) | set(second) if first.get(k) != second.get(k))
