"""Scalar/vector backend selection for the hot-loop implementations.

Three of the steady-state hot loops — the labeling rounds of block
construction, the live circuit-reservation ledger and the simulator's
message phase (per-object probes or probe-table rows) — exist in two
byte-identical implementations: a pure-Python *scalar* reference loop and
a numpy-vectorized *vector* engine.  The vector engine is the default; the scalar path is kept as the
parity oracle (the randomized parity tests assert identical statuses,
block extents, reserved-link sets and probe decisions) and as the
benchmark baseline.  Both run on the same numpy-backed state — numpy is a
runtime dependency of the package either way.

Selection, in priority order:

1. an explicit argument (``labeling_round(state, backend="scalar")``,
   ``SimulationConfig(backend="vector")``, the CLI's ``--backend``),
2. the ``REPRO_BACKEND`` environment variable (``vector`` or ``scalar``),
3. the built-in default (``vector``).

Every entry point validates eagerly: an unknown name — explicit argument
*or* a typo'd environment value — raises :class:`ValueError` naming the
allowed backends instead of silently running some default.
"""

from __future__ import annotations

import os
from typing import Optional, Tuple

VECTOR = "vector"
SCALAR = "scalar"
_BACKENDS = (VECTOR, SCALAR)

#: Environment variable overriding the default backend.
ENV_VAR = "REPRO_BACKEND"


def available_backends() -> Tuple[str, ...]:
    """Every selectable backend name (the CLI's ``--backend`` menu)."""
    return _BACKENDS


def _validated(value: str, source: str) -> str:
    """Normalize and validate one backend name, naming its origin on error."""
    name = value.strip().lower()
    if name not in _BACKENDS:
        raise ValueError(
            f"{source}={value!r} is not a known backend; "
            f"choose from {', '.join(_BACKENDS)}"
        )
    return name


def default_backend() -> str:
    """The backend used when no explicit choice is made."""
    value = os.environ.get(ENV_VAR)
    if value is not None:
        return _validated(value, ENV_VAR)
    return VECTOR


def resolve_backend(explicit: Optional[str] = None) -> str:
    """Resolve an explicit backend name (``None`` → environment/default)."""
    if explicit is None:
        return default_backend()
    return _validated(explicit, "backend")
