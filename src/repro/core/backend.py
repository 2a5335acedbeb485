"""The process-wide override of the agglomerative engine choice.

:func:`repro.core.agglomerative.agglomerative_clustering` picks its
engine by table size: the dense-matrix engine up to
:data:`~repro.core.agglomerative.DENSE_MAX_RECORDS` records, the
matrix-free engine of :mod:`repro.core.columnar` above.  The two are
bit-identical (same merge sequence, same tie-breaking), so the choice
changes speed and memory, never a result.

The ``REPRO_BACKEND`` environment variable forces one engine for the
whole process: ``python`` the dense one, ``columnar`` the matrix-free
one.  It exists so that equivalence checks can run each engine where
the size rule would pick the other; no option of the library, the CLI
or the service sets it.
"""

from __future__ import annotations

import os
from collections.abc import Iterator
from contextlib import contextmanager

from repro.errors import ReproError

#: Engines the override can force, dense-matrix engine first.
BACKENDS: tuple[str, ...] = ("python", "columnar")

#: What :func:`resolve_backend` reports when no engine is forced: the
#: size rule decides.
AUTO = "auto"

#: Environment variable that forces an engine.
BACKEND_ENV_VAR = "REPRO_BACKEND"


def resolve_backend(backend: str | None = None) -> str:
    """The engine forced for this process, or :data:`AUTO`.

    ``None`` reads :data:`BACKEND_ENV_VAR`; an unset or empty variable
    means :data:`AUTO`.  Unknown names raise :class:`ReproError`: a
    misspelt override must not silently leave the size rule in charge.
    """
    if backend is None:
        # repro: allow[REP004] engine override; the engines are bit-identical so outputs never depend on it
        backend = os.environ.get(BACKEND_ENV_VAR) or AUTO
    if backend != AUTO and backend not in BACKENDS:
        raise ReproError(
            f"unknown backend {backend!r}; known backends: {list(BACKENDS)}"
        )
    return backend


@contextmanager
def forced_backend(backend: str) -> Iterator[None]:
    """Force ``backend`` through :data:`BACKEND_ENV_VAR` inside the block.

    For the equivalence checks of :mod:`repro.perf.equivalence` and
    :mod:`repro.verify.differential` only, which run one input under
    both engines in one process.  The previous value is restored on
    exit.
    """
    resolve_backend(backend)
    # repro: allow[REP004] engine override; the engines are bit-identical so outputs never depend on it
    env = os.environ
    previous = env.get(BACKEND_ENV_VAR)
    env[BACKEND_ENV_VAR] = backend
    try:
        yield
    finally:
        if previous is None:
            env.pop(BACKEND_ENV_VAR, None)
        else:
            env[BACKEND_ENV_VAR] = previous
