"""The run-context stub the repository benchmark records.

``perfbench/{batch,run,serve}.py`` import :func:`resolve_backend` to
write the backend into each run's context.  The library has one
agglomerative engine, so there is nothing to resolve: the function
returns ``"auto"`` and reads nothing.  It stays only because
``perfbench/`` changes with the benchmark alone; the next change to
the benchmark deletes it and its import there.
"""

from __future__ import annotations


def resolve_backend(backend: str | None = None) -> str:
    """Always ``"auto"``; ``backend`` is ignored."""
    return "auto"
