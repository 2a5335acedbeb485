"""Shared helpers: clocks, percentiles, digests, peak RSS, run context.

Everything here is standard library plus NumPy; nothing imports the
program under test, so ``run.py`` can refuse to start (exit code 2)
before touching ``repro`` when the checkout has no source tree.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import resource
import statistics
import time
from pathlib import Path
from typing import Any, Callable, Sequence

#: Wall clock used for every end-to-end timing.
clock = time.perf_counter

#: Root of the checkout (the directory holding ``BENCHMARK.json``).
ROOT = Path(__file__).resolve().parent.parent

#: Seed whose outputs are pinned in ``pinned.json``.
DEFAULT_SEED = 0

#: Anonymity parameter of every workload.
K = 10


def nearest_rank(values: Sequence[float], q: float) -> float:
    """The ``q``-quantile (0 < q <= 1) by the nearest-rank rule.

    Nearest rank always returns an observed sample, so a percentile
    whose rank falls inside one group of a multi-modal mix (the serve
    stream's hit groups) never averages two groups together.
    """
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]


def timed_median(action: Callable[[], Any], repeats: int) -> tuple[float, Any]:
    """Run ``action`` ``repeats`` times; (median seconds, last result)."""
    seconds = []
    result = None
    for _ in range(repeats):
        started = clock()
        result = action()
        seconds.append(clock() - started)
    return statistics.median(seconds), result


def peak_rss_mb() -> float:
    """Peak resident set size of this process so far, in MiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def matrix_digest(node_matrix: Any) -> str:
    """SHA-256 over a node matrix's shape and int32 cells."""
    import numpy as np

    cells = np.ascontiguousarray(node_matrix, dtype=np.int32)
    digest = hashlib.sha256(repr(cells.shape).encode("ascii"))
    digest.update(cells.tobytes())
    return digest.hexdigest()


def canonical_bytes(payload: Any) -> bytes:
    """The canonical JSON bytes of a response body."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":")).encode(
        "utf-8"
    )


def body_digest(body: Any) -> str:
    """SHA-256 over a body's canonical JSON bytes."""
    return hashlib.sha256(canonical_bytes(body)).hexdigest()


def load_pinned() -> dict[str, Any]:
    """The outputs pinned at :data:`DEFAULT_SEED` (see ``pin.py``)."""
    path = Path(__file__).resolve().parent / "pinned.json"
    return json.loads(path.read_text(encoding="utf-8"))


def git_sha() -> str:
    """Commit of the checkout, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        loose = git / ref
        if loose.is_file():
            return loose.read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split(" ", 1)[0]
    except OSError:
        pass
    return "unknown"


def run_context(resolved_backend: str) -> dict[str, Any]:
    """What each result records about where and how it ran."""
    return {
        "backend": resolved_backend,
        "REPRO_BACKEND": os.environ.get("REPRO_BACKEND"),
        "git_sha": git_sha(),
        "nproc": os.cpu_count(),
    }


class Tally:
    """Attempted/failed operation counts plus the first failure reasons.

    One operation is one ``anonymize()`` call or one service request.
    It fails once, however many of its checks fail: on an exception, an
    error or shed envelope, or a failed correctness check.
    """

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def record(self, problems: Sequence[str]) -> bool:
        """Count one operation; it failed iff ``problems`` is non-empty."""
        self.attempted += 1
        if not problems:
            return True
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append("; ".join(problems))
        return False
