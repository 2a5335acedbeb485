"""``serve-repeat``: a repeat-heavy request stream through the service.

One in-process :class:`~repro.serve.service.AnonymizationService` with a
journal-backed :class:`~repro.serve.cache.ResultCache`, driven as a
closed loop by one client: each request is sent once the reply to the
previous one is in.  One client, not one per CPU: the service is bound
by the interpreter lock, so a second client thread mostly adds lock
hand-offs, which tripled miss latency and made it vary from run to run
far more than the service's own work does.

Set-up warms three keys, all at the benchmark's dataset seed: ADT 5000
``1k``/LM, CMC 1473 ``kk``/LM and ART 1000 ``kk``/entropy.  The timed
stream is a sequence of blocks generated from the seed.  Each block
holds :data:`HITS_PER_KEY` shuffled requests for each warm key plus two
misses at fixed slots: fresh-seed requests, three in four on ART and one
in four on CMC, each ``kk`` or ``global-1k`` under entropy or LM.  The
stream always ends on a block boundary, so every run has exactly 15 hits
in 16 requests.
"""

from __future__ import annotations

import random
import shutil
import statistics
import tempfile
from pathlib import Path
from typing import Any

from measure import (
    DEFAULT_SEED,
    K,
    ROOT,
    Tally,
    body_digest,
    canonical_bytes,
    clock,
    nearest_rank,
)

import repro.core.api as core_api
from repro.core.backend import resolve_backend
from repro.obs import MetricsRegistry, Tracer
from repro.runtime.journal import Journal
from repro.serve.cache import ResultCache
from repro.serve.service import AnonymizationService, ServiceConfig, chain_for

#: Cold set-ups per run (median reported).
SETUP_REPEATS = 3

#: Hits per warm key in one block.
HITS_PER_KEY = 10

#: Positions of the two misses in a block of 32 requests.
MISS_SLOTS = (8, 24)

#: (notion, measure) pairs the misses cycle through.
MISS_KINDS = (
    ("kk", "entropy"),
    ("global-1k", "lm"),
    ("kk", "lm"),
    ("global-1k", "entropy"),
)

#: Blocks generated up front; a run stops long before using them all.
MAX_BLOCKS = 64

#: (dataset, n, notion, measure) of the warm keys.  The ADT key is
#: ``1k``: a hit reloads the same 5000-record table whatever the notion,
#: and ``1k`` computes in about 1.5 s where ``k`` takes about 7 s and
#: 0.9 GB (``adt-k`` measures that path).
WARM = (
    ("adult", 5000, "1k", "lm"),
    ("cmc", 1473, "kk", "lm"),
    ("art", 1000, "kk", "entropy"),
)

#: Scratch space for cache journals, inside the checkout.
SCRATCH = ROOT / ".perfbench_tmp"


def _request(
    dataset: str, n: int, seed: int, notion: str, measure: str
) -> dict[str, Any]:
    return {
        "dataset": dataset,
        "n": n,
        "seed": seed,
        "k": K,
        "notion": notion,
        "measure": measure,
    }


def warm_requests(seed: int) -> list[dict[str, Any]]:
    """The three requests set-up computes and the stream repeats."""
    return [_request(d, n, seed, notion, m) for d, n, notion, m in WARM]


def miss_requests(seed: int, count: int) -> list[dict[str, Any]]:
    """The stream's misses, in order: fresh dataset seeds, never the warm one.

    One miss in four is CMC, the rest ART.  Each dataset cycles through
    the four (notion, measure) pairs from a seeded start, so every run
    computes the same mix and the miss median stays inside the ART group.
    """
    start = random.Random(f"perfbench-miss-{seed}").randrange(len(MISS_KINDS))
    out = []
    fresh = 100_000 + 1_000 * seed
    served = {"art": 0, "cmc": 0}
    for index in range(count):
        if fresh == seed:
            fresh += 1
        dataset, n = ("cmc", 1473) if index % 4 == 1 else ("art", 1000)
        notion, measure = MISS_KINDS[(start + served[dataset]) % len(MISS_KINDS)]
        served[dataset] += 1
        out.append(_request(dataset, n, fresh, notion, measure))
        fresh += 1
    return out


def schedule(seed: int) -> list[list[tuple[str, int, dict[str, Any]]]]:
    """Blocks of (label, index, payload); index picks the warm key or miss.

    The hits of a block are shuffled; its misses sit at :data:`MISS_SLOTS`,
    half a block apart.
    """
    rng = random.Random(f"perfbench-stream-{seed}")
    warm = warm_requests(seed)
    misses = miss_requests(seed, len(MISS_SLOTS) * MAX_BLOCKS)
    blocks = []
    for b in range(MAX_BLOCKS):
        block = [
            ("hit", i, warm[i]) for i in range(len(warm)) for _ in range(HITS_PER_KEY)
        ]
        rng.shuffle(block)
        for j, slot in enumerate(MISS_SLOTS):
            index = len(MISS_SLOTS) * b + j
            block.insert(slot, ("miss", index, misses[index]))
        blocks.append(block)
    return blocks


class TimedCache(ResultCache):
    """A result cache that times its lookups and stores (traced run only)."""

    def __init__(self, journal: Journal) -> None:
        super().__init__(journal)
        self.lookup_s: list[float] = []
        self.store_s: list[float] = []

    def get(self, key: str) -> dict[str, Any] | None:
        started = clock()
        body = super().get(key)
        self.lookup_s.append(clock() - started)
        return body

    def put(self, key: str, body: dict[str, Any]) -> None:
        started = clock()
        super().put(key, body)
        self.store_s.append(clock() - started)


class Rig:
    """One warmed service and what set-up learned about it."""

    def __init__(self, seed: int, pinned: dict[str, Any], tally: Tally, traced: bool):
        SCRATCH.mkdir(exist_ok=True)
        self.dir = Path(tempfile.mkdtemp(prefix="serve-", dir=SCRATCH))
        journal = Journal(self.dir / "cache.jsonl")
        self.cache = TimedCache(journal) if traced else ResultCache(journal)
        self.registry = MetricsRegistry()
        self.tracer = Tracer(clock=clock) if traced else None
        self.service = AnonymizationService(
            ServiceConfig(), self.cache, registry=self.registry, tracer=self.tracer
        )
        self.service.recover()
        #: Canonical body bytes of each warm key as first computed.
        self.warm_bytes: list[bytes] = []
        for index, payload in enumerate(warm_requests(seed)):
            envelope = self.service.handle(payload)
            problems = _envelope_problems(envelope, payload, hit=False)
            body = envelope.get("body")
            if seed == DEFAULT_SEED and body is not None:
                if body_digest(body) != pinned["serve"]["warm"][index]:
                    problems.append(f"warm {index}: body differs from the pinned one")
            tally.record([f"set-up: {p}" for p in problems])
            self.warm_bytes.append(canonical_bytes(body))

    def close(self) -> None:
        shutil.rmtree(self.dir, ignore_errors=True)
        try:
            SCRATCH.rmdir()  # only once no other rig still uses it
        except OSError:
            pass


def _envelope_problems(
    envelope: dict[str, Any], payload: dict[str, Any], hit: bool
) -> list[str]:
    """Checks every response must pass, hit or miss."""
    where = "/".join(
        str(payload[key]) for key in ("dataset", "seed", "notion", "measure")
    )
    if envelope.get("status") != "ok":
        return [f"{where}: {envelope.get('status')} envelope"]
    problems = []
    if envelope["meta"].get("cache_hit") is not hit:
        problems.append(f"{where}: scheduled as {'hit' if hit else 'miss'}, "
                        f"meta.cache_hit={envelope['meta'].get('cache_hit')}")
    guarantee = envelope["body"]["guarantee"]
    result = envelope["body"]["result"]
    expected = {
        "requested_notion": payload["notion"],
        "notion": payload["notion"],
        "winner": chain_for(payload["notion"])[0].name,
        "degraded": False,
        "k": K,
    }
    for field, value in expected.items():
        if guarantee.get(field) != value:
            problems.append(f"{where}: guarantee.{field}={guarantee.get(field)!r}")
    if result["num_records"] != payload["n"] or len(result["rows"]) != payload["n"]:
        problems.append(f"{where}: body does not cover all {payload['n']} records")
    if result["measure"] != payload["measure"]:
        problems.append(f"{where}: body measure {result['measure']!r}")
    return problems


def setup(seed: int, pinned: dict[str, Any], tally: Tally) -> tuple[float, Rig]:
    """Warm :data:`SETUP_REPEATS` cold services; (median seconds, last rig)."""
    seconds = []
    rig = None
    for _ in range(SETUP_REPEATS):
        if rig is not None:
            rig.close()
        started = clock()
        rig = Rig(seed, pinned, tally, traced=False)
        seconds.append(clock() - started)
    assert rig is not None
    return statistics.median(seconds), rig


def stream(
    rig: Rig, seed: int, seconds: float, pinned: dict[str, Any], tally: Tally
) -> dict[str, Any]:
    """Drive the closed loop for about ``seconds``: whole blocks, at least one."""
    pinned_misses = pinned["serve"]["misses"] if seed == DEFAULT_SEED else []
    results: list[dict[str, Any]] = []
    started = clock()
    for block in schedule(seed):
        if results and clock() - started >= seconds:
            break
        for label, index, payload in block:
            sent = clock()
            try:
                envelope = rig.service.handle(dict(payload))
            except Exception as exc:  # handle() promises envelopes; count it
                envelope = {"status": f"raised {type(exc).__name__}: {exc}"}
            latency = clock() - sent
            problems = _envelope_problems(envelope, payload, hit=label == "hit")
            body = envelope.get("body")
            if body is not None and label == "hit":
                if canonical_bytes(body) != rig.warm_bytes[index]:
                    problems.append(f"hit {index}: body differs from the first one")
            if body is not None and label == "miss" and index < len(pinned_misses):
                if body_digest(body) != pinned_misses[index]:
                    problems.append(f"miss {index}: body differs from the pinned one")
            tally.record(problems)
            results.append(
                {
                    "label": label,
                    "latency": latency,
                    "records": 0 if problems else payload["n"],
                    "fixes": body["result"]["stats"].get("conversion_fixes", 0)
                    if body is not None and label == "miss"
                    else 0,
                }
            )
    return {"wall": clock() - started, "results": results}


def _latencies(run: dict[str, Any], label: str | None = None) -> list[float]:
    return [
        r["latency"] for r in run["results"] if label is None or r["label"] == label
    ]


def stream_metrics(run: dict[str, Any]) -> dict[str, float]:
    """End-to-end metrics of one stream."""
    wall = run["wall"]
    latencies = _latencies(run)
    misses = _latencies(run, "miss")
    return {
        "records_per_s": sum(r["records"] for r in run["results"]) / wall,
        "ops_per_s": len(latencies) / wall,
        "p50_ms": 1000 * nearest_rank(latencies, 0.5),
        "p90_ms": 1000 * nearest_rank(latencies, 0.9),
        "miss_p50_ms": 1000 * nearest_rank(misses, 0.5) if misses else 0.0,
    }


def stream_detail(run: dict[str, Any]) -> dict[str, Any]:
    hits = _latencies(run, "hit")
    return {
        "measured_s": run["wall"],
        "requests": len(run["results"]),
        "hits": len(hits),
        "hit_p50_ms": 1000 * nearest_rank(hits, 0.5) if hits else None,
        "hit_p90_ms": 1000 * nearest_rank(hits, 0.9) if hits else None,
    }


# --------------------------------------------------------------------- #
# traced run
# --------------------------------------------------------------------- #


def _self_ms(events: list[dict[str, Any]], parent: str) -> list[float]:
    """Self time of each ``parent`` span: its duration minus its children's."""
    by_tid: dict[int, list[dict[str, Any]]] = {}
    for event in events:
        by_tid.setdefault(event["tid"], []).append(event)
    out = []
    for event in events:
        if event["name"] != parent:
            continue
        begin, end = event["ts"], event["ts"] + event["dur"]
        inside = sorted(
            (e for e in by_tid[event["tid"]]
             if e is not event and e["ts"] >= begin and e["ts"] + e["dur"] <= end),
            key=lambda e: (e["ts"], -e["dur"]),
        )
        covered, reach = 0.0, begin
        for child in inside:  # direct children: not nested in an earlier one
            if child["ts"] >= reach:
                covered += child["dur"]
                reach = child["ts"] + child["dur"]
        out.append(1000 * (event["dur"] - covered))
    return out


def _mean(values: list[float]) -> float:
    return statistics.fmean(values) if values else 0.0


def run_traced(
    seed: int, seconds: float, pinned: dict[str, Any], tally: Tally
) -> tuple[dict[str, float], dict[str, Any]]:
    """A plain stream, then the same stream on a traced service."""
    plain_rig = Rig(seed, pinned, tally, traced=False)
    try:
        plain = stream(plain_rig, seed, seconds, pinned, tally)
    finally:
        plain_rig.close()

    rig = Rig(seed, pinned, tally, traced=True)
    try:
        assert isinstance(rig.cache, TimedCache) and rig.tracer is not None
        rig.cache.lookup_s.clear()
        rig.cache.store_s.clear()
        first_event = len(rig.tracer.events)
        before = rig.registry.snapshot()["counters"]
        journal_before = rig.cache.journal_bytes()
        verify_s: list[float] = []
        satisfies = core_api.satisfies

        def timed_satisfies(*args: Any, **kwargs: Any) -> bool:
            started = clock()
            try:
                return satisfies(*args, **kwargs)
            finally:
                verify_s.append(clock() - started)

        # AnonymizationResult.verify() looks the verifier up in
        # repro.core.api at call time; wrapping it there times every
        # fallback-rung verification without changing what runs.
        core_api.satisfies = timed_satisfies
        try:
            traced = stream(rig, seed, seconds, pinned, tally)
        finally:
            core_api.satisfies = satisfies
        events = rig.tracer.events[first_event:]
        after = rig.registry.snapshot()["counters"]
        journal_growth = rig.cache.journal_bytes() - journal_before
        stores = list(rig.cache.store_s)
        lookups = list(rig.cache.lookup_s)
    finally:
        rig.close()

    def delta(name: str) -> float:
        return after.get(name, 0) - before.get(name, 0)

    def span_s(name: str) -> list[float]:
        return [e["dur"] for e in events if e["name"] == name]

    hits, misses = delta("serve.cache.hits"), delta("serve.cache.misses")
    computed = delta("serve.execute.computed")
    plain_mean = _mean(_latencies(plain))
    traced_mean = _mean(_latencies(traced))
    metrics = {
        "core.verify_s": _mean(verify_s),
        "matching.hopcroft_karp.path_steps": delta("matching.hopcroft_karp.path_steps"),
        "core.global_1k.fixes": sum(r["fixes"] for r in traced["results"]),
        "serve.load_ms": 1000 * _mean(span_s("datasets.load")),
        "serve.request_self_ms": _mean(_self_ms(events, "serve.request")),
        "serve.admit_ms": 1000 * _mean(span_s("serve.admit")),
        "serve.lookup_ms": 1000 * _mean(lookups),
        "serve.execute_s": _mean(span_s("serve.execute")),
        "serve.store_ms": 1000 * _mean(stores),
        "serve.journal_bytes_per_store": (
            journal_growth / len(stores) if stores else 0.0
        ),
        "serve.cache_hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "runtime.fallback.degraded_ratio": (
            delta("serve.degraded") / computed if computed else 0.0
        ),
        "trace.coverage": (
            _mean(span_s("serve.request")) / plain_mean if plain_mean else 0.0
        ),
        "trace.overhead": traced_mean / plain_mean - 1 if plain_mean else 0.0,
    }
    detail = {
        "backend": resolve_backend(None),
        "plain": stream_detail(plain),
        "traced": stream_detail(traced),
        "counters": {name: delta(name) for name in sorted(after)},
    }
    return metrics, detail
