"""The serving layer: protocol, cache hygiene, admission, recovery.

The crash-recovery invariants (byte-identical bodies, zero
recomputation, typed sheds) are exercised three ways with increasing
realism: unit tests here, the in-process chaos drill
(:func:`repro.serve.drill.run_chaos_drill`, also run here), and the
subprocess SIGKILL drill in ``tools/serve_smoke.py`` (CI).
"""

from __future__ import annotations

import hashlib
import json
import sys
import threading
import urllib.error
import urllib.request

import pytest

import repro.core.agglomerative as agglomerative
import repro.serve.service as service_module
from repro.errors import RequestError, ReproError, ServiceOverloaded
from repro.obs import (
    MetricsRegistry,
    WindowedRegistry,
    default_objectives,
    metrics_scope,
)
from repro.runtime import FaultPlan, Journal, fault_scope
from repro.runtime.fallback import DEFAULT_CHAIN, run_with_fallback
from repro.runtime.retry import RetryPolicy
from repro.serve import (
    AdmissionGate,
    AnonymizationService,
    AnonymizeRequest,
    CircuitBreaker,
    ResultCache,
    ServiceConfig,
    cache_key,
    canonical_body,
    chain_for,
    error_envelope,
    http_status,
    ok_envelope,
    request_mix,
    run_chaos_drill,
    serve_http,
    shed_envelope,
    table_fingerprint,
)
from repro.tabular.attribute import Attribute
from repro.tabular.hierarchy import SubsetCollection, from_groups
from repro.tabular.table import Schema, Table

from tests.conftest import make_random_table


class FakeClock:
    """A monotonic clock tests can step by hand."""

    def __init__(self, step: float = 0.0) -> None:
        self.now = 0.0
        self.step = step

    def __call__(self) -> float:
        self.now += self.step
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


def _no_sleep(_seconds: float) -> None:
    """Backoff sleeper that never touches the wall clock."""


_FAST_RETRY = RetryPolicy(attempts=3, base_delay=0.0, seed=0)


def _service(**overrides) -> AnonymizationService:
    """A service sized for unit tests: no sleeping, tiny retries."""
    kwargs = dict(
        config=ServiceConfig(retry=_FAST_RETRY),
        sleeper=_no_sleep,
    )
    kwargs.update(overrides)
    return AnonymizationService(**kwargs)


def _request(**overrides) -> dict:
    payload = {"k": 2, "dataset": "art", "n": 30, "notion": "kk"}
    payload.update(overrides)
    return payload


@pytest.fixture
def loads(monkeypatch) -> list:
    """Records every registry-table load the service makes."""
    calls: list = []
    real = service_module.load_dataset

    def counting(*args, **kwargs):
        calls.append((args, kwargs))
        return real(*args, **kwargs)

    monkeypatch.setattr(service_module, "load_dataset", counting)
    return calls


def _without_meta(envelope: dict) -> dict:
    return {key: value for key, value in envelope.items() if key != "meta"}


# --------------------------------------------------------------------- #
# protocol
# --------------------------------------------------------------------- #


class TestProtocol:
    def test_from_json_normalizes_spellings(self):
        request = AnonymizeRequest.from_json(
            {"k": 3, "notion": "G1K", "measure": "ENTROPY"}
        )
        assert request.notion == "global-1k"
        assert request.measure == "entropy"

    def test_unknown_fields_are_rejected_not_defaulted(self):
        with pytest.raises(RequestError, match="notions"):
            AnonymizeRequest.from_json({"k": 2, "notions": "kk"})

    def test_missing_k_and_bool_k_are_rejected(self):
        with pytest.raises(RequestError, match="missing"):
            AnonymizeRequest.from_json({})
        with pytest.raises(RequestError, match="integer"):
            AnonymizeRequest.from_json({"k": True})

    def test_bad_timeout_and_notion(self):
        with pytest.raises(RequestError, match="positive"):
            AnonymizeRequest.from_json({"k": 2, "timeout": -1})
        with pytest.raises(RequestError, match="unknown notion"):
            AnonymizeRequest.from_json({"k": 2, "notion": "zz"})

    def test_request_mix_is_seeded(self):
        assert request_mix(0, 12) == request_mix(0, 12)
        assert request_mix(0, 12) != request_mix(1, 12)

    def test_http_status_mapping(self):
        request = AnonymizeRequest(k=2)
        assert http_status(ok_envelope(request, {}, cache_hit=False)) == 200
        shed = ServiceOverloaded("full", reason="queue_full", retry_after=1.0)
        assert http_status(shed_envelope(request, shed)) == 429
        assert http_status(error_envelope(None, RequestError("bad"))) == 400
        assert http_status(error_envelope(request, ReproError("boom"))) == 500

    def test_chain_for_notions(self):
        assert chain_for("kk") == DEFAULT_CHAIN
        plain = chain_for("k")
        assert [r.name for r in plain] == ["agglomerative", "mondrian", "suppress"]
        one_k = chain_for("1k")
        assert one_k[0].name == "1k" and one_k[0].notion == "1k"
        assert [r.name for r in one_k[1:]] == [r.name for r in plain]


# --------------------------------------------------------------------- #
# cache-key hygiene (distinct QI configurations must never collide)
# --------------------------------------------------------------------- #


def _edu_table(groups: list[list[str]]) -> Table:
    """Same rows, parameterized permissible subsets (QI configuration)."""
    att = Attribute("edu", ["hs", "college", "ba", "ma", "phd"])
    coll = from_groups(att, groups) if groups else SubsetCollection(att)
    schema = Schema([coll])
    rows = [("hs",), ("college",), ("ba",), ("ma",), ("phd",), ("hs",)]
    return Table(schema, rows)


class TestCacheHygiene:
    def test_fingerprint_is_content_deterministic(self):
        assert table_fingerprint(_edu_table([])) == table_fingerprint(
            _edu_table([])
        )

    def test_same_rows_different_qi_configuration_never_collide(self):
        # Identical rows, but different permissible generalization
        # subsets: serving one's cached result for the other would be a
        # silent guarantee violation (Bettini et al.'s central point).
        plain = table_fingerprint(_edu_table([]))
        grouped = table_fingerprint(_edu_table([["hs", "college"]]))
        regrouped = table_fingerprint(_edu_table([["ma", "phd"]]))
        assert len({plain, grouped, regrouped}) == 3

    def test_distinct_notions_measures_and_k_never_collide(self):
        fingerprint = table_fingerprint(_edu_table([]))
        keys = {
            cache_key(fingerprint, k, notion, measure)
            for k in (2, 3)
            for notion in ("k", "kk", "1k")
            for measure in ("entropy", "lm")
        }
        assert len(keys) == 12

    def test_journal_roundtrip_last_write_wins(self, tmp_path):
        journal = Journal(tmp_path / "cache.jsonl")
        cache = ResultCache(journal, retry=_FAST_RETRY, sleeper=_no_sleep)
        cache.put("a", {"cost": 1})
        cache.put("b", {"cost": 2})
        cache.put("a", {"cost": 3})

        recovered = ResultCache(
            Journal(tmp_path / "cache.jsonl"),
            retry=_FAST_RETRY,
            sleeper=_no_sleep,
        )
        assert recovered.load() == 2
        assert recovered.get("a") == {"cost": 3}
        assert recovered.get("b") == {"cost": 2}

    def test_recovery_tolerates_a_torn_final_line(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        cache = ResultCache(Journal(path), retry=_FAST_RETRY, sleeper=_no_sleep)
        cache.put("good", {"cost": 7})
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"v": 1, "key": {"cache_key": "torn", "val')

        recovered = ResultCache(
            Journal(path), retry=_FAST_RETRY, sleeper=_no_sleep
        )
        assert recovered.load() == 1
        assert recovered.get("good") == {"cost": 7}

    def test_malformed_records_are_skipped_and_counted(self, tmp_path):
        journal = Journal(tmp_path / "cache.jsonl")
        journal.append({"cache_key": "stale"}, {"cache_v": 99, "body": {}})
        journal.append({"wrong": "shape"}, {"cache_v": 1, "body": {}})
        journal.append({"cache_key": "ok"}, {"cache_v": 1, "body": {"x": 1}})

        registry = MetricsRegistry()
        cache = ResultCache(
            Journal(journal.path), retry=_FAST_RETRY, sleeper=_no_sleep
        )
        with metrics_scope(registry):
            assert cache.load() == 1
        assert registry.counter("serve.cache.skipped_records") == 2
        assert cache.get("ok") == {"x": 1}

    def test_put_swallows_persistent_store_failures(self, tmp_path):
        cache = ResultCache(
            Journal(tmp_path / "cache.jsonl"),
            retry=RetryPolicy(attempts=2, base_delay=0.0, seed=0),
            sleeper=_no_sleep,
        )
        registry = MetricsRegistry()
        plan = FaultPlan().inject("serve.cache.store", times=None)
        with metrics_scope(registry), fault_scope(plan):
            cache.put("key", {"cost": 1})  # must not raise
        assert cache.get("key") == {"cost": 1}  # memory store still served
        assert registry.counter("serve.cache.store_failures") == 1


# --------------------------------------------------------------------- #
# admission control
# --------------------------------------------------------------------- #


class TestAdmissionGate:
    def test_queue_full_shed_is_typed(self):
        gate = AdmissionGate(max_inflight=1, max_queue=0, clock=FakeClock())
        gate.try_admit(None)
        assert gate.enter(timeout=None)  # occupy the only slot
        with pytest.raises(ServiceOverloaded) as err:
            gate.try_admit(None)
        assert err.value.reason == "queue_full"
        assert err.value.retry_after > 0

    def test_zero_queue_still_serves_while_slots_are_free(self):
        # max_queue=0 means "no waiting", not "no serving": a free
        # execution slot admits regardless of queue capacity.
        gate = AdmissionGate(max_inflight=2, max_queue=0, clock=FakeClock())
        gate.try_admit(None)
        assert gate.enter(timeout=None)
        gate.try_admit(None)  # second slot still free
        assert gate.enter(timeout=None)
        with pytest.raises(ServiceOverloaded) as err:
            gate.try_admit(None)  # both slots busy, nowhere to wait
        assert err.value.reason == "queue_full"

    def test_deadline_unmeetable_shed_uses_the_ewma(self):
        gate = AdmissionGate(
            max_inflight=1, max_queue=8, expected_seconds=10.0,
            clock=FakeClock(),
        )
        with pytest.raises(ServiceOverloaded) as err:
            gate.try_admit(0.5)
        assert err.value.reason == "deadline_unmeetable"
        gate.try_admit(60.0)  # a generous budget is admitted

    def test_enter_timeout_releases_the_reservation(self):
        gate = AdmissionGate(max_inflight=1, max_queue=8, clock=FakeClock())
        gate.try_admit(None)
        assert gate.enter(timeout=None)  # takes the only slot
        gate.try_admit(None)
        assert not gate.enter(timeout=0.0)  # no slot; bounded, not a hang
        assert gate.stats().queued == 0  # the reservation was released

    def test_leave_folds_service_time_into_the_ewma(self):
        gate = AdmissionGate(
            max_inflight=1, max_queue=8, expected_seconds=1.0,
            ewma_alpha=0.5, clock=FakeClock(),
        )
        gate.try_admit(None)
        gate.enter(timeout=None)
        gate.leave(3.0)
        assert gate.stats().ewma_seconds == pytest.approx(2.0)


class TestCircuitBreaker:
    def test_trips_after_threshold_and_cools_down(self):
        clock = FakeClock()
        breaker = CircuitBreaker(
            failure_threshold=2, reset_after=10.0, clock=clock
        )
        assert breaker.allow()
        breaker.record_failure()
        assert breaker.state == "closed"
        breaker.record_failure()
        assert breaker.state == "open"
        assert not breaker.allow()
        assert breaker.retry_after() == pytest.approx(10.0)

    def test_half_open_admits_exactly_one_probe(self):
        clock = FakeClock()
        breaker = CircuitBreaker(
            failure_threshold=1, reset_after=5.0, clock=clock
        )
        breaker.record_failure()
        clock.advance(5.0)
        assert breaker.allow()  # the probe
        assert breaker.state == "half-open"
        assert not breaker.allow()  # a second concurrent probe is refused
        breaker.record_failure()  # the probe failed: reopen
        assert breaker.state == "open"
        clock.advance(5.0)
        assert breaker.allow()
        breaker.record_success()
        assert breaker.state == "closed"

    def test_released_probe_is_available_to_the_next_request(self):
        clock = FakeClock()
        breaker = CircuitBreaker(
            failure_threshold=1, reset_after=5.0, clock=clock
        )
        breaker.record_failure()
        clock.advance(5.0)
        permit = breaker.acquire()
        assert permit is not None and permit.is_probe
        assert breaker.acquire() is None  # the probe is held
        permit.release()  # request exited without touching the backend
        assert breaker.state == "half-open"
        again = breaker.acquire()  # NOT wedged: the probe is free again
        assert again is not None and again.is_probe
        again.failure()
        assert breaker.state == "open"

    def test_permit_resolution_is_once_only(self):
        breaker = CircuitBreaker(failure_threshold=1, clock=FakeClock())
        permit = breaker.acquire()
        assert permit is not None and not permit.is_probe
        permit.failure()  # trips (threshold 1)
        assert breaker.state == "open"
        permit.success()  # no-op: already resolved
        permit.release()  # no-op: already resolved
        assert breaker.state == "open"


# --------------------------------------------------------------------- #
# the service
# --------------------------------------------------------------------- #


class TestService:
    def test_happy_path_envelope_and_cache_hit(self, loads):
        service = _service()
        first = service.handle(_request())
        assert first["status"] == "ok"
        guarantee = first["body"]["guarantee"]
        assert guarantee["requested_notion"] == "kk"
        assert guarantee["winner"] == "kk"
        assert guarantee["degraded"] is False
        assert first["body"]["result"]["rows"]
        assert first["meta"]["cache_hit"] is False
        assert len(loads) == 1

        second = service.handle(_request())
        assert second["meta"]["cache_hit"] is True
        assert second["body"] == first["body"]
        assert service.registry.counter("serve.execute.computed") == 1
        assert len(loads) == 1  # a warm hit never loads the table

        third = service.handle(_request(k=3))  # new cell, known table
        assert third["meta"]["cache_hit"] is False
        assert len(loads) == 2  # loaded once, fingerprint memoized

    def test_bad_payload_is_a_request_error_not_an_exception(self):
        envelope = _service().handle({"k": "two"})
        assert envelope["status"] == "error"
        assert envelope["error"]["kind"] == "request"
        assert http_status(envelope) == 400

    def test_k_larger_than_table_is_a_request_error(self, loads):
        service = _service()
        envelope = service.handle(_request(k=100, n=30))
        assert envelope["status"] == "error"
        assert envelope["error"]["kind"] == "request"
        assert envelope["error"]["message"] == (
            "k=100 exceeds the table size n=30"
        )
        assert len(loads) == 1

        again = service.handle(_request(k=100, n=30))  # memoized identity
        assert _without_meta(again) == _without_meta(envelope)
        assert len(loads) == 1

    def test_table_spellings_share_one_memo_entry(self, loads):
        service = _service()
        # k > n keeps every request cheap: no chain ever runs.
        spellings = [
            _request(k=5000, dataset="art", n=None),
            _request(k=5000, dataset="ART", n=1000),
            _request(k=5000, dataset="artificial", n=None),
        ]
        envelopes = [service.handle(payload) for payload in spellings]
        assert {e["error"]["message"] for e in envelopes} == {
            "k=5000 exceeds the table size n=1000"
        }
        assert len(loads) == 1

    def test_concurrent_first_requests_load_the_table_once(self, loads):
        service = _service(
            config=ServiceConfig(retry=_FAST_RETRY, max_inflight=8)
        )
        envelopes: list[dict] = []
        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            workers = [
                threading.Thread(
                    target=lambda: envelopes.append(
                        service.handle(_request(k=100, n=30))
                    )
                )
                for _ in range(8)
            ]
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(timeout=30)
        finally:
            sys.setswitchinterval(previous)
        assert not any(worker.is_alive() for worker in workers)
        assert [e["error"]["kind"] for e in envelopes] == ["request"] * 8
        assert len(loads) == 1  # single-flight memo fill

    def test_unknown_dataset_keeps_its_envelope(self):
        envelope = _service().handle(_request(dataset="census2020"))
        assert envelope["error"] == {
            "type": "DatasetError",
            "kind": "infeasible",
            "message": "unknown dataset 'census2020'; known datasets: "
            "['adult', 'art', 'cmc']",
        }
        assert http_status(envelope) == 400

    def test_load_runs_under_the_request_deadline(self, monkeypatch):
        clock = FakeClock()
        service = _service(
            config=ServiceConfig(retry=_FAST_RETRY, breaker_threshold=1),
            clock=clock,
        )
        service.breaker.record_failure()  # trips (threshold 1)
        clock.advance(service.config.breaker_reset)
        real = service_module.load_dataset

        def slow_load(*args, **kwargs):
            clock.advance(10.0)  # the load alone overruns the 5 s budget
            return real(*args, **kwargs)

        monkeypatch.setattr(service_module, "load_dataset", slow_load)
        late = service.handle(_request(timeout=5.0))  # claims the probe
        assert late["status"] == "error"
        assert late["error"]["type"] == "DeadlineExceeded"
        assert service.breaker.state == "half-open"  # probe handed back

        monkeypatch.setattr(service_module, "load_dataset", real)
        fresh = service.handle(_request(timeout=5.0))
        assert fresh["status"] == "ok"
        assert service.breaker.state == "closed"

    def test_degradation_is_reported_never_silent(self):
        service = _service()
        plan = FaultPlan().inject("core.kk.couple", times=None)
        with fault_scope(plan):
            envelope = service.handle(_request())
        assert envelope["status"] == "ok"
        guarantee = envelope["body"]["guarantee"]
        assert guarantee["degraded"] is True
        assert guarantee["winner"] == "agglomerative"
        assert guarantee["requested_notion"] == "kk"
        attempts = envelope["body"]["fallback"]["attempts"]
        assert attempts[0] == {"name": "kk", "status": "error"}
        assert service.registry.counter("serve.degraded") == 1

    def test_agglomerative_size_limit_degrades_to_mondrian(self, monkeypatch):
        """Above ``DENSE_MAX_RECORDS`` the agglomerative rung refuses
        the table; the chain serves Mondrian and says so."""
        monkeypatch.setattr(agglomerative, "DENSE_MAX_RECORDS", 29)
        service = _service()
        envelope = service.handle(_request(notion="k", n=30))
        assert envelope["status"] == "ok"
        guarantee = envelope["body"]["guarantee"]
        assert guarantee["requested_notion"] == "k"
        assert guarantee["winner"] == "mondrian"
        assert guarantee["algorithm"] == "mondrian"
        assert guarantee["degraded"] is True
        attempts = envelope["body"]["fallback"]["attempts"]
        assert attempts[:2] == [
            {"name": "agglomerative", "status": "error"},
            {"name": "mondrian", "status": "ok"},
        ]
        assert service.registry.counter("serve.degraded") == 1

    def test_agglomerative_size_limit_leaves_kk_alone(self, monkeypatch):
        monkeypatch.setattr(agglomerative, "DENSE_MAX_RECORDS", 29)
        envelope = _service().handle(_request(notion="kk", n=30))
        assert envelope["status"] == "ok"
        guarantee = envelope["body"]["guarantee"]
        assert guarantee["winner"] == "kk"
        assert guarantee["degraded"] is False

    def test_transient_faults_are_absorbed_by_retry(self):
        service = _service()
        plan = (
            FaultPlan()
            .inject("serve.accept", times=1)
            .inject("serve.enqueue", times=1)
            .inject("serve.execute", times=1)
        )
        with fault_scope(plan):
            envelope = service.handle(_request())
        assert envelope["status"] == "ok"
        assert {site for site, _ in plan.fired} == {
            "serve.accept", "serve.enqueue", "serve.execute",
        }

    def test_custom_loader_tables_get_distinct_cache_entries(self):
        tables = {
            "flat": _edu_table([]),
            "grouped": _edu_table([["hs", "college"]]),
        }
        calls: list[str] = []

        def loader(request: AnonymizeRequest) -> Table:
            calls.append(request.dataset)
            return tables[request.dataset]

        service = _service(loader=loader)
        flat = service.handle(_request(dataset="flat", n=None, notion="k"))
        grouped = service.handle(
            _request(dataset="grouped", n=None, notion="k")
        )
        assert flat["status"] == grouped["status"] == "ok"
        assert grouped["meta"]["cache_hit"] is False  # no QI-config collision
        assert len(service.cache) == 2

        again = service.handle(_request(dataset="flat", n=None, notion="k"))
        assert again["meta"]["cache_hit"] is True
        assert calls == ["flat", "grouped", "flat"]  # custom loaders always load

    def test_breaker_open_sheds_with_retry_after(self):
        clock = FakeClock()
        service = _service(
            config=ServiceConfig(retry=_FAST_RETRY, breaker_threshold=2),
            clock=clock,
        )
        service.breaker.record_failure()
        service.breaker.record_failure()
        envelope = service.handle(_request())
        assert envelope["status"] == "shed"
        assert envelope["shed"]["reason"] == "breaker_open"
        assert envelope["shed"]["retry_after"] > 0
        assert http_status(envelope) == 429

    def test_half_open_probe_survives_cache_hits_and_bad_requests(self):
        # Regression: a request that claims the half-open probe but
        # exits before exercising the backend (cache hit, invalid
        # input) must hand the probe back — a leaked probe sheds every
        # later request as breaker_open until restart.
        clock = FakeClock()
        service = _service(
            config=ServiceConfig(retry=_FAST_RETRY, breaker_threshold=1),
            clock=clock,
        )
        primed = service.handle(_request())
        assert primed["status"] == "ok"
        service.breaker.record_failure()  # trips (threshold 1)
        assert service.breaker.state == "open"
        clock.advance(service.config.breaker_reset)

        hit = service.handle(_request())  # claims the probe, cache-hits
        assert hit["status"] == "ok" and hit["meta"]["cache_hit"]
        assert service.breaker.state == "half-open"

        bad = service.handle(_request(k=100))  # claims the probe, k > n
        assert bad["status"] == "error"
        assert bad["error"]["kind"] == "request"
        assert service.breaker.state == "half-open"

        fresh = service.handle(_request(k=3))  # the probe finally computes
        assert fresh["status"] == "ok"
        assert service.breaker.state == "closed"

    def test_accept_fault_exhaustion_is_an_envelope_not_an_exception(self):
        service = _service()
        plan = FaultPlan().inject("serve.accept", times=None)
        with fault_scope(plan):
            envelope = service.handle(_request())
        assert envelope["status"] == "error"
        assert http_status(envelope) == 500

    def test_retries_share_the_request_deadline(self):
        # Regression: each retry attempt must resume the *remaining*
        # client budget, not restart a fresh per-attempt deadline —
        # otherwise a faulty backend can hold a request for
        # attempts × budget.
        clock = FakeClock()

        def burning_sleeper(_seconds: float) -> None:
            clock.advance(10.0)  # one backoff overshoots the whole budget

        service = _service(
            config=ServiceConfig(
                retry=RetryPolicy(attempts=3, base_delay=0.01, seed=0)
            ),
            clock=clock,
            sleeper=burning_sleeper,
        )
        plan = FaultPlan().inject("serve.execute", times=1)
        with fault_scope(plan):
            envelope = service.handle(_request(timeout=5.0))
        # The retried attempt sees the budget already spent, so every
        # rung is skipped instead of running past the SLO.
        assert envelope["status"] == "error"
        assert envelope["error"]["kind"] == "exhausted"

    def test_unmeetable_deadline_sheds_instead_of_hanging(self):
        service = _service(
            config=ServiceConfig(retry=_FAST_RETRY, expected_seconds=10.0),
        )
        envelope = service.handle(_request(timeout=0.5))
        assert envelope["status"] == "shed"
        assert envelope["shed"]["reason"] == "deadline_unmeetable"

    def test_restart_serves_byte_identical_bodies_with_zero_recompute(
        self, tmp_path
    ):
        journal_path = tmp_path / "cache.jsonl"
        mix = request_mix(0, 4)

        first = _service(
            cache=ResultCache(
                Journal(journal_path), retry=_FAST_RETRY, sleeper=_no_sleep
            ),
        )
        reference = [first.handle(r) for r in mix]
        assert all(e["status"] == "ok" for e in reference)

        second = _service(
            cache=ResultCache(
                Journal(journal_path), retry=_FAST_RETRY, sleeper=_no_sleep
            ),
        )
        assert second.recover() == len(second.cache)
        assert second.recover() > 0
        replayed = [second.handle(r) for r in mix]
        assert [canonical_body(e) for e in replayed] == [
            canonical_body(e) for e in reference
        ]
        assert all(e["meta"]["cache_hit"] for e in replayed)
        assert second.registry.counter("serve.execute.computed") == 0

    def test_stats_snapshot_shape(self):
        service = _service()
        service.handle(_request())
        stats = service.stats()
        assert stats["queued"] == 0
        assert stats["inflight"] == 0
        assert stats["breaker"] == "closed"
        assert stats["cached_bodies"] == 1


# --------------------------------------------------------------------- #
# fallback clock injection (no hidden wall-clock reads)
# --------------------------------------------------------------------- #


class TestFallbackClock:
    def test_rung_timings_come_from_the_injected_clock(self):
        table = make_random_table(12, seed=3)
        clock = FakeClock(step=1.0)  # each read advances a full second
        outcome = run_with_fallback(table, 2, clock=clock)
        assert outcome.ok
        # A real clock would time these rungs in microseconds; whole
        # seconds prove every Timer read went through the fake.
        assert all(a.seconds >= 1.0 for a in outcome.report.attempts)


# --------------------------------------------------------------------- #
# HTTP transport + chaos drill
# --------------------------------------------------------------------- #


class TestHTTP:
    @pytest.fixture
    def server(self):
        service = _service()
        server = serve_http(service, port=0)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        yield f"http://127.0.0.1:{server.port}"
        server.shutdown()
        server.server_close()

    def _post(self, url, payload):
        data = json.dumps(payload).encode("utf-8")
        req = urllib.request.Request(
            url + "/anonymize", data=data, method="POST",
            headers={"Content-Type": "application/json"},
        )
        try:
            with urllib.request.urlopen(req, timeout=30) as resp:
                return resp.status, json.loads(resp.read())
        except urllib.error.HTTPError as err:
            return err.code, json.loads(err.read())

    def test_end_to_end_statuses(self, server):
        status, envelope = self._post(server, _request())
        assert status == 200
        assert envelope["body"]["guarantee"]["k"] == 2

        status, envelope = self._post(server, {"k": -1})
        assert status == 400
        assert envelope["error"]["kind"] == "request"

        with urllib.request.urlopen(server + "/healthz", timeout=30) as resp:
            health = json.loads(resp.read())
        assert health["breaker"] == "closed"
        with urllib.request.urlopen(server + "/metricz", timeout=30) as resp:
            metrics = json.loads(resp.read())
        assert metrics["counters"]["serve.requests"] == 2


class TestChaosDrill:
    def test_the_drill_passes(self, tmp_path):
        report = run_chaos_drill(tmp_path / "drill.jsonl")
        assert report.ok, report.format()
        assert len(report.checks) >= 8


class TestBackendPurity:
    """No request field selects an engine and no envelope reports one:
    bodies are a pure function of the request."""

    #: sha256 of the canonical body of each request, miss and hit alike.
    #: Bodies are a pure function of the request; these digests must
    #: never change without a deliberate ``ENVELOPE_VERSION`` bump.
    PINNED_BODIES = (
        (
            {"k": 2, "dataset": "art", "n": 30, "notion": "kk"},
            "526f8a5b0489ac9e33ada40aa9c067d69ecb1eaea0eff410d60b47feb9f69306",
        ),
        (
            {"k": 3, "dataset": "cmc", "n": 40, "notion": "k", "measure": "lm"},
            "5c9593d41e63c1cd8173aa59da51706be68a2e648b381a642846dbefcdb98f5d",
        ),
        (
            {"k": 3, "dataset": "adult", "n": 40, "notion": "global-1k"},
            "05239733ad43a46e030df98885e0af96055d901c7757ea0d69acc6b21ea2bbcd",
        ),
    )

    def test_backend_appears_nowhere(self):
        service = _service()
        miss = service.handle(_request())
        hit = service.handle(_request())
        assert hit["meta"]["cache_hit"] is True
        for envelope in (miss, hit):
            assert "backend" not in envelope["meta"]
            assert "backend" not in envelope["request"]
            assert "backend" not in json.dumps(envelope)

    def test_hit_and_miss_bodies_match_pinned_digests(self):
        service = _service()
        for payload, digest in self.PINNED_BODIES:
            miss = service.handle(dict(payload))
            hit = service.handle(dict(payload))
            assert miss["meta"]["cache_hit"] is False
            assert hit["meta"]["cache_hit"] is True
            for envelope in (miss, hit):
                body = canonical_body(envelope).encode()
                assert hashlib.sha256(body).hexdigest() == digest, payload

    def test_unknown_backend_is_a_request_error(self):
        """``backend`` is no longer a request field: it is rejected like
        any other unknown key, with the same envelope."""
        for value in ("python", "gpu"):
            with pytest.raises(RequestError, match="unknown request fields"):
                AnonymizeRequest.from_json({"k": 2, "backend": value})
        service = _service()
        stale = service.handle(_request(backend="python"))
        typo = service.handle(_request(bogus="python"))
        assert stale["status"] == typo["status"] == "error"
        assert stale["error"]["kind"] == typo["error"]["kind"] == "request"
        assert stale["error"]["message"] == typo["error"]["message"].replace(
            "bogus", "backend"
        )

    def test_to_json_excludes_backend(self):
        request = AnonymizeRequest.from_json({"k": 2, "n": 30})
        assert not hasattr(request, "backend")
        assert "backend" not in request.to_json()


# --------------------------------------------------------------------- #
# live telemetry (opt-in): windows, SLOs, flight, health gauges
# --------------------------------------------------------------------- #


def _live_service(clock=None, **config_overrides) -> AnonymizationService:
    kwargs = dict(retry=_FAST_RETRY, live_telemetry=True)
    kwargs.update(config_overrides)
    service_kwargs = {"sleeper": _no_sleep}
    if clock is not None:
        service_kwargs["clock"] = clock
    return AnonymizationService(ServiceConfig(**kwargs), **service_kwargs)


def _serve_in_thread(service):
    server = serve_http(service, port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    return server, f"http://127.0.0.1:{server.port}"


def _http_get(url, headers=None):
    req = urllib.request.Request(url, headers=headers or {})
    try:
        with urllib.request.urlopen(req, timeout=30) as resp:
            return resp.status, resp.headers.get("Content-Type", ""), resp.read()
    except urllib.error.HTTPError as err:
        return err.code, err.headers.get("Content-Type", ""), err.read()


def _http_post(url, payload):
    data = json.dumps(payload).encode("utf-8")
    req = urllib.request.Request(
        url + "/anonymize", data=data, method="POST",
        headers={"Content-Type": "application/json"},
    )
    try:
        with urllib.request.urlopen(req, timeout=30) as resp:
            return resp.status, json.loads(resp.read())
    except urllib.error.HTTPError as err:
        return err.code, json.loads(err.read())


class TestLiveTelemetry:
    def test_default_off_is_byte_identical_and_unannotated(self):
        # The purity contract: enabling telemetry must not change a
        # single response byte, and the default-off service must carry
        # zero new keys in its historical payloads.
        off, on = _service(), _live_service()
        off_env = off.handle(_request())
        on_env = on.handle(_request())
        assert canonical_body(off_env) == canonical_body(on_env)
        assert off_env["request"] == on_env["request"]
        assert sorted(off.stats()) == sorted(on.stats())
        health = off.health()
        assert health["status"] == "ok"
        assert "slo" not in health
        assert off.flight is None and off.slo is None
        assert not isinstance(off.registry, WindowedRegistry)
        assert isinstance(on.registry, WindowedRegistry)

    def test_window_and_debugz_require_live_telemetry(self):
        server, base = _serve_in_thread(_service())
        try:
            status, _, body = _http_get(base + "/metricz?window=60")
            assert status == 400
            assert b"live telemetry" in body
            status, _, body = _http_get(base + "/debugz")
            assert status == 400
            assert b"flight recorder disabled" in body
            # ...but the plain snapshot still carries the health gauges.
            status, _, body = _http_get(base + "/metricz")
            assert status == 200
            gauges = json.loads(body)["gauges"]
            for name in (
                "serve.gate.depth",
                "serve.breaker.state",
                "serve.cache.entries",
                "serve.cache.journal_bytes",
            ):
                assert name in gauges, name
        finally:
            server.shutdown()
            server.server_close()

    def test_live_endpoints_end_to_end(self):
        server, base = _serve_in_thread(_live_service())
        try:
            status, envelope = _http_post(base, _request())
            assert status == 200 and envelope["status"] == "ok"

            status, ctype, body = _http_get(base + "/metricz?window=60")
            assert status == 200 and "application/json" in ctype
            snap = json.loads(body)
            assert snap["v"] == 2
            assert snap["window"]["seconds"] == 60.0
            assert snap["window"]["counters"]["serve.requests"] >= 1

            status, ctype, body = _http_get(
                base + "/metricz?window=60&format=text"
            )
            assert status == 200
            assert ctype.startswith("text/plain")
            assert b"repro_serve_requests_total" in body
            assert b'window="60"' in body

            # Content negotiation: an Accept header alone selects text.
            status, ctype, _ = _http_get(
                base + "/metricz", headers={"Accept": "text/plain"}
            )
            assert status == 200 and ctype.startswith("text/plain")

            status, _, body = _http_get(base + "/metricz?format=yaml")
            assert status == 400

            status, _, body = _http_get(base + "/debugz")
            assert status == 200
            flight = json.loads(body)
            assert flight["entries"][0]["kind"] == "request"
            assert flight["entries"][0]["summary"]["status"] == "ok"

            status, _, body = _http_get(base + "/healthz")
            health = json.loads(body)
            assert health["status"] in ("ok", "warn", "breach")
            assert [o["objective"]["name"] for o in health["slo"]] == [
                "latency-p99", "error-ratio", "shed-ratio",
            ]
        finally:
            server.shutdown()
            server.server_close()

    def test_metricz_survives_hammering_threads(self):
        # ThreadingHTTPServer serves each request on its own thread;
        # concurrent scrapes and POSTs must never corrupt a snapshot or
        # error out while the windowed registry is being written.
        server, base = _serve_in_thread(_live_service())
        failures: list[str] = []

        def scrape(path, check):
            for _ in range(10):
                status, _, body = _http_get(base + path)
                if status != 200:
                    failures.append(f"{path} -> {status}")
                    return
                try:
                    check(body)
                except Exception as exc:  # pragma: no cover - diagnostic
                    failures.append(f"{path}: {exc}")
                    return

        def post():
            for _ in range(5):
                status, envelope = _http_post(base, _request())
                if status != 200 or envelope["status"] != "ok":
                    failures.append(f"POST -> {status}")
                    return

        threads = [threading.Thread(target=post) for _ in range(2)]
        threads += [
            threading.Thread(
                target=scrape,
                args=("/metricz?window=60", lambda b: json.loads(b)["window"]),
            )
            for _ in range(3)
        ]
        threads += [
            threading.Thread(
                target=scrape,
                args=(
                    "/metricz?format=text",
                    lambda b: b.index(b"repro_"),
                ),
            )
            for _ in range(2)
        ]
        threads += [
            threading.Thread(
                target=scrape,
                args=("/debugz", lambda b: json.loads(b)["entries"]),
            )
        ]
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert failures == []
            status, _, body = _http_get(base + "/metricz?window=60")
            assert status == 200
            snap = json.loads(body)
            assert snap["counters"]["serve.requests"] == 10
            assert snap["window"]["counters"]["serve.requests"] == 10
        finally:
            server.shutdown()
            server.server_close()

    def test_fake_clock_regression_trips_slo_once(self, tmp_path):
        # Every clock read ticks 10 ms, so each request appears to take
        # seconds against a 500 ms p99 target: the first request crosses
        # the breach edge, and — critically — staying breached must not
        # write a second dump.
        flight_path = tmp_path / "flight.json"
        clock = FakeClock(step=0.01)
        service = _live_service(
            clock=clock,
            flight_journal=str(flight_path),
            window_horizon_seconds=600.0,
            objectives=default_objectives(latency_target=0.5),
        )
        for _ in range(3):
            assert service.handle(_request())["status"] == "ok"
        assert service.registry.counter("serve.slo.breaches") == 1
        assert service.registry.counter("serve.flight.dumps") == 1
        assert service.flight_dumps == 1
        assert flight_path.is_file()
        assert service.slo_status() == "breach"
        dump = json.loads(flight_path.read_text())
        kinds = [entry["kind"] for entry in dump["entries"]]
        assert "breach" in kinds

        # Still breached: more traffic, still exactly one dump.
        service.handle(_request())
        assert service.flight_dumps == 1
        assert service.registry.counter("serve.slo.breaches") == 1

        assert isinstance(service.registry, WindowedRegistry)
        snap = service.registry.window_snapshot(60.0)
        window = snap["window"]
        requests = window["counters"]["serve.requests"]
        assert requests == 4
        assert window["rates"]["serve.requests"] == pytest.approx(
            requests / 60.0
        )
        assert window["quantiles"]["serve.request_seconds"]["p99"] > 0.5
        health = service.health()
        assert health["status"] == "breach"

    def test_slo_advisory_halves_the_breaker_and_inflates_waits(self, tmp_path):
        clock = FakeClock(step=0.01)
        service = _live_service(
            clock=clock,
            slo_advisory=True,
            window_horizon_seconds=600.0,
            objectives=default_objectives(latency_target=0.5),
        )
        baseline = _live_service()
        assert baseline.gate._pressure == 1.0
        service.handle(_request())
        assert service.slo_status() == "breach"
        # Level-triggered advisory: pressure doubled, breaker paranoid.
        assert service.gate._pressure == 2.0
        assert service.breaker._advised_pressure is True
        threshold = service.config.breaker_threshold
        for _ in range(max(1, threshold // 2)):
            service.breaker.record_failure()
        assert service.breaker.state == "open"
