"""Cache-correctness tests: canonical-options insensitivity (hypothesis),
single-flight dedup under concurrency, backpressure, a dead pool worker,
and the cache unit."""

import asyncio
import json
import os
import threading
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.recovery import files as files_module
from repro.recovery import json_digest
from repro.serve import ScheduleCache, ScheduleService, canonical_options
from repro.serve.api import OPTION_DEFAULTS, PROGRAM_SCHEDULERS
from repro.serve.api import compute_response as real_compute_response

from tests.test_serve import decoded


# ----------------------------------------------------------------------
# canonical options: order- and default-insensitive (satellite 4a)
# ----------------------------------------------------------------------
_OPTION_VALUES = {
    "mapping": st.sampled_from(["consecutive", "scattered"]),
    "version": st.sampled_from(["tp", "dp"]),
    "groups": st.one_of(st.none(), st.integers(min_value=1, max_value=64)),
    "scheduler": st.sampled_from(list(PROGRAM_SCHEDULERS)),
}


@st.composite
def options_spellings(draw):
    """Two spellings of one options dict: permuted keys, defaults toggled."""
    chosen = {
        name: draw(strat)
        for name, strat in _OPTION_VALUES.items()
        if draw(st.booleans())
    }
    full = dict(OPTION_DEFAULTS, **chosen)

    def spelling():
        keys = [k for k in full if not (
            full[k] == OPTION_DEFAULTS[k] and draw(st.booleans()))]
        order = draw(st.permutations(keys))
        return {k: full[k] for k in order}

    return chosen, spelling(), spelling()


class TestCanonicalOptions:
    @settings(max_examples=200, deadline=None)
    @given(options_spellings())
    def test_order_and_default_insensitive(self, triple):
        """Key order and spelling defaults out never change the digest."""
        _, a, b = triple
        ca, cb = canonical_options(a), canonical_options(b)
        assert ca == cb
        assert json_digest(ca) == json_digest(cb)

    @settings(max_examples=100, deadline=None)
    @given(options_spellings())
    def test_canonical_form_elides_defaults(self, triple):
        chosen, a, _ = triple
        canonical = canonical_options(a)
        for key, value in canonical.items():
            assert value != OPTION_DEFAULTS[key]
        # every non-default chosen value survives canonicalization
        for key, value in chosen.items():
            if value != OPTION_DEFAULTS[key]:
                assert canonical[key] == value

    def test_canonical_form_is_key_sorted(self):
        canonical = canonical_options(
            {"scheduler": "amtha", "mapping": "scattered"})
        assert list(canonical) == sorted(canonical)

    def test_empty_and_none_and_all_defaults_agree(self):
        assert canonical_options(None) == canonical_options({}) == \
            canonical_options(dict(OPTION_DEFAULTS)) == {}


# ----------------------------------------------------------------------
# single-flight dedup (satellite 4b)
# ----------------------------------------------------------------------
def _count_calls(monkeypatch):
    """Wrap api.compute_response with an invocation counter."""
    from repro.serve import api

    calls = []
    original = api.compute_response

    def counting(request, *args):
        calls.append(request)
        return original(request, *args)

    monkeypatch.setattr("repro.serve.api.compute_response", counting)
    return calls


class TestSingleFlight:
    def test_concurrent_identical_requests_one_solver_call(self, monkeypatch):
        calls = _count_calls(monkeypatch)
        svc = ScheduleService(workers=0)
        body = json.dumps(
            {"workload": {"solver": "irk", "n": 24}}).encode()

        async def fire():
            return await asyncio.gather(
                svc.handle("POST", "/v1/schedule", body, {}),
                svc.handle("POST", "/v1/schedule", body, {}),
            )

        try:
            r1, r2 = asyncio.run(fire())
        finally:
            svc.close()
        assert r1.status == r2.status == 200
        assert r1.body == r2.body
        assert len(calls) == 1, "identical concurrent requests must coalesce"
        assert {r1.headers["X-Cache"], r2.headers["X-Cache"]} == \
            {"miss", "coalesced"}

    def test_coalesced_request_counted_per_tenant(self, monkeypatch):
        _count_calls(monkeypatch)
        svc = ScheduleService(workers=0)
        a = json.dumps({"workload": {"solver": "irk", "n": 24},
                        "tenant": "alice"}).encode()
        b = json.dumps({"workload": {"solver": "irk", "n": 24},
                        "tenant": "bob"}).encode()

        async def fire():
            return await asyncio.gather(
                svc.handle("POST", "/v1/schedule", a, {}),
                svc.handle("POST", "/v1/schedule", b, {}),
            )

        try:
            asyncio.run(fire())
            text = asyncio.run(svc.handle("GET", "/metrics", b"", {}))
        finally:
            svc.close()
        assert "serve_coalesced_total" in text.body.decode()

    def test_sequential_requests_do_not_coalesce(self, monkeypatch):
        calls = _count_calls(monkeypatch)
        svc = ScheduleService(workers=0)
        body = json.dumps({"workload": {"solver": "irk", "n": 24}}).encode()
        try:
            r1 = asyncio.run(svc.handle("POST", "/v1/schedule", body, {}))
            r2 = asyncio.run(svc.handle("POST", "/v1/schedule", body, {}))
        finally:
            svc.close()
        assert len(calls) == 1  # second is a plain cache hit
        assert r2.headers["X-Cache"] == "hit"
        assert r1.body == r2.body


# ----------------------------------------------------------------------
# backpressure (tentpole contract)
# ----------------------------------------------------------------------
class TestBackpressure:
    def test_queue_cap_answers_429_with_retry_after(self, monkeypatch):
        from repro.serve import api

        gate = threading.Event()
        original = api.compute_response

        def blocking(*args):
            gate.wait(30)
            return original(*args)

        monkeypatch.setattr("repro.serve.api.compute_response", blocking)
        svc = ScheduleService(workers=0, max_queue=1, retry_after=2.5)
        slow = json.dumps({"workload": {"solver": "irk", "n": 24}}).encode()
        other = json.dumps({"workload": {"solver": "pab", "n": 24}}).encode()

        async def fire():
            slow_task = asyncio.create_task(
                svc.handle("POST", "/v1/schedule", slow, {}))
            # wait until the slow job occupies the queue slot
            for _ in range(200):
                if svc._jobs >= 1:
                    break
                await asyncio.sleep(0.01)
            rejected = await svc.handle("POST", "/v1/schedule", other, {})
            gate.set()
            done = await slow_task
            return rejected, done

        try:
            rejected, done = asyncio.run(fire())
        finally:
            gate.set()
            svc.close()
        assert done.status == 200
        assert rejected.status == 429
        assert decoded(rejected)["error"]["code"] == "over_capacity"
        assert rejected.headers["Retry-After"] == "2.5"

    def test_rejections_are_counted(self, monkeypatch):
        from repro.serve import api

        gate = threading.Event()
        original = api.compute_response

        def blocking(*args):
            gate.wait(30)
            return original(*args)

        monkeypatch.setattr("repro.serve.api.compute_response", blocking)
        svc = ScheduleService(workers=0, max_queue=1)
        slow = json.dumps({"workload": {"solver": "irk", "n": 24}}).encode()
        other = json.dumps({"workload": {"solver": "pab", "n": 24}}).encode()

        async def fire():
            slow_task = asyncio.create_task(
                svc.handle("POST", "/v1/schedule", slow, {}))
            for _ in range(200):
                if svc._jobs >= 1:
                    break
                await asyncio.sleep(0.01)
            await svc.handle("POST", "/v1/schedule", other, {})
            gate.set()
            await slow_task
            return await svc.handle("GET", "/metrics", b"", {})

        try:
            metrics = asyncio.run(fire())
        finally:
            gate.set()
            svc.close()
        assert 'serve_rejected_total{reason="backpressure",tenant="anonymous"} 1' \
            in metrics.body.decode()


# ----------------------------------------------------------------------
# a dead pool worker
# ----------------------------------------------------------------------
#: file whose absence tells ``die_in_worker_once`` to kill its process;
#: set before the pool forks, so the workers inherit it
DIE_MARKER = None


def die_in_worker_once(request, *args):
    """``compute_response`` stand-in: the first call takes its worker
    process down the way an OOM kill would, later calls compute."""
    if not os.path.exists(DIE_MARKER):
        Path(DIE_MARKER).touch()
        os._exit(1)
    return real_compute_response(request, *args)


class TestBrokenPool:
    def test_pool_is_rebuilt_after_a_worker_dies(self, tmp_path, monkeypatch):
        monkeypatch.setattr(f"{__name__}.DIE_MARKER", str(tmp_path / "died"))
        monkeypatch.setattr("repro.serve.api.compute_response", die_in_worker_once)
        svc = ScheduleService(workers=1)
        irk = json.dumps({"workload": {"solver": "irk", "n": 24}}).encode()
        pab = json.dumps({"workload": {"solver": "pab", "n": 24}}).encode()
        try:
            broken = asyncio.run(svc.handle("POST", "/v1/schedule", irk, {}))
            assert svc._executor is None, "the broken pool must be dropped"
            following = asyncio.run(svc.handle("POST", "/v1/schedule", pab, {}))
            retried = asyncio.run(svc.handle("POST", "/v1/schedule", irk, {}))
        finally:
            svc.close()
        assert broken.status == 500
        assert decoded(broken)["error"]["code"] == "internal"
        assert "BrokenProcessPool" in decoded(broken)["error"]["message"]
        assert following.status == 200 and following.headers["X-Cache"] == "miss"
        # the request that hit the break was not cached as a failure
        assert retried.status == 200 and retried.headers["X-Cache"] == "miss"


# ----------------------------------------------------------------------
# the cache unit
# ----------------------------------------------------------------------
class TestScheduleCache:
    def test_memory_roundtrip(self):
        cache = ScheduleCache()
        assert cache.get("ab12") is None
        cache.put("ab12", b"payload")
        assert cache.get("ab12") == b"payload"
        assert len(cache) == 1
        assert cache.hits == 1 and cache.misses == 1
        assert cache.hit_rate == 0.5

    def test_disk_roundtrip_and_atomic_write(self, tmp_path):
        cache = ScheduleCache(tmp_path)
        cache.put("ab12", b"payload")
        assert (tmp_path / "ab12.json").read_bytes() == b"payload"
        assert not list(tmp_path.glob("*.tmp-*")), "tmp file left behind"
        fresh = ScheduleCache(tmp_path)
        assert fresh.get("ab12") == b"payload"

    def test_put_is_idempotent_on_disk(self, tmp_path):
        cache = ScheduleCache(tmp_path)
        cache.put("ab12", b"payload")
        cache.put("ab12", b"payload")
        assert cache.writes == 1

    def test_rejects_non_hex_keys(self, tmp_path):
        cache = ScheduleCache(tmp_path)
        for bad in ("../evil", "UPPER", "", "a b"):
            with pytest.raises(ValueError):
                cache.get(bad)
            with pytest.raises(ValueError):
                cache.put(bad, b"x")

    def test_memory_lru_evicts_but_disk_retains(self, tmp_path):
        cache = ScheduleCache(tmp_path, max_memory_entries=2)
        for i in range(4):
            cache.put(f"{i:02x}", str(i).encode())
        assert len(cache._memory) == 2
        assert len(cache) == 4  # all four on disk
        assert cache.get("00") == b"0"  # reloaded from disk

    def test_pure_memory_lru_drops_oldest(self):
        cache = ScheduleCache(max_memory_entries=2)
        cache.put("aa", b"1")
        cache.put("bb", b"2")
        cache.put("cc", b"3")
        assert cache.get("aa") is None
        assert cache.get("cc") == b"3"

    def test_temp_names_never_repeat_across_instances(self, tmp_path, monkeypatch):
        # two server processes sharing --cache-dir can agree on id(self);
        # the temporary name must not depend on it
        monkeypatch.setattr(files_module, "id", lambda obj: 7, raising=False)
        names = []
        replace = Path.replace

        def recording(path, target):
            names.append(path.name)
            return replace(path, target)

        monkeypatch.setattr(Path, "replace", recording)
        caches = [ScheduleCache(tmp_path), ScheduleCache(tmp_path)]
        start = threading.Barrier(2)

        def writer(cache, keys):
            start.wait(10)
            for key in keys:
                cache.put(key, key.encode() * 100)

        shared = [f"{i:04x}" for i in range(40)]
        own = [[f"a{i:03x}" for i in range(40)], [f"b{i:03x}" for i in range(40)]]
        threads = [
            threading.Thread(target=writer, args=(cache, shared + keys))
            for cache, keys in zip(caches, own)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(30)
        assert not any(t.is_alive() for t in threads)
        assert len(names) >= 120 and len(set(names)) == len(names)
        assert all(f".tmp-{os.getpid()}-" in name for name in names)
        assert not list(tmp_path.glob("*.tmp-*")), "tmp file left behind"
        fresh = ScheduleCache(tmp_path)
        assert len(fresh) == 120
        for key in shared + own[0] + own[1]:
            assert fresh.get(key) == key.encode() * 100

    def test_leftover_temp_file_is_not_an_entry(self, tmp_path):
        cache = ScheduleCache(tmp_path)
        cache.put("ab12", b"payload")
        (tmp_path / "cd34.tmp-4242-0").write_bytes(b"torn wri")  # a crashed writer
        assert len(cache) == 1
        assert ScheduleCache(tmp_path).get("cd34") is None
        cache.put("cd34", b"whole")
        assert len(cache) == 2 and ScheduleCache(tmp_path).get("cd34") == b"whole"
