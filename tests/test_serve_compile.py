"""A cold request compiles once: the ``CompiledProgram`` unit, the bounded
memos behind it, the per-process platform memo, the parse memo of the
paper solvers and the regex lexer (against the character loop it replaced)."""

import asyncio
import importlib.util
import json
import pickle
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import Machine
from repro.cluster.platforms import by_name, chic, juropa
from repro.obs.registry import topology_digest
from repro.ode import bruss2d
from repro.ode import programs as ode_programs
from repro.ode.programs import MethodConfig, build_ode_program
from repro.serve import ScheduleService, api
from repro.serve import service as service_module
from repro.serve.cache import LRU
from repro.spec import GraphBuilder
from repro.spec import lexer
from repro.spec.lexer import KEYWORDS, LexError, Token, tokenize

from tests.test_serve import decoded

SOLVERS = ("irk", "diirk", "epol", "pab", "pabm")

FORK_JOIN = """
task prep(a : vector : out : replic);
task left(a : vector : in : replic, b : vector : out : replic);
task right(a : vector : in : replic, c : vector : out : replic);
task join(b : vector : in : replic, c : vector : in : replic,
          d : vector : out : replic);
cmmain MAIN(d : vector : out : replic) {
  var a, b, c : vector;
  seq { prep(a); par { left(a, b); right(a, c); } join(b, c, d); }
}
"""


def workload_payload(solver="irk", n=24, cores=16, **options):
    return {
        "workload": {"solver": solver, "n": n},
        "topology": {"platform": "chic", "cores": cores},
        "options": options,
    }


def dsl_payload(work=1e5, cores=16, **options):
    return {
        "program": {"dsl": FORK_JOIN, "sizes": {"vector": 64}, "work": {"*": work}},
        "topology": {"platform": "chic", "cores": cores},
        "options": options,
    }


def canonical(endpoint, payload):
    request = api.validate_request(endpoint, payload)
    request.pop("tenant")
    return request


def post(svc, endpoint, payload):
    return asyncio.run(
        svc.handle("POST", f"/v1/{endpoint}", json.dumps(payload).encode(), {})
    )


REQUESTS = [("schedule", workload_payload(s)) for s in SOLVERS] + [
    ("simulate", workload_payload("pabm", n=30)),
    ("run", workload_payload("irk")),
    ("schedule", dsl_payload(scheduler="moldable")),
]
REQUEST_IDS = [f"{e}-{p.get('workload', {}).get('solver', 'dsl')}" for e, p in REQUESTS]


# ----------------------------------------------------------------------
# the compiled unit
# ----------------------------------------------------------------------
class TestCompiledProgram:
    @pytest.mark.parametrize("endpoint,payload", REQUESTS, ids=REQUEST_IDS)
    def test_pickle_roundtrip_keeps_identity_and_cold_body(self, endpoint, payload):
        request = canonical(endpoint, payload)
        compiled = api.compile_request(request)
        shipped = pickle.loads(pickle.dumps(compiled))
        assert shipped.program_digest == compiled.program_digest
        assert shipped.digests == compiled.digests
        assert shipped.tasks == compiled.tasks == len(shipped.graph)
        assert api.render_body(
            api.compute_response(request, shipped)["body"]
        ) == api.render_body(api.compute_response(request, compiled)["body"])

    @pytest.mark.parametrize("endpoint,payload", REQUESTS, ids=REQUEST_IDS)
    def test_compute_with_and_without_the_unit_agree(self, endpoint, payload):
        request = canonical(endpoint, payload)
        alone = api.compute_response(request)
        given_unit = api.compute_response(request, api.compile_request(request))
        alone.pop("seconds"), given_unit.pop("seconds")
        assert alone == given_unit
        assert alone["body"]["digests"] == api.request_digests(request)

    def test_unit_is_immutable(self):
        compiled = api.compile_request(canonical("schedule", workload_payload()))
        with pytest.raises(AttributeError):
            compiled.program_digest = "0" * 64
        compiled.digests["program"] = "tampered"  # a copy, not the unit's state
        assert compiled.digests["program"] == compiled.program_digest

    def test_dsl_errors_surface_from_compile(self):
        payload = dsl_payload()
        payload["program"]["dsl"] = "task a(x : vector"
        with pytest.raises(api.RequestError) as err:
            api.compile_request(canonical("schedule", payload))
        assert err.value.code == "parse_error"


# ----------------------------------------------------------------------
# one compile per cold request, no full machine after the first request
# ----------------------------------------------------------------------
@pytest.fixture
def front_end_log(tmp_path, monkeypatch):
    """Log every ``GraphBuilder.build`` call and every ``Machine``
    constructed (its core count) to a file, so a forked pool worker's
    calls are seen too."""
    log = tmp_path / "front-end.log"
    build, post_init = GraphBuilder.build, Machine.__post_init__

    def logged_build(self, *args):
        with open(log, "a") as fh:
            fh.write("build\n")
        return build(self, *args)

    def logged_post_init(self):
        post_init(self)
        with open(log, "a") as fh:
            fh.write(f"machine {self.total_cores}\n")

    monkeypatch.setattr(GraphBuilder, "build", logged_build)
    monkeypatch.setattr(Machine, "__post_init__", logged_post_init)

    def read_and_reset():
        lines = log.read_text().split("\n")[:-1] if log.exists() else []
        log.write_text("")
        return lines

    return read_and_reset


class TestColdRequestCompilesOnce:
    @pytest.mark.parametrize("workers", [0, 1], ids=["threads", "process-pool"])
    @pytest.mark.parametrize(
        "endpoint,payload",
        [
            ("schedule", workload_payload("epol", n=26, cores=64)),
            ("simulate", workload_payload("pab", n=26, cores=64)),
            ("schedule", dsl_payload(work=2e5, cores=64)),
        ],
        ids=["schedule", "simulate", "dsl"],
    )
    def test_one_build_and_only_prefix_machines(
        self, workers, endpoint, payload, front_end_log
    ):
        svc = ScheduleService(workers=workers)
        try:
            # the first request of a process may build the full platform
            warm = post(svc, "schedule", workload_payload("irk", n=22, cores=32))
            assert warm.status == 200
            front_end_log()
            cold = post(svc, endpoint, payload)
            lines = front_end_log()
            again = post(svc, endpoint, payload)
            assert front_end_log() == []  # a hit touches no front end at all
        finally:
            svc.close()
        assert cold.status == 200 and cold.headers["X-Cache"] == "miss"
        assert again.headers["X-Cache"] == "hit" and again.body == cold.body
        assert lines.count("build") == 1
        machines = [int(line.split()[1]) for line in lines if line.startswith("machine")]
        # one prefix for the digest (server thread), one for the cost model (worker)
        assert machines == [64, 64]

    @staticmethod
    def gated_compile(monkeypatch):
        """Hold ``api.compile_request`` at a gate; returns the gate and
        the list of requests that reached it."""
        import threading

        gate, calls = threading.Event(), []
        compile_request = api.compile_request

        def gated(request):
            calls.append(request)
            assert gate.wait(timeout=10)
            return compile_request(request)

        monkeypatch.setattr(api, "compile_request", gated)
        return gate, calls

    def test_concurrent_identical_cold_requests_compile_once(self, monkeypatch):
        gate, calls = self.gated_compile(monkeypatch)
        body = json.dumps(workload_payload("irk", n=22, cores=16)).encode()

        async def two(svc):
            first = asyncio.ensure_future(
                svc.handle("POST", "/v1/schedule", body, {"X-Tenant": "a"})
            )
            second = asyncio.ensure_future(
                svc.handle("POST", "/v1/schedule", body, {"X-Tenant": "b"})
            )
            while not calls:
                await asyncio.sleep(0.001)
            await asyncio.sleep(0.01)  # the second is waiting on the first's key
            assert len(svc._inflight) == 1
            gate.set()
            return await asyncio.gather(first, second)

        svc = ScheduleService(workers=0)
        try:
            first, second = asyncio.run(two(svc))
        finally:
            svc.close()
        assert len(calls) == 1
        assert first.status == second.status == 200 and first.body == second.body
        assert first.headers["X-Cache"] == "miss"
        assert second.headers["X-Cache"] == "coalesced"
        assert not svc._inflight and svc._jobs == 0

    def test_waiter_compiles_for_itself_when_the_compiling_request_is_cancelled(
        self, monkeypatch
    ):
        gate, calls = self.gated_compile(monkeypatch)
        body = json.dumps(workload_payload("irk", n=22, cores=16)).encode()

        async def leader_cancelled(svc):
            leader = asyncio.ensure_future(svc.handle("POST", "/v1/schedule", body, {}))
            waiter = asyncio.ensure_future(svc.handle("POST", "/v1/schedule", body, {}))
            while not calls:
                await asyncio.sleep(0.001)
            await asyncio.sleep(0.01)
            leader.cancel()
            await asyncio.sleep(0.01)  # the waiter takes over and reaches the gate
            gate.set()
            with pytest.raises(asyncio.CancelledError):
                await leader
            return await waiter

        svc = ScheduleService(workers=0)
        try:
            answered = asyncio.run(leader_cancelled(svc))
        finally:
            svc.close()
        assert len(calls) == 2
        assert answered.status == 200 and answered.headers["X-Cache"] == "miss"
        assert not svc._inflight and svc._jobs == 0

    def test_waiters_get_the_compiling_requests_error(self, monkeypatch):
        gate, calls = self.gated_compile(monkeypatch)
        payload = dsl_payload()
        payload["program"]["dsl"] = "task a(x : vector"
        body = json.dumps(payload).encode()

        async def two(svc):
            both = [
                asyncio.ensure_future(svc.handle("POST", "/v1/schedule", body, {}))
                for _ in range(2)
            ]
            while not calls:
                await asyncio.sleep(0.001)
            await asyncio.sleep(0.01)
            gate.set()
            return await asyncio.gather(*both)

        svc = ScheduleService(workers=0)
        try:
            first, second = asyncio.run(two(svc))
        finally:
            svc.close()
        assert len(calls) == 1
        assert first.status == second.status == 400
        assert decoded(first)["error"]["code"] == decoded(second)["error"]["code"] == "parse_error"
        assert not svc._inflight

    def test_failing_pool_construction_is_a_structured_500_and_leaves_no_job(
        self, monkeypatch
    ):
        svc = ScheduleService(workers=0)

        def no_pool():
            raise OSError("cannot fork")

        monkeypatch.setattr(svc, "_pool", no_pool)
        payload = workload_payload("irk", n=22, cores=16)
        failed = post(svc, "schedule", payload)
        assert failed.status == 500 and "OSError" in decoded(failed)["error"]["message"]
        assert not svc._inflight and svc._jobs == 0
        monkeypatch.undo()
        try:
            retry = post(svc, "schedule", payload)
        finally:
            svc.close()
        assert retry.status == 200 and retry.headers["X-Cache"] == "miss"


# ----------------------------------------------------------------------
# bounded memos
# ----------------------------------------------------------------------
class TestBoundedMemos:
    def test_lru_holds_its_capacity_and_refreshes_on_use(self):
        lru = LRU(3)
        for i in range(3):
            lru.put(i, str(i))
        assert lru.get(0) == "0"  # now the most recent
        lru.put(3, "3")
        assert list(lru) == [2, 0, 3] and lru.get(1) is None
        assert lru.get("missing", "default") == "default"

    def test_key_memo_capacity_holds(self):
        lru = LRU(service_module.KEY_MEMO_ENTRIES)
        for i in range(service_module.KEY_MEMO_ENTRIES + 500):
            lru.put(i, i)
        assert len(lru) == service_module.KEY_MEMO_ENTRIES
        assert 499 not in lru and 500 in lru

    def test_key_memo_stays_bounded_over_1000_programs(
        self, tmp_path, monkeypatch
    ):
        # a small key memo, so that the first request's key is evicted too
        monkeypatch.setattr(service_module, "KEY_MEMO_ENTRIES", 64)
        svc = ScheduleService(cache_dir=tmp_path, workers=0)
        try:
            first = post(svc, "schedule", dsl_payload(work=1.0))
            for i in range(2, 1001):
                response = post(svc, "schedule", dsl_payload(work=float(i)))
                assert response.status == 200
                assert len(svc._keys) <= 64
            assert len(svc._keys) == 64
            assert not svc._inflight
            # evicted from the key memo and from the memory tier of the
            # response cache: compiled again, answered from disk
            again = post(svc, "schedule", dsl_payload(work=1.0))
        finally:
            svc.close()
        assert first.headers["X-Cache"] == "miss"
        assert again.headers["X-Cache"] == "hit"
        assert again.body == first.body

    def test_requests_are_remembered_by_digest_whatever_their_length(self):
        svc = ScheduleService(workers=0)
        long_program = dsl_payload()
        long_program["program"]["dsl"] += "// padding\n" * 200
        try:
            post(svc, "schedule", workload_payload())
            cold = post(svc, "schedule", long_program)
            again = post(svc, "schedule", long_program)
            remembered = list(svc._keys)
        finally:
            svc.close()
        assert len(remembered) == 2
        for memo_key in remembered:
            assert len(memo_key) == 64 and set(memo_key) <= set("0123456789abcdef")
        assert cold.headers["X-Cache"] == "miss"
        assert again.headers["X-Cache"] == "hit" and again.body == cold.body

    def test_parse_memo_is_bounded_and_shares_the_tree(self):
        parsed = ode_programs._parsed
        parsed.cache_clear()
        problem = bruss2d(4)
        assert parsed.cache_info().maxsize == ode_programs.PARSED_SOURCES
        for n in (4, 6):  # the source does not depend on the problem size
            build_ode_program(bruss2d(n), MethodConfig("pab", K=3))
        assert parsed.cache_info().misses == 1 and parsed.cache_info().hits == 1
        for K in range(1, ode_programs.PARSED_SOURCES + 10):
            build_ode_program(problem, MethodConfig("pab", K=K))
        assert parsed.cache_info().currsize == ode_programs.PARSED_SOURCES


# ----------------------------------------------------------------------
# the per-process platform memo
# ----------------------------------------------------------------------
class TestPlatformMemo:
    @pytest.mark.parametrize(
        "name,factory,per_node",
        [("chic", chic, 4), ("juropa", juropa, 8)],
    )
    @pytest.mark.parametrize("nodes", [1, 16, 64])
    def test_prefix_equals_a_fresh_partition(self, name, factory, per_node, nodes):
        prefix = by_name(name).with_cores(nodes * per_node)
        fresh = factory(nodes)
        assert prefix == fresh
        assert topology_digest(prefix) == topology_digest(fresh)
        assert prefix.machine.cores() == fresh.machine.cores()
        assert prefix.total_cores == nodes * per_node

    def test_full_platform_is_built_once_and_read_only(self):
        full = by_name("CHiC")
        assert by_name("chic") is full and full.total_cores == 2120
        assert by_name("altix") is by_name("sgi-altix")
        with pytest.raises(ValueError):
            full.machine.core_nodes[0] = 7
        with pytest.raises(AttributeError):
            full.machine = None


# ----------------------------------------------------------------------
# the lexer: one master regex against the character loop it replaced
# ----------------------------------------------------------------------
def reference_tokenize(source):
    """The character-loop lexer ``tokenize`` was, kept as the reference."""
    tokens = []
    i, line, col = 0, 1, 1
    n = len(source)

    def error(msg):
        return LexError(f"line {line}, column {col}: {msg}")

    while i < n:
        ch = source[i]
        if ch == "\n":
            i += 1
            line += 1
            col = 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if source.startswith("//", i):
            while i < n and source[i] != "\n":
                i += 1
            continue
        if source.startswith("/*", i):
            end = source.find("*/", i + 2)
            if end < 0:
                raise error("unterminated block comment")
            skipped = source[i : end + 2]
            line += skipped.count("\n")
            if "\n" in skipped:
                col = len(skipped) - skipped.rfind("\n")
            else:
                col += len(skipped)
            i = end + 2
            continue
        if ch.isdigit():
            j = i
            while j < n and source[j].isdigit():
                j += 1
            tokens.append(Token("int", source[i:j], line, col))
            col += j - i
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (source[j].isalnum() or source[j] == "_"):
                j += 1
            text = source[i:j]
            kind = "keyword" if text in KEYWORDS else "ident"
            tokens.append(Token(kind, text, line, col))
            col += j - i
            i = j
            continue
        for sym in lexer._SYMBOLS:
            if source.startswith(sym, i):
                tokens.append(Token("symbol", sym, line, col))
                col += len(sym)
                i += len(sym)
                break
        else:
            raise error(f"unexpected character {ch!r}")
    tokens.append(Token("eof", "", line, col))
    return tokens


def outcome(lex, source):
    try:
        return lex(source)
    except LexError as exc:
        return str(exc)


def generated_sources():
    """Every source text ``ode.programs`` can generate, over a grid of
    its parameters."""
    p = ode_programs
    for K in (1, 4, 8):
        yield p._epol_source(K, 1.0)
        for m in (1, 7):
            yield p._stage_chain_source("IRK", K, m, 2.5)
            yield p._jacobi_functional_source("DIIRK", K, m, 1.0)
            yield p._pabm_functional_source(K, m, 1.0)
        for functional in (False, True):
            yield p._block_source("PAB", K, 1.0, functional)


def example_source():
    path = Path(__file__).resolve().parents[1] / "examples" / "spec_language_demo.py"
    spec = importlib.util.spec_from_file_location("spec_language_demo", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.SPEC


#: the token alphabet, pieces that only make sense together, and
#: characters no token starts with (including non-ASCII digits and
#: letters, which ``str.isdigit`` / ``str.isalpha`` accept)
LEXEMES = (
    sorted(KEYWORDS)
    + lexer._SYMBOLS
    + ["x", "eta_k", "_t", "V1", "0", "42", "007", " ", "  ", "\t", "\r", "\n"]
    + ["//", "// note", "/*", "*/", "/* a\nb */", "!", "#", "$", "\f", "\x00"]
    + ["é", "²", "٣", "½", "a²", "1²3", "é_1"]
)


class TestLexerEquivalence:
    @pytest.mark.parametrize("source", sorted(set(generated_sources())))
    def test_generated_solver_sources(self, source):
        assert tokenize(source) == reference_tokenize(source)

    def test_example_source(self):
        source = example_source()
        assert len(tokenize(source)) > 50
        assert tokenize(source) == reference_tokenize(source)

    def test_request_sized_dsl(self):
        assert tokenize(FORK_JOIN) == reference_tokenize(FORK_JOIN)

    @pytest.mark.parametrize(
        "source,message",
        [
            ("a /* never closed", "line 1, column 3: unterminated block comment"),
            ("x\n  /* a\n b */ $", "line 3, column 7: unexpected character '$'"),
            ("// c\n\t!x", "line 2, column 2: unexpected character '!'"),
            ("a /*/ b", "line 1, column 3: unterminated block comment"),
        ],
    )
    def test_error_messages_and_positions(self, source, message):
        with pytest.raises(LexError) as err:
            tokenize(source)
        assert str(err.value) == message == outcome(reference_tokenize, source)

    def test_line_comment_keeps_the_column_of_eof(self):
        # a quirk the parser's error positions depend on: the comment does
        # not advance the column, only the newline resets it
        assert tokenize("ab // tail")[-1] == Token("eof", "", 1, 4)

    @settings(max_examples=400, deadline=None)
    @given(st.lists(st.sampled_from(LEXEMES), max_size=24).map("".join))
    def test_token_alphabet_including_malformed_input(self, source):
        assert outcome(tokenize, source) == outcome(reference_tokenize, source)

    @settings(max_examples=200, deadline=None)
    @given(st.text(max_size=40))
    def test_arbitrary_text(self, source):
        assert outcome(tokenize, source) == outcome(reference_tokenize, source)
