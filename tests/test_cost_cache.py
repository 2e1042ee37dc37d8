"""Cache-correctness tests for :class:`CachedCostEvaluator`.

The memoized evaluator must return *bitwise-identical* floats to the
uncached :class:`CostModel` for every cached method, on every platform
model, both on the miss that fills the cache and on the hit that reads
it back.
"""

import pytest

from repro.cluster import chic, juropa, sgi_altix
from repro.core import CachedCostEvaluator, CacheStats, CostModel
from repro.ode import MethodConfig, step_graph

from tests.test_ode_solvers import linear_test_problem

PLATFORMS = {
    "chic": lambda: chic().with_cores(64),
    "juropa": lambda: juropa().with_cores(64),
    "sgi_altix": lambda: sgi_altix().with_cores(64),
}


@pytest.fixture(params=sorted(PLATFORMS), scope="module")
def models(request):
    platform = PLATFORMS[request.param]()
    return CostModel(platform), CachedCostEvaluator(CostModel(platform))


@pytest.fixture(scope="module")
def graph():
    return step_graph(linear_test_problem(128), MethodConfig("irk", K=4, m=3))


WIDTHS = (1, 2, 3, 7, 16, 64)


class TestBitwiseIdentical:
    def test_sequential_time(self, models, graph):
        plain, cached = models
        for t in graph:
            for _ in range(2):  # miss, then hit
                assert cached.sequential_time(t) == plain.sequential_time(t)

    def test_tcomp(self, models, graph):
        plain, cached = models
        for t in graph:
            for q in WIDTHS:
                for _ in range(2):
                    assert cached.tcomp(t, q) == plain.tcomp(t, q)

    def test_tsymb(self, models, graph):
        plain, cached = models
        for t in graph:
            for q in WIDTHS:
                for _ in range(2):
                    assert cached.tsymb(t, q) == plain.tsymb(t, q)

    def test_tcomm_symbolic(self, models, graph):
        plain, cached = models
        for t in graph:
            for q in WIDTHS:
                for _ in range(2):
                    assert cached.tcomm_symbolic(t, q) == plain.tcomm_symbolic(t, q)

    def test_redistribution_symbolic(self, models, graph):
        plain, cached = models
        for _u, _v, flows in graph.edges():
            if not flows:
                continue
            for q_src, q_dst in ((4, 8), (8, 4), (16, 16), (1, 64)):
                for _ in range(2):
                    assert cached.redistribution_time_symbolic(
                        flows, q_src, q_dst
                    ) == plain.redistribution_time_symbolic(flows, q_src, q_dst)

    def test_redistribution_mapped(self, models, graph):
        plain, cached = models
        cores = plain.platform.machine.cores()
        src, dst = cores[:8], cores[8:24]
        for _u, _v, flows in graph.edges():
            if not flows:
                continue
            for _ in range(2):
                assert cached.redistribution_time(flows, src, dst) == (
                    plain.redistribution_time(flows, src, dst)
                )


class TestCacheMechanics:
    def make(self):
        return CachedCostEvaluator(CostModel(chic().with_cores(32)))

    def task(self):
        g = step_graph(linear_test_problem(64), MethodConfig("pab", K=4))
        return next(iter(g))

    def test_hits_and_misses_counted(self):
        cached, t = self.make(), self.task()
        cached.tsymb(t, 4)
        cached.tsymb(t, 4)
        cached.tsymb(t, 8)
        assert cached.stats.misses["tsymb"] == 2
        assert cached.stats.hits["tsymb"] == 1
        assert cached.stats.requests == 3
        assert cached.stats.hit_rate == pytest.approx(1 / 3)

    def test_evaluation_reduction(self):
        cached, t = self.make(), self.task()
        for _ in range(4):
            cached.tsymb(t, 4)
        assert cached.stats.evaluation_reduction == pytest.approx(4.0)
        assert CacheStats().evaluation_reduction == 1.0

    def test_distinct_tasks_do_not_collide(self):
        cached = self.make()
        g = step_graph(linear_test_problem(64), MethodConfig("pab", K=4))
        tasks = list(g)[:2]
        a, b = tasks
        va, vb = cached.tsymb(a, 4), cached.tsymb(b, 4)
        assert cached.stats.misses["tsymb"] == 2
        assert va == cached.tsymb(a, 4) and vb == cached.tsymb(b, 4)

    def test_nested_wrap_is_flattened(self):
        inner = self.make()
        outer = CachedCostEvaluator(inner)
        assert isinstance(outer.model, CostModel)

    def test_attribute_passthrough(self):
        cached = self.make()
        assert cached.platform.total_cores == 32
        t = self.task()
        assert cached.tcomp_mapped(t, tuple(range(4))) == (
            cached.model.tcomp_mapped(t, tuple(range(4)))
        )
