"""Integration tests: the qualitative shapes of every paper figure.

These run the experiment runners and assert the paper's findings -- who
wins, by roughly what factor, where optima sit -- mostly at reduced
scale, and at the paper's scale (the ``full_scale`` tests) where a
finding needs it.  ``TestAblations`` and ``TestExtensions`` check the
design choices DESIGN.md calls out and the extensions beyond the paper
the same way.  ``python -m repro.experiments`` prints the tables.
"""

import math

import pytest

from repro.cluster import chic, juropa, sgi_altix
from repro.core import CostModel, MTask
from repro.experiments import (
    run_epol_times,
    run_fig14_left,
    run_fig14_right,
    run_fig15,
    run_fig16,
    run_fig18,
    run_fig19,
    run_npb_sweep,
    run_pabm_speedups,
    run_table1,
)
from repro.experiments.fig13_scheduling import schedule_and_simulate
from repro.experiments.common import simulate_ode_step
from repro.mapping import consecutive, mixed, place_layered, scattered
from repro.ode import MethodConfig, bruss2d, schroed, step_graph
from repro.scheduling import (
    DynamicScheduler,
    LayerBasedScheduler,
    fixed_group_scheduler,
)
from repro.sim import SimulationOptions, simulate


def min_index(series) -> int:
    """Index of the smallest y value of a series."""
    return min(range(len(series.y)), key=series.y.__getitem__)


def best_label_at(res, xi: int, higher_is_better: bool = False) -> str:
    """Label of the best series of ``res`` at x index ``xi`` (lowest y for
    time figures, highest for speedup/rate figures)."""
    pick = max if higher_is_better else min
    return pick(res.series, key=lambda s: s.y[xi]).label


@pytest.fixture(scope="module")
def sparse_small():
    return bruss2d(180)  # n = 64800


class TestTable1Shapes:
    def test_all_ten_rows_match(self):
        rows = run_table1()
        assert len(rows) == 10
        mismatches = [f"{r.method}({r.version})" for r in rows if not r.matches]
        assert mismatches == []


class TestFig13Shapes:
    def test_pabm_scheduler_ranking(self):
        res = run_pabm_speedups(cores=(256,), N=250)
        at = 0
        tp = res.get("task parallel").y[at]
        cpa = res.get("CPA").y[at]
        cpr = res.get("CPR").y[at]
        dp = res.get("data parallel").y[at]
        # CPR lands close to the task-parallel schedule; CPA over-allocates;
        # data parallelism collapses under global communication
        assert cpr >= 0.6 * tp
        assert cpr > cpa
        assert cpa < 0.8 * tp
        assert dp < cpa

    def test_epol_cpa_competitive_dp_not(self):
        res = run_epol_times(cores=(256,), N=250)
        tp = res.get("task parallel").y[0]
        cpa = res.get("CPA").y[0]
        dp = res.get("data parallel").y[0]
        assert cpa <= 1.7 * tp  # CPA finds a competitive mixed schedule
        assert dp > 2.0 * cpa  # plain data parallelism is far behind

    def test_pabm_speedups_full_scale(self):
        res = run_pabm_speedups(cores=(64, 128, 256, 512), N=500)
        # the task-parallel (layer-based) schedule dominates at every size
        for i in range(len(res.x)):
            assert best_label_at(res, i, higher_is_better=True) in ("task parallel", "CPR")
        # data parallelism degrades with scale
        dp = res.get("data parallel").y
        assert dp[-1] < dp[0] * 1.5

    def test_epol_times_full_scale(self):
        res = run_epol_times(cores=(64, 128, 256, 512), N=500)
        i = res.x.index(256)
        # CPA's mixed schedule clearly beats plain data parallelism (§4.3)
        assert res.get("data parallel").y[i] > 1.3 * res.get("CPA").y[i]
        # the layer-based schedule is the overall winner
        assert best_label_at(res, i) == "task parallel"

    def test_unknown_scheduler_rejected(self, sparse_small):
        with pytest.raises(ValueError):
            schedule_and_simulate(
                sparse_small, MethodConfig("pab", K=4), chic(16), "magic"
            )


class TestFig14Shapes:
    def test_global_allgather_consecutive_wins_big_messages(self):
        res = run_fig14_left(chic().with_cores(256), sizes=[1 << 20])
        cons = res.get("consecutive").y[0]
        mix = res.get("mixed(d=2)").y[0]
        scat = res.get("scattered").y[0]
        assert cons < mix < scat
        # NIC sharing costs scattered about a node-width factor
        assert scat / cons > 2.5

    def test_group_based_consecutive_wins(self):
        group_res, orth_res = run_fig14_right(
            chic().with_cores(256), sizes=[1 << 20]
        )
        assert best_label_at(group_res, 0) == "consecutive"

    def test_orthogonal_scattered_wins(self):
        _group, orth = run_fig14_right(chic().with_cores(256), sizes=[1 << 20])
        assert best_label_at(orth, 0) == "scattered"
        assert orth.get("consecutive").y[0] / orth.get("scattered").y[0] > 2

    def test_global_allgather_full_scale(self):
        res = run_fig14_left()
        last = len(res.x) - 1
        assert best_label_at(res, last) == "consecutive"
        assert res.get("scattered").y[last] > 2.5 * res.get("consecutive").y[last]

    def test_multi_allgather_full_scale(self):
        group_res, orth_res = run_fig14_right()
        last = len(group_res.x) - 1
        assert best_label_at(group_res, last) == "consecutive"
        assert best_label_at(orth_res, last) == "scattered"


class TestFig15Shapes:
    @pytest.mark.parametrize("method,cfg", [
        ("irk", MethodConfig("irk", K=4, m=7)),
        ("diirk", MethodConfig("diirk", K=4, m=3, I=2)),
        ("epol", MethodConfig("epol", K=8)),
    ])
    def test_consecutive_best_scattered_clearly_worst(self, sparse_small, method, cfg):
        plat = chic().with_cores(256)
        times = {
            s.name: simulate_ode_step(sparse_small, cfg, plat, s, "tp").makespan
            for s in (consecutive(), mixed(2), scattered())
        }
        assert min(times, key=times.get) == "consecutive"
        assert times["scattered"] > 1.5 * times["consecutive"]

    def test_diirk_tp_much_faster_than_dp(self, sparse_small):
        cfg = MethodConfig("diirk", K=4, m=3, I=2)
        plat = chic().with_cores(256)
        tp = simulate_ode_step(sparse_small, cfg, plat, consecutive(), "tp").makespan
        dp = simulate_ode_step(sparse_small, cfg, plat, consecutive(), "dp").makespan
        assert dp > 2.0 * tp

    def test_dp_prefers_consecutive(self, sparse_small):
        cfg = MethodConfig("irk", K=4, m=7)
        plat = chic().with_cores(256)
        cons = simulate_ode_step(sparse_small, cfg, plat, consecutive(), "dp").makespan
        scat = simulate_ode_step(sparse_small, cfg, plat, scattered(), "dp").makespan
        assert cons < scat

    def test_all_panels_full_scale(self):
        irk_chic, irk_juropa, diirk, epol = run_fig15(quick=False)
        # consecutive wins from 256 cores on in both IRK panels (below that
        # the stage-exchange volume per group still blurs the picture)
        for res in (irk_chic, irk_juropa):
            for i in range(len(res.x)):
                if res.x[i] >= 256:
                    assert best_label_at(res, i) == "consecutive"
            # scattered is clearly outperformed
            assert res.get("scattered").y[-1] > 1.5 * res.get("consecutive").y[-1]
        # DIIRK: the task-parallel consecutive version far ahead of data parallel
        assert diirk.get("tp/consecutive").y[0] * 2 < diirk.get("data-parallel").y[0]
        # EPOL at 512 JuRoPA cores: consecutive clearly below mixed(d=4)
        assert epol.get("tp/consecutive").y[0] < epol.get("tp/mixed(d=4)").y[0]


class TestFig16Shapes:
    def test_pab_mixed_wins_chic(self, sparse_small):
        cfg = MethodConfig("pab", K=8)
        plat = chic().with_cores(256)
        times = {
            s.name: simulate_ode_step(sparse_small, cfg, plat, s, "tp").makespan
            for s in (consecutive(), mixed(2), scattered())
        }
        assert min(times, key=times.get) == "mixed(d=2)"

    def test_pab_mixed4_wins_juropa(self, sparse_small):
        cfg = MethodConfig("pab", K=8)
        plat = juropa().with_cores(256)
        times = {
            s.name: simulate_ode_step(sparse_small, cfg, plat, s, "tp").makespan
            for s in (consecutive(), mixed(4), mixed(2), scattered())
        }
        assert min(times, key=times.get) == "mixed(d=4)"

    def test_pabm_consecutive_best_and_beats_dp(self, sparse_small):
        cfg = MethodConfig("pabm", K=8, m=2)
        plat = chic().with_cores(256)
        times = {
            s.name: simulate_ode_step(sparse_small, cfg, plat, s, "tp").makespan
            for s in (consecutive(), mixed(2), scattered())
        }
        dp = simulate_ode_step(sparse_small, cfg, plat, consecutive(), "dp").makespan
        assert min(times, key=times.get) == "consecutive"
        assert all(dp > t for t in times.values())

    def test_pabm_dense_dp_stops_scaling(self):
        dense = schroed(1500)
        cfg = MethodConfig("pabm", K=8, m=2)
        dp_256 = simulate_ode_step(dense, cfg, chic().with_cores(256), consecutive(), "dp").makespan
        dp_1024 = simulate_ode_step(dense, cfg, chic().with_cores(1024), consecutive(), "dp").makespan
        tp_256 = simulate_ode_step(dense, cfg, chic().with_cores(256), consecutive(), "tp").makespan
        tp_1024 = simulate_ode_step(dense, cfg, chic().with_cores(1024), consecutive(), "tp").makespan
        assert dp_1024 > 0.8 * dp_256          # dp saturates / degrades
        # tp degrades far more gracefully than dp ...
        assert tp_1024 / tp_256 < 0.5 * (dp_1024 / dp_256)
        assert tp_1024 < dp_1024 / 2           # ... and wins by a wide margin

    def test_all_panels_full_scale(self):
        pab_chic, pab_juropa, pabm_dense, pabm_sparse = run_fig16(quick=False)
        # PAB: mixed mapping wins (d=2 on CHiC, d=4 on JuRoPA) at 256 cores
        i256_c, i256_j = pab_chic.x.index(256), pab_juropa.x.index(256)
        assert best_label_at(pab_chic, i256_c) == "mixed(d=2)"
        assert best_label_at(pab_juropa, i256_j) == "mixed(d=4)"
        # PABM dense speedups: consecutive tp keeps scaling, dp saturates
        cons = pabm_dense.get("consecutive").y
        dp = pabm_dense.get("data-parallel").y
        assert cons[-1] > cons[0]
        assert cons[-1] > 2 * dp[-1]
        assert dp[-1] < 2 * dp[-3]  # dp gains little beyond 512 cores
        # PABM sparse on JuRoPA: every tp mapping beats dp
        i = len(pabm_sparse.x) - 1
        dp_t = pabm_sparse.get("data-parallel").y[i]
        for s in pabm_sparse.series:
            if s.label != "data-parallel":
                assert s.y[i] < dp_t


class TestFig17Shapes:
    @pytest.fixture(scope="class")
    def sp(self):
        return run_npb_sweep("SP", "C", chic().with_cores(256))

    def test_medium_group_count_wins(self, sp):
        best = max(
            (max(s.y[i] for s in sp.series), sp.x[i]) for i in range(len(sp.x))
        )[1]
        assert 16 <= best <= 128  # neither 4 nor one-group-per-zone

    def test_scattered_best_at_its_optimum(self, sp):
        scat = sp.get("scattered")
        i = max(range(len(sp.x)), key=scat.y.__getitem__)
        assert scat.y[i] == max(s.y[i] for s in sp.series)
        # and that is the global optimum of the panel
        assert scat.y[i] == max(v for s in sp.series for v in s.y)

    def test_small_g_uncompetitive(self, sp):
        peak = max(v for s in sp.series for v in s.y)
        at_g4 = max(s.y[0] for s in sp.series)
        assert at_g4 < 0.5 * peak

    def test_btmz_imbalance_at_max_groups(self):
        bt = run_npb_sweep(
            "BT", "C", chic().with_cores(256), group_counts=[16, 256]
        )
        for s in bt.series:
            assert s.y[1] < 0.6 * s.y[0]  # one group per zone collapses

    @pytest.mark.parametrize(
        "bench,plat_name", [("SP", "altix"), ("BT", "chic"), ("BT", "altix")]
    )
    def test_panel_full_scale(self, bench, plat_name):
        """The panels besides SP-MZ on CHiC (the ``sp`` fixture)."""
        plat = (chic() if plat_name == "chic" else sgi_altix()).with_cores(256)
        res = run_npb_sweep(bench, "C", plat)
        peak = max(v for s in res.series for v in s.y)
        # small group counts are not competitive
        assert max(s.y[0] for s in res.series) < 0.7 * peak
        # the maximum degree of task parallelism is not optimal either
        assert max(s.y[-1] for s in res.series) < peak
        if bench == "SP":
            # on the DSM Altix the levels are so close that we only
            # require scattered within 10% of the panel peak
            assert max(res.get("scattered").y) > 0.9 * peak


class TestFig18Shapes:
    @pytest.fixture(scope="class")
    def panels(self):
        return run_fig18(quick=False)

    def test_irk_hybrid_helps_dp(self, panels):
        irk = panels[0]
        i = irk.x.index(512)
        assert irk.get("dp/hybrid").y[i] < irk.get("dp/pure MPI").y[i]
        assert irk.get("tp/hybrid").y[i] < irk.get("tp/pure MPI").y[i]

    def test_diirk_hybrid_hurts_dp_helps_tp(self, panels):
        diirk = panels[1]
        i = diirk.x.index(512)
        assert diirk.get("dp/hybrid").y[i] > diirk.get("dp/pure MPI").y[i]
        assert diirk.get("tp/hybrid").y[i] < diirk.get("tp/pure MPI").y[i]

    def test_diirk_tp_beats_dp_everywhere(self, panels):
        diirk = panels[1]
        for i in range(len(diirk.x)):
            assert diirk.get("tp/pure MPI").y[i] < diirk.get("dp/pure MPI").y[i]


class TestFig19Shapes:
    @pytest.fixture(scope="class")
    def res(self):
        return run_fig19()

    def test_dp_pure_mpi_worst(self, res):
        dp = res.get("data-parallel")
        assert dp.y[res.x.index("256x1")] == max(dp.y)

    def test_dp_prefers_many_threads(self, res):
        dp = res.get("data-parallel")
        best = res.x[min_index(dp)]
        procs = int(best.split("x")[0])
        assert procs <= 16

    def test_tp_best_around_one_process_per_node(self, res):
        tp = res.get("task-parallel")
        valid = [(v, res.x[i]) for i, v in enumerate(tp.y) if not math.isnan(v)]
        best = min(valid)[1]
        threads = int(best.split("x")[1])
        assert threads in (2, 4, 8)  # node width is 4 on the Altix

    def test_tp_beats_dp(self, res):
        tp = res.get("task-parallel")
        dp = res.get("data-parallel")
        valid = [v for v in tp.y if not math.isnan(v)]
        assert min(valid) < min(dp.y)


def layered_makespan(problem, cfg, plat, strategy, scheduler):
    """Simulated makespan of one step under ``scheduler(cost)``."""
    cost = CostModel(plat)
    graph = step_graph(problem, cfg)
    sched = scheduler(cost).schedule(graph).layered
    return simulate(graph, place_layered(sched, plat.machine, strategy), cost).makespan


class TestAblations:
    """The design choices DESIGN.md calls out, each switched off once:
    chain contraction, group adjustment, contention modelling, LPT vs
    round-robin assignment, and the mixed-mapping parameter d."""

    @pytest.fixture(scope="class")
    def problem(self):
        return bruss2d(500)

    @pytest.fixture(scope="class")
    def plat(self):
        return chic().with_cores(256)

    def test_chain_contraction(self, problem, plat):
        """Without chain contraction the EPOL micro-steps of one
        approximation may land on different groups, adding re-distributions
        and serialisation."""
        cfg = MethodConfig("epol", K=8)
        # pin g = R/2 so both arms differ only in chain handling
        with_chains = layered_makespan(
            problem, cfg, plat, consecutive(),
            lambda c: LayerBasedScheduler(c, candidate_groups=[4]),
        )
        without = layered_makespan(
            problem, cfg, plat, consecutive(),
            lambda c: LayerBasedScheduler(c, contract=False, candidate_groups=[4]),
        )
        assert with_chains <= without * 1.001

    def test_group_adjustment(self, plat):
        """Group adjustment matters when one group per chain leaves the LPT
        assignment nothing to balance: EPOL with g = R puts approximations of
        work 1..R into R groups, and only the size adjustment (Fig. 6 right)
        restores the balance.  A compute-bound (dense) system shows the
        effect cleanly; on bandwidth-bound sparse systems the collective
        costs drown it out."""
        cfg = MethodConfig("epol", K=8)
        res = {
            adjust: layered_makespan(
                schroed(3000), cfg, plat, consecutive(),
                lambda c, a=adjust: fixed_group_scheduler(c, 8, adjust=a),
            )
            for adjust in (True, False)
        }
        assert res[True] < res[False] * 0.9

    def test_contention_model(self, problem, plat):
        """Disabling cross-task NIC contention (1 simulator pass) makes the
        scattered mapping look better than it is."""
        cfg = MethodConfig("irk", K=4, m=7)
        res = {
            passes: simulate_ode_step(
                problem, cfg, plat, scattered(), "tp",
                options=SimulationOptions(contention_passes=passes),
            ).makespan
            for passes in (1, 2)
        }
        assert res[2] >= res[1]

    def test_lpt_vs_round_robin(self, problem, plat):
        """LPT assignment beats naive round robin on the uneven EPOL chains."""
        cfg = MethodConfig("epol", K=8)
        res = {
            assign: layered_makespan(
                problem, cfg, plat, consecutive(),
                lambda c, a=assign: LayerBasedScheduler(
                    c, candidate_groups=[4], assignment=a, adjust=False
                ),
            )
            for assign in ("lpt", "roundrobin")
        }
        assert res["lpt"] <= res["roundrobin"] * 1.001

    def test_mixed_d_sweep(self, problem):
        """The mixed-mapping parameter d interpolates between scattered (d=1)
        and consecutive (d = node width) on the eight-core JuRoPA nodes."""
        cfg = MethodConfig("pabm", K=8, m=2)
        plat = juropa().with_cores(256)
        res = {
            d: simulate_ode_step(problem, cfg, plat, mixed(d), "tp").makespan
            for d in (1, 2, 4, 8)
        }
        # the PABM trend: d = node width (consecutive) is the overall best and
        # full scattering (d = 1) the worst
        assert res[8] <= min(res.values()) * 1.02
        assert res[1] == max(res.values())


class TestExtensions:
    """The extensions beyond the paper: straggler sensitivity of the
    mapping strategies and the dynamic scheduler."""

    def test_straggler_sensitivity(self):
        """A half-speed node costs every mapping something: under the
        consecutive mapping its own group pays fully, under the scattered
        mapping every group slows to the straggler's pace."""
        problem = bruss2d(350)
        cfg = MethodConfig("pabm", K=8, m=2)
        plat = chic().with_cores(256)
        for strat in (consecutive(), scattered()):
            healthy = simulate_ode_step(problem, cfg, plat, strat, "tp").makespan
            degraded = simulate_ode_step(
                problem, cfg, plat, strat, "tp",
                cost=CostModel(plat, node_speed={0: 0.5}),
            ).makespan
            assert degraded > healthy

    def test_dynamic_scheduler_throughput(self):
        """The dynamic scheduler keeps a 256-core machine busy with a stream
        of moldable tasks of mixed sizes."""
        dyn = DynamicScheduler(CostModel(chic().with_cores(256)))
        for i in range(64):
            dyn.submit(MTask(f"t{i}", work=(1 + i % 7) * 1e9), preferred_width=16)
        trace = dyn.run()
        assert trace.utilization() > 0.8
        assert len(trace) == 64
