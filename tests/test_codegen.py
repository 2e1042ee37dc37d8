"""Tests for the pseudo-MPI code generation back end."""

import re

import pytest

from repro.cluster import generic_cluster
from repro.core import CostModel
from repro.ode import MethodConfig, step_graph
from repro.scheduling import data_parallel_scheduler, fixed_group_scheduler
from repro.spec import generate_mpi_pseudocode

from tests.test_ode_solvers import linear_test_problem


@pytest.fixture(scope="module")
def setup():
    cost = CostModel(generic_cluster(nodes=4, procs_per_node=2, cores_per_proc=2))
    graph = step_graph(linear_test_problem(100), MethodConfig("epol", K=4))
    return cost, graph


class TestCodegen:
    def test_every_activation_emitted_once(self, setup):
        cost, graph = setup
        sched = fixed_group_scheduler(cost, 2).schedule(graph).layered
        code = generate_mpi_pseudocode(graph, sched)
        steps = re.findall(r"^\s*step\(", code, re.MULTILINE)
        assert len(steps) == 10  # R(R+1)/2 micro-steps for R=4
        assert len(re.findall(r"^\s*combine\(", code, re.MULTILINE)) == 1

    def test_structure(self, setup):
        cost, graph = setup
        sched = fixed_group_scheduler(cost, 2).schedule(graph).layered
        code = generate_mpi_pseudocode(graph, sched, cost)
        assert code.count("MPI_Init") == 1
        assert code.count("MPI_Finalize") == 1
        # one barrier per layer
        assert code.count("MPI_Barrier") == sched.num_layers
        # one communicator split per (layer, group)
        splits = sum(layer.num_groups for layer in sched.layers)
        assert code.count("MPI_Comm_split") == splits
        # cost annotations present
        assert "est." in code

    def test_redistributions_for_cross_group_flows(self, setup):
        cost, graph = setup
        sched = fixed_group_scheduler(cost, 2).schedule(graph).layered
        code = generate_mpi_pseudocode(graph, sched)
        # the block-distributed approximation vectors must be moved to
        # the full-width combine group
        assert "redistribute_V_1" in code
        assert "block@ranks" in code

    def test_data_parallel_has_no_redistributions(self, setup):
        cost, graph = setup
        sched = data_parallel_scheduler(cost).schedule(graph).layered
        code = generate_mpi_pseudocode(graph, sched)
        assert "redistribute_" not in code  # same group, same distribution

    def test_group_guards_match_sizes(self, setup):
        cost, graph = setup
        sched = fixed_group_scheduler(cost, 4).schedule(graph).layered
        code = generate_mpi_pseudocode(graph, sched)
        mid = sched.layers[1]
        for rng in mid.symbolic_ranges():
            assert f"rank >= {rng.start} && rank < {rng.stop}" in code
