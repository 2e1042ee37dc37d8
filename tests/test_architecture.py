"""Tests for the cluster architecture model."""

import pickle

import numpy as np
import pytest

from repro.cluster import (
    LEVEL_NETWORK,
    LEVEL_NODE,
    LEVEL_PROCESSOR,
    CoreId,
    Machine,
    by_name,
    chic,
    generic_cluster,
    juropa,
    sgi_altix,
)
from repro.comm.contention import link_levels


class TestCoreId:
    def test_label_is_one_based(self):
        assert CoreId(0, 0, 0).label == "1.1.1"
        assert CoreId(2, 1, 3).label == "3.2.4"

    def test_ordering_is_lexicographic(self):
        assert CoreId(0, 1, 0) < CoreId(1, 0, 0)
        assert CoreId(0, 0, 1) < CoreId(0, 1, 0)

    def test_hashable_and_eq(self):
        assert CoreId(1, 2, 3) == CoreId(1, 2, 3)
        assert len({CoreId(0, 0, 0), CoreId(0, 0, 0), CoreId(0, 0, 1)}) == 2

    def test_immutable_and_pickles_as_itself(self):
        c = CoreId(1, 2, 3)
        with pytest.raises(AttributeError):
            c.node = 0
        back = pickle.loads(pickle.dumps(c))
        assert type(back) is CoreId and back == c
        assert c.label == "2.3.4"


class TestMachine:
    def test_homogeneous_construction(self):
        m = Machine.homogeneous("t", nodes=3, procs_per_node=2, cores_per_proc=2, core_flops=1e9)
        assert m.total_cores == 12
        assert m.num_nodes == 3
        assert m.cores_per_node(0) == 4
        assert m.node_shapes[0] == (2, 2)

    def test_cores_canonical_order(self):
        m = Machine.homogeneous("t", 2, 2, 2, 1e9)
        cores = m.cores()
        assert cores == tuple(sorted(cores))
        assert cores[0] == CoreId(0, 0, 0)
        assert cores[-1] == CoreId(1, 1, 1)

    def test_heterogeneous_shapes(self):
        m = Machine("h", ((2, 2), (4,)), core_flops=1e9)
        assert m.total_cores == 8
        assert m.cores_per_node(1) == 4
        assert m.node_shapes[1] == (4,)

    def test_invalid_shapes_rejected(self):
        with pytest.raises(ValueError):
            Machine("bad", (), core_flops=1e9)
        with pytest.raises(ValueError):
            Machine("bad", ((0,),), core_flops=1e9)
        with pytest.raises(ValueError):
            Machine.homogeneous("bad", 0, 1, 1, 1e9)
        with pytest.raises(ValueError):
            Machine.homogeneous("bad", 1, 1, 1, core_flops=-1)

    def test_contains_and_validate(self):
        m = Machine.homogeneous("t", 2, 2, 2, 1e9)
        assert m.core_index([CoreId(1, 1, 1)]).tolist() == [7]
        for foreign in (CoreId(2, 0, 0), CoreId(0, 2, 0), CoreId(0, 0, 2)):
            with pytest.raises(ValueError):
                m.core_index([foreign])

    def test_comm_levels(self):
        m = Machine.homogeneous("t", 2, 2, 2, 1e9)
        a = CoreId(0, 0, 0)
        others = [CoreId(0, 0, 1), a, CoreId(0, 1, 0), CoreId(1, 0, 0)]
        levels = link_levels(m, m.core_index([a] * 4), m.core_index(others))
        assert levels.tolist() == [LEVEL_PROCESSOR, LEVEL_PROCESSOR, LEVEL_NODE, LEVEL_NETWORK]

    def test_subset(self):
        m = Machine.homogeneous("t", 8, 2, 2, 1e9)
        s = m.subset(3)
        assert s.num_nodes == 3
        assert s.total_cores == 12
        with pytest.raises(ValueError):
            m.subset(0)
        with pytest.raises(ValueError):
            m.subset(9)

    def test_cores_of_node(self):
        m = Machine.homogeneous("t", 2, 2, 2, 1e9)
        node_cores = m.cores_of_node(1)
        assert len(node_cores) == 4
        assert all(c.node == 1 for c in node_cores)

    def test_index_view_round_trips_on_heterogeneous_shapes(self):
        m = Machine("het", ((2, 2), (4,), (1, 3, 2), (1,)), 1e9)
        cores = m.cores()
        idx = m.core_index(cores)
        assert idx.tolist() == list(range(m.total_cores))
        picked = [cores[7], cores[0], cores[7], cores[-1]]  # any order, repeats
        assert [cores[i] for i in m.core_index(picked)] == picked
        assert m.core_nodes.tolist() == [c.node for c in cores]
        assert m.core_procs.tolist() == [c.proc for c in cores]
        assert len(m.core_index([])) == 0
        with pytest.raises(ValueError, match="does not exist"):
            m.core_index([CoreId(1, 1, 0)])  # node 2 has a single processor
        with pytest.raises(ValueError):
            m.core_nodes[0] = 5  # the view is read-only

    @pytest.mark.parametrize(
        "machine",
        [
            Machine.homogeneous("t", 4, 2, 2, 1e9),
            Machine("het", ((2, 2), (4,), (1, 3, 2), (2, 2)), 1e9),
        ],
        ids=["homogeneous", "het"],
    )
    def test_contiguous_runs_index_like_the_per_core_lookup(self, machine):
        cores = machine.cores()
        n = len(cores)

        def per_core(picked):
            return [cores.index(c) for c in picked]

        mappings = {
            "consecutive": [cores[lo:hi] for lo in range(n) for hi in range(lo + 1, n + 1)],
            "scattered": [cores[::2], cores[::-1], cores[1::3], (cores[3], cores[0])],
            "mixed": [
                cores[:4] + cores[6:9],  # two runs
                cores[2:5] + (cores[2],),  # a run and a repeat
                (cores[5],) + cores[:5],  # a run behind its successor
                list(cores[1:7]),  # a list, not a tuple
            ],
        }
        for kind, picks in mappings.items():
            for picked in picks:
                got = machine.core_index(picked)
                assert got.dtype == np.intp, kind
                assert got.tolist() == per_core(picked), (kind, picked)
        for foreign in (CoreId(9, 0, 0), CoreId(0, 0, 7)):
            for picked in ([foreign], [foreign, cores[0]], [cores[0], foreign]):
                with pytest.raises(ValueError, match="does not exist"):
                    machine.core_index(picked)
        # a run that would run past the last core is no run
        with pytest.raises(ValueError, match="does not exist"):
            machine.core_index([cores[-1], CoreId(cores[-1].node + 1, 0, 0)])


class TestPlatforms:
    def test_chic_parameters(self):
        p = chic()
        assert p.machine.num_nodes == 530
        assert p.machine.cores_per_node(0) == 4
        assert p.machine.core_flops == pytest.approx(5.2e9)
        assert not p.machine.shared_memory_across_nodes

    def test_juropa_parameters(self):
        p = juropa()
        assert p.machine.num_nodes == 2208
        assert p.machine.cores_per_node(0) == 8
        assert p.machine.core_flops == pytest.approx(11.72e9)

    def test_altix_is_dsm(self):
        p = sgi_altix()
        assert p.machine.shared_memory_across_nodes
        assert p.machine.num_nodes == 128

    def test_with_cores_whole_nodes(self):
        p = chic().with_cores(256)
        assert p.total_cores == 256
        assert p.machine.num_nodes == 64

    def test_with_cores_rejects_partial_nodes(self):
        with pytest.raises(ValueError):
            chic().with_cores(255)
        with pytest.raises(ValueError):
            chic().with_cores(0)

    def test_by_name(self):
        assert by_name("CHiC").name == "CHiC"
        assert by_name("altix").machine.shared_memory_across_nodes
        with pytest.raises(ValueError):
            by_name("does-not-exist")

    def test_network_hierarchy_is_ordered(self):
        """Bandwidth shrinks and latency grows towards the network level."""
        for plat in (chic(), juropa(), sgi_altix(), generic_cluster()):
            bws = [plat.network.level(i).bandwidth for i in range(3)]
            lats = [plat.network.level(i).latency for i in range(3)]
            assert bws[0] >= bws[1] >= bws[2]
            assert lats[0] <= lats[1] <= lats[2]
            assert plat.network.slowest_level == 2

    def test_describe_mentions_levels(self):
        text = chic().describe()
        assert "InfiniBand" in text
        assert "CHiC" in text
