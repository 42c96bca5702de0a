"""MachineSpec shape queries: constant-time tables equal the linear definitions.

``n_gpus``, ``gpu_base``, ``node_of`` and ``rail_of`` answer
from a GPU->node and a node->first-GPU table that a spec builds on first
use.  These tests pin them against the straightforward walks over
``spec.nodes`` they replaced, on catalog, generated and heterogeneous
specs, and check that building the tables leaves the spec's identity
(``==``, ``hash``, content hash) alone.
"""

import dataclasses
from collections import Counter
from functools import cached_property

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hw.params import GH200Params
from repro.hw.spec import MachineSpec
from repro.hw.spec.catalog import SPECS, gh200_node
from repro.hw.spec.generators import fat_tree, parse_machine, resolve_machine
from repro.hw.spec.schema import FatTreeFabric, LinkClass
from repro.units import us
from repro.workload.registry import get
from repro.workload.sweep import spec_hash


# -- the linear definitions the tables replaced --------------------------------

def linear_n_gpus(spec):
    return sum(n.n_gpus for n in spec.nodes)


def linear_gpu_base(spec, node):
    return sum(n.n_gpus for n in spec.nodes[:node])


def linear_node_of(spec, gpu):
    base = 0
    for idx, node in enumerate(spec.nodes):
        if gpu < base + node.n_gpus:
            return idx
        base += node.n_gpus
    raise AssertionError("gpu beyond the last node")


def linear_rail_of(spec, gpu):
    if spec.fabric is None:
        return 0
    node = linear_node_of(spec, gpu)
    return (gpu - linear_gpu_base(spec, node)) % spec.fabric.rails


def assert_matches_linear(spec):
    n = linear_n_gpus(spec)
    assert spec.n_gpus == n
    for node in range(spec.n_nodes):
        assert spec.gpu_base(node) == linear_gpu_base(spec, node)
    for gpu in range(n):
        assert spec.node_of(gpu) == linear_node_of(spec, gpu)
        assert spec.rail_of(gpu) == linear_rail_of(spec, gpu)
        assert spec.node_spec_of(gpu) is spec.nodes[linear_node_of(spec, gpu)]


def assert_bad_ids_raise(spec):
    n = linear_n_gpus(spec)
    for gpu in (-1, n):
        msg = f"gpu {gpu} out of range \\(n_gpus={n}\\)"
        for query in (spec.node_of, spec.rail_of, spec.node_spec_of):
            with pytest.raises(IndexError, match=msg):
                query(gpu)
        with pytest.raises(IndexError, match=msg):
            spec.can_peer_map(gpu, gpu)
        with pytest.raises(IndexError, match=msg):
            spec.can_peer_map(0, gpu)
    for node in (-1, spec.n_nodes):
        with pytest.raises(IndexError, match=f"node {node} out of range"):
            spec.gpu_base(node)


# -- spec strategies ------------------------------------------------------------

_P = GH200Params()


@st.composite
def generated_specs(draw):
    """A small ``fat-tree-*``/``dragonfly-*`` spec, built from its name."""
    rails = draw(st.sampled_from([1, 2, 4]))
    per_node = rails * draw(st.integers(1, 2))
    group = draw(st.integers(1, 3))
    nodes = group * draw(st.integers(1, 3))
    gpus = nodes * per_node
    if draw(st.booleans()):
        name = f"fat-tree-{gpus}-r{rails}-n{per_node}-l{group}"
    else:
        name = f"dragonfly-{gpus}-r{rails}-n{per_node}-g{group}"
    return parse_machine(name)


@st.composite
def uneven_specs(draw):
    """Nodes of different sizes."""
    rails = draw(st.sampled_from([None, 1, 2]))
    step = rails or 1
    sizes = draw(st.lists(st.integers(1, 4), min_size=1, max_size=6))
    nodes = [gh200_node(size * step, _P) for size in sizes]
    fabric = None
    if rails is not None:
        trunk = LinkClass("trunk", 2 * _P.ib_bw, 0.5 * us)
        fabric = FatTreeFabric(rails, 1, 1, trunk, trunk)
    nic = LinkClass("nic", _P.ib_bw, _P.ib_latency / 2)
    return MachineSpec(
        name="uneven", nodes=tuple(nodes), nic_out=nic, nic_in=nic, fabric=fabric,
    )


ANY_SPEC = st.one_of(
    st.sampled_from(sorted(SPECS.values(), key=lambda s: s.name)),
    generated_specs(),
    uneven_specs(),
)


@given(ANY_SPEC)
@settings(max_examples=60, deadline=None)
def test_tables_equal_linear_definitions(spec):
    fresh = dataclasses.replace(spec)  # a new object: no tables built yet
    identity = (spec_hash(fresh), hash(fresh))
    assert_matches_linear(fresh)
    assert_bad_ids_raise(fresh)
    assert (spec_hash(fresh), hash(fresh)) == identity
    assert fresh == spec and fresh == dataclasses.replace(spec)


@given(ANY_SPEC)
@settings(max_examples=20, deadline=None)
def test_with_params_copy_answers_correctly(spec):
    copy = spec.with_params(
        progress_poll_latency=2 * spec.params.progress_poll_latency
    )
    assert copy != spec
    assert_matches_linear(copy)
    assert_bad_ids_raise(copy)


def test_generated_512_gpu_specs():
    for name in ("fat-tree-512", "dragonfly-512-g8"):
        spec = resolve_machine(name)
        assert_matches_linear(spec)
        assert_bad_ids_raise(spec)


def test_queries_out_of_range_raise_not_answer():
    """Formerly ``can_peer_map(a, a)`` was True for any ``a`` and a
    fabric-less spec put every id on rail 0."""
    spec = resolve_machine("fat-tree-512")
    with pytest.raises(IndexError, match=r"gpu 9999 out of range \(n_gpus=512\)"):
        spec.can_peer_map(9999, 9999)
    flat = SPECS["gh200-2x4"]
    with pytest.raises(IndexError, match=r"gpu 99999 out of range \(n_gpus=8\)"):
        flat.rail_of(99999)


@pytest.mark.parametrize("name", ["gh200-2x4", "pcie-nop2p"])
def test_topology_keeps_its_error_texts(name):
    spec = SPECS[name]
    n = spec.n_gpus
    msg = rf"gpu {n} out of range \(n_gpus={n}\)"
    for call in (
        lambda: spec.node_of(n),
        lambda: spec.can_peer_map(n, 0),
        lambda: spec.can_peer_map(0, n),
        lambda: spec.same_node(0, n),
        lambda: spec.same_node(n, 0),
    ):
        with pytest.raises(IndexError, match=msg):
            call()
    with pytest.raises(IndexError, match=r"node -1 out of range \(n_nodes=2\)"):
        spec.gpu_base(-1)
    assert spec.can_peer_map(0, 0)


def test_halo_reads_node_sizes_per_node_not_per_query(monkeypatch):
    """A sequential fat-tree-512 halo walks the node sizes into its
    GPU->node table at most once per spec (the cluster spec and each
    shard's cut), not once per shape query."""
    spec = fat_tree(gpus=512)
    builds = Counter()
    build = MachineSpec._gpu_node.func

    def counted(machine):
        builds[machine.name] += 1
        return build(machine)

    table = cached_property(counted)
    table.__set_name__(MachineSpec, "_gpu_node")
    monkeypatch.setattr(MachineSpec, "_gpu_node", table)
    get("halo").run(machine=spec)
    cuts = {f"{spec.name}#n{n}" for n in range(spec.n_nodes)}
    assert builds and set(builds) <= {spec.name} | cuts
    assert max(builds.values()) == 1
