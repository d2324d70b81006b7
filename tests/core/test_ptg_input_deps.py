"""The PTG's input deps against its resolved output edges.

A template resolves only the *output* deps: each producer row's
successors. The input deps count deliveries through their guards, but
their param maps — "X(p).F <- producer(map(p)).flow" — are never
evaluated by a run. This test evaluates them: for every (row, flow),
the producers the input deps name must be exactly the producers whose
resolved out-edges land on that row and flow, as a multiset.
"""

from collections import Counter, defaultdict
from dataclasses import replace

import pytest

from repro.core import api
from repro.core.inspector import InspectionCache, inspect_subroutine
from repro.core.ptg_build import build_ccsd_ptg
from repro.core.variants import V1, V2, V3, V4, V5
from repro.sim.cluster import DataMode

N_NODES = 4

VARIANTS = [
    V1,
    V2,
    V3,
    V4,
    V5,
    V4.with_overrides(segment_height=2, name="v4h2"),
    V4.with_overrides(segment_height=4, name="v4h4"),
]

TOKENS = ["t2_7:small", "rbgs:tiny", "ccsd:tiny"]


def input_dep_mismatches(ptg, md, template) -> list[tuple]:
    """``(class, params, flow)`` of every row and flow whose active input
    deps name other producers than the resolved out-edges into it."""
    classes = [ptg.classes[name] for name, _ in template.classes]
    landed: dict[tuple, Counter] = defaultdict(Counter)
    for index, cls in enumerate(classes):
        rows = template.class_rows(index)
        for row, key in zip(rows, template.keys(rows)):
            for dep_index, consumer in template.successors(row):
                landed[consumer, cls.out_deps[dep_index][1].flow][key] += 1
    bad = []
    for index, cls in enumerate(classes):
        rows = template.class_rows(index)
        for row, (name, params) in zip(rows, template.keys(rows)):
            for flow in cls.flows:
                declared = Counter(
                    (dep.target_class, tuple(dep.param_map(params, md)))
                    for dep in flow.inputs
                    if dep.active(params, md)
                )
                if declared != landed.pop((row, flow.name), Counter()):
                    bad.append((name, params, flow.name))
    # an edge onto a flow its consumer's class does not have
    for row, flow in landed:
        bad.append((*template.key(row), flow))
    return bad


def build(token):
    config = api.RunConfig(
        n_nodes=N_NODES, cores_per_node=2, data_mode=DataMode.SYNTH
    )
    return api.build(token, config)


@pytest.fixture(scope="module", params=TOKENS)
def workload(request):
    """One built workload (it owns the arrays the inspection looks up)
    and its memo of chains, shared by the variants."""
    return build(request.param), InspectionCache()


@pytest.mark.parametrize("variant", VARIANTS, ids=lambda v: v.name)
def test_input_deps_name_the_producers_of_each_flow(workload, variant):
    workload, memo = workload
    rows = 0
    for level in workload.levels():
        md = inspect_subroutine(level, workload.cluster, variant, memo)
        ptg = build_ccsd_ptg(variant, md)
        template = ptg.template(md, N_NODES)
        assert input_dep_mismatches(ptg, md, template) == []
        rows += len(template)
    assert rows > 0


def test_an_off_by_one_map_is_named():
    """REDUCE's X <- GEMM map, shifted one GEMM back, is caught at every
    step it feeds and nowhere else: the check can fail."""
    workload = build("t2_7:small")
    md = inspect_subroutine(workload.levels()[0], workload.cluster, V5)
    ptg = build_ccsd_ptg(V5, md)
    x = ptg.task_class("REDUCE").flow("X")
    from_gemm = x.inputs[0]
    assert from_gemm.target_class == "GEMM"
    template = ptg.template(md, N_NODES)
    fed = [
        (name, params, "X")
        for name, params in template.keys(range(len(template)))
        if name == "REDUCE" and from_gemm.active(params, md)
    ]
    assert fed  # some REDUCE steps read a segment's last GEMM

    def shifted(p, md, original=from_gemm.param_map):
        l1, l2 = original(p, md)
        return (l1, l2 - 1)

    x.inputs[0] = replace(from_gemm, param_map=shifted)
    # the template resolves output deps only: it builds and validates
    assert len(ptg.template(md, N_NODES)) == len(template)
    assert input_dep_mismatches(ptg, md, template) == fed
