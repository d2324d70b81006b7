"""Authoring a PTG by hand — the paper's Figure 1, in Python.

The paper's Figure 1 shows the ``.jdf`` source of a GEMM task class
whose instances form serial chains: the first GEMM of each chain
receives its C matrix from DFILL, every GEMM forwards C to its
successor, and the last one sends it to SORT. Figure 2 shows the
one-line change that turns the chain into parallel GEMMs feeding a
reduction.

This example builds both task graphs directly against the public
PaRSEC API (no TCE involved), runs them on a simulated 4-node cluster,
and shows the dataflow ordering and the parallelism difference.

Each dataflow arrow is declared once, on its producer's flow (``->``).
Figure 1's ``<-`` lines are the same arrows read from the consumer's
side: the template resolves every ``->`` to its consumer, and a task
waits for as many deliveries as there are arrows into it.

Run:  python examples/custom_ptg.py
"""

from types import SimpleNamespace

from repro.parsec.ptg import PTG
from repro.parsec.runtime import ParsecRuntime
from repro.parsec.taskclass import Dep, Flow, FlowMode, TaskClass
from repro.sim.cluster import Cluster, ClusterConfig
from repro.sim.cost import OpCost
from repro.sim.trace import TaskCategory

N_CHAINS = 6
CHAIN_LEN = 5
GEMM_SECONDS = 0.1


def body(duration, log=None):
    """A task body: burn core time, forward an incremented counter."""

    def run(ctx):
        yield ctx.charge(OpCost(duration, 0.0))
        if log is not None:
            log.append((ctx.task.label, ctx.cluster.engine.now))
        ctx.outputs["C"] = (ctx.inputs.get("C") or 0) + 1

    return run


def unit(params, md):
    return 1


def build_chained_ptg(log) -> PTG:
    """Figure 1: GEMMs organized in serial chains."""
    ptg = PTG("figure1")
    ptg.add(
        TaskClass(
            name="DFILL",
            params=("L1",),
            domain=lambda md: [(L1,) for L1 in range(md.size_L1)],
            placement=lambda p, md: p[0] % md.n_nodes,
            run=body(0.01, log),
            category=TaskCategory.DFILL,
            flows=[
                Flow(
                    "C",
                    FlowMode.WRITE,
                    unit,
                    outputs=[Dep("GEMM", lambda p, md: (p[0], 0), "C")],
                )
            ],
        )
    )
    ptg.add(
        TaskClass(
            name="GEMM",
            params=("L1", "L2"),
            domain=lambda md: [
                (L1, L2) for L1 in range(md.size_L1) for L2 in range(md.size_L2)
            ],
            placement=lambda p, md: p[0] % md.n_nodes,
            run=body(GEMM_SECONDS, log),
            category=TaskCategory.GEMM,
            # "; mtdata->size_L1 - L1 + P" — decreasing with chain number
            priority=lambda p, md: md.size_L1 - p[0] + md.n_nodes,
            flows=[
                Flow(
                    "C",
                    FlowMode.RW,
                    unit,
                    # RW C <- (L2 == 0) ? C DFILL(L1)      is DFILL's -> above
                    #      <- (L2 != 0) ? C GEMM(L1, L2-1) is the first -> below
                    outputs=[
                        # -> (L2 < size_L2-1) ? C GEMM(L1, L2+1)
                        Dep(
                            "GEMM",
                            lambda p, md: (p[0], p[1] + 1),
                            "C",
                            guard=lambda p, md: p[1] < md.size_L2 - 1,
                        ),
                        # -> (L2 == size_L2-1) ? C SORT(L1)
                        Dep(
                            "SORT",
                            lambda p, md: (p[0],),
                            "C",
                            guard=lambda p, md: p[1] == md.size_L2 - 1,
                        ),
                    ],
                )
            ],
        )
    )
    ptg.add(
        TaskClass(
            name="SORT",
            params=("L1",),
            domain=lambda md: [(L1,) for L1 in range(md.size_L1)],
            placement=lambda p, md: p[0] % md.n_nodes,
            run=body(0.02, log),
            category=TaskCategory.SORT,
            # READ C <- C GEMM(L1, size_L2-1): GEMM's second -> above
            flows=[Flow("C", FlowMode.READ, unit)],
        )
    )
    return ptg


def build_parallel_ptg(log) -> PTG:
    """Figure 2's change: ``WRITE C -> A REDUCTION(L1, L2)``."""
    ptg = PTG("figure2")
    ptg.add(
        TaskClass(
            name="GEMM",
            params=("L1", "L2"),
            domain=lambda md: [
                (L1, L2) for L1 in range(md.size_L1) for L2 in range(md.size_L2)
            ],
            placement=lambda p, md: p[0] % md.n_nodes,
            run=body(GEMM_SECONDS, log),
            category=TaskCategory.GEMM,
            flows=[
                Flow(
                    "C",
                    FlowMode.WRITE,  # private C, created by the task
                    unit,
                    outputs=[Dep("REDUCTION", lambda p, md: (p[0],), "A")],
                )
            ],
        )
    )

    def reduction_run(ctx):
        yield ctx.charge(OpCost(0.02, 0.0))
        pieces = ctx.inputs["A"]
        total = sum(pieces) if isinstance(pieces, list) else pieces
        log.append((ctx.task.label, ctx.cluster.engine.now))
        ctx.outputs["C"] = total

    ptg.add(
        TaskClass(
            name="REDUCTION",
            params=("L1",),
            domain=lambda md: [(L1,) for L1 in range(md.size_L1)],
            placement=lambda p, md: p[0] % md.n_nodes,
            run=reduction_run,
            category=TaskCategory.REDUCE,
            # READ A <- C GEMM(L1, 0 .. size_L2-1): one arrow from each GEMM
            flows=[Flow("A", FlowMode.READ, unit)],
        )
    )
    return ptg


def run(ptg_builder, label):
    log = []
    ptg = ptg_builder(log)
    cluster = Cluster(ClusterConfig(n_nodes=4, cores_per_node=4))
    md = SimpleNamespace(size_L1=N_CHAINS, size_L2=CHAIN_LEN, n_nodes=4)
    result = ParsecRuntime(cluster).execute(ptg, md)
    print(f"{label}: {result.n_tasks} tasks in {result.execution_time:.3f}s virtual")
    return result.execution_time, log


def main() -> None:
    chained_time, chained_log = run(build_chained_ptg, "Figure 1 (serial chains)")
    first_chain = [entry for entry in chained_log if entry[0].startswith("GEMM(0")]
    print("  chain 0 executed in order:", [label for label, _ in first_chain])

    parallel_time, _ = run(build_parallel_ptg, "Figure 2 (parallel + reduction)")
    print(
        f"  parallelizing the GEMMs was a one-line dataflow change and ran "
        f"{chained_time / parallel_time:.2f}x faster on the same machine"
    )


if __name__ == "__main__":
    main()
