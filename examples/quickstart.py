"""Quickstart: run the CCSD t2_7 kernel both ways and compare.

Builds a small beta-carotene-like workload with real data on a
simulated 8-node cluster, executes it through the legacy NWChem-style
runtime and through PaRSEC (variant v5) via the unified ``repro.run``
facade, and verifies both produce the same correlation energy while
PaRSEC finishes faster.

Run:  python examples/quickstart.py
"""

import repro
from repro.tce.reference import correlation_energy


def main() -> None:
    config = repro.RunConfig(n_nodes=8, cores_per_node=4, seed=7)

    # --- the original coarse-grain execution ------------------------
    legacy = repro.run("t2_7:small", runtime="legacy", config=config)
    legacy_energy = correlation_energy(legacy.output.flat_values())
    print(
        f"legacy (NXTVAL stealing, blocking GETs): "
        f"{legacy.execution_time:.4f}s virtual, "
        f"{legacy.chains_executed} chains on {legacy.n_ranks} ranks"
    )

    # --- the same kernel over PaRSEC (variant v5) -------------------
    parsec = repro.run("t2_7:small", runtime="parsec", variant=repro.V5, config=config)
    parsec_energy = correlation_energy(parsec.output.flat_values())
    print(
        f"PaRSEC v5 (parallel GEMMs, one SORT, one WRITE): "
        f"{parsec.execution_time:.4f}s virtual, {parsec.n_tasks} tasks, "
        f"{parsec.messages_remote} remote messages"
    )

    # --- the structured run report -----------------------------------
    phases = ", ".join(
        f"{name}={p['virtual_s']:.4f}s" for name, p in parsec.report.phases.items()
    )
    print(f"PaRSEC phases (virtual): {phases}")

    # --- the paper's correctness check -------------------------------
    print(f"correlation energy (legacy): {legacy_energy:+.15e}")
    print(f"correlation energy (PaRSEC): {parsec_energy:+.15e}")
    rel = abs(parsec_energy - legacy_energy) / abs(legacy_energy)
    print(f"relative difference: {rel:.2e}  (paper: agreement to the 14th digit)")
    speedup = legacy.execution_time / parsec.execution_time
    print(f"PaRSEC speedup over legacy on this configuration: {speedup:.2f}x")


if __name__ == "__main__":
    main()
