"""Gradual porting of a CC iteration — the paper's integration story.

"The conversion from CGP to task based execution can happen gradually.
Performance critical parts of an application can be selectively ported
to execute over PaRSEC and then be re-integrated seamlessly into the
larger application which is oblivious to this transformation."

This example assembles a full CCSD iteration (fourteen TCE sub-kernels
over seven barrier-separated levels) and runs it three ways on the same
simulated machine:

1. fully legacy (the original NWChem execution model),
2. partially ported (only ``icsd_t2_7`` and the two expensive ladder
   terms run over PaRSEC, as in the paper's incremental approach),
3. fully ported.

All three produce the same correlation energy; the timings show the
porting payoff growing with coverage.

Run:  python examples/mixed_cc_iteration.py
"""

from repro.analysis.report import format_table
from repro.core.api import RunConfig, build
from repro.core.integration import NwchemDriver
from repro.core.variants import V5
from repro.tce.reference import correlation_energy


def run_iteration(parsec_kernels, label):
    iteration = build("ccsd:small", RunConfig(n_nodes=8, cores_per_node=4))
    driver = NwchemDriver(
        iteration.cluster, iteration.ga, variant=V5, parsec_kernels=parsec_kernels
    )
    result = driver.run(iteration.subroutines)
    energy = correlation_energy(iteration.i2.flat_values())
    ported = sum(1 for k in result.kernels if k.mode == "parsec")
    return {
        "label": label,
        "time": result.execution_time,
        "ported": f"{ported}/{len(result.kernels)}",
        "energy": energy,
        "kernels": result.kernels,
    }


def main() -> None:
    runs = [
        run_iteration(set(), "fully legacy"),
        run_iteration(
            {"icsd_t2_7", "icsd_t2_8", "icsd_t2_13"}, "t2_7 + ladders over PaRSEC"
        ),
        run_iteration(None, "fully ported"),
    ]

    print(
        format_table(
            ["configuration", "kernels ported", "iteration time (s)", "speedup"],
            [
                [
                    run["label"],
                    run["ported"],
                    f"{run['time']:.4f}",
                    f"{runs[0]['time'] / run['time']:.2f}x",
                ]
                for run in runs
            ],
            title="One CCSD iteration, 8 nodes x 4 cores (virtual time)",
        )
    )

    print("\nper-kernel timings of the partially ported run:")
    for kernel in runs[1]["kernels"]:
        print(f"  {kernel.name:12s} [{kernel.mode:6s}] {kernel.duration:.4f}s")

    print("\ncorrelation energies (must agree to the 14th digit):")
    for run in runs:
        print(f"  {run['label']:28s} {run['energy']:+.15e}")
    spread = max(r["energy"] for r in runs) - min(r["energy"] for r in runs)
    print(f"  absolute spread: {abs(spread):.2e}")


if __name__ == "__main__":
    main()
