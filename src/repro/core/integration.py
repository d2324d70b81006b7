"""NWChem-level integration: mixing legacy and PaRSEC kernels (Figure 3).

"Performance critical parts of an application can be selectively ported
to execute over PaRSEC and then be re-integrated seamlessly into the
larger application which is oblivious to this transformation."

:class:`NwchemDriver` models the surrounding application: it runs a
sequence of TCE subroutines in order on the *same* simulated machine,
executing each either through the legacy CGP runtime or — for the
kernels that have been ported — through PaRSEC (inspection phase, PTG
execution, control returned). Everything shares the engine, the Global
Arrays, and the trace, so a partially-ported CC iteration is a single
coherent timeline.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional

from repro.core import api
from repro.core.variants import V5, VariantSpec
from repro.legacy.runtime import LegacyConfig, LegacyRuntime
from repro.sim.cluster import Cluster
from repro.tce.subroutine import Subroutine

__all__ = ["KernelTiming", "IterationResult", "NwchemDriver"]


@dataclass(frozen=True)
class KernelTiming:
    """Wall (virtual) time of one subroutine within the iteration."""

    name: str
    mode: str  # 'parsec' or 'legacy'
    start: float
    end: float

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass
class IterationResult:
    """Outcome of one mixed legacy/PaRSEC iteration."""

    execution_time: float
    kernels: list[KernelTiming] = field(default_factory=list)

    def timing(self, name: str) -> KernelTiming:
        for kernel in self.kernels:
            if kernel.name == name:
                return kernel
        raise KeyError(f"no kernel named {name!r} in this iteration")


class NwchemDriver:
    """Sequences subroutines, swapping in PaRSEC per ported kernel."""

    def __init__(
        self,
        cluster: Cluster,
        ga,
        variant: VariantSpec = V5,
        parsec_kernels: Optional[Iterable[str]] = None,
        legacy_config: Optional[LegacyConfig] = None,
    ) -> None:
        self.cluster = cluster
        self.ga = ga
        self.variant = variant
        #: names of subroutines that have been ported (the paper ports
        #: icsd_t2_7 first); None means "all of them"
        self.parsec_kernels = (
            None if parsec_kernels is None else frozenset(parsec_kernels)
        )
        self.legacy_config = legacy_config or LegacyConfig()

    def uses_parsec(self, subroutine: Subroutine) -> bool:
        return self.parsec_kernels is None or subroutine.name in self.parsec_kernels

    def run(self, subroutines: list[Subroutine]) -> IterationResult:
        """Execute the subroutines in order; returns per-kernel timings."""
        engine = self.cluster.engine
        result = IterationResult(execution_time=0.0)
        start_time = engine.now

        def program():
            for subroutine in subroutines:
                t_start = engine.now
                if self.uses_parsec(subroutine):
                    runtime, ptg, metadata = api.ptg_pipeline(
                        self.cluster, subroutine, self.variant, api.RunConfig()
                    )
                    yield runtime.launch(ptg, metadata)
                    runtime.shutdown()  # a section's runtime dies with it
                    mode = "parsec"
                else:
                    legacy = LegacyRuntime(self.cluster, self.ga, self.legacy_config)
                    done, _ = legacy.launch([list(subroutine.chains)])
                    yield done
                    legacy.shutdown()
                    mode = "legacy"
                result.kernels.append(
                    KernelTiming(subroutine.name, mode, t_start, engine.now)
                )

        engine.process(program(), name="nwchem.driver")
        result.execution_time = self.cluster.run() - start_time
        return result
