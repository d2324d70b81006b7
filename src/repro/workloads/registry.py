"""String-addressable workload registry and token grammar.

A workload token is ``"<name>"`` or ``"<name>:<params>"``:

- ``"t2_7:small"`` — the paper's sub-kernel at a named system scale;
- ``"ccsd:tiny"`` — a full CCSD iteration (seven barrier levels);
- ``"rbgs:128x128"`` — the red-black stencil on an explicit tile grid
  (presets like ``"rbgs:tiny"`` also work).

A bare scale name (``"small"``) is not a token: the workload is always
named, and an unknown name raises :class:`ConfigurationError`.

Adding a workload is one :func:`register_workload` call with a builder
``(params, *, skew_factor, skew_period) -> Structure`` — the workload's
structure, no machine and no seed; :func:`build_workload` binds it to a
run (see ``README.md``, "Workloads", for the walkthrough).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from repro.util.errors import ConfigurationError

__all__ = [
    "WorkloadSpec",
    "register_workload",
    "workload_names",
    "workload_spec",
    "parse_workload_token",
    "canonical_token",
    "build_workload",
]


@dataclass(frozen=True)
class WorkloadSpec:
    """One registry entry: a name, a structure builder, and its default
    params."""

    name: str
    summary: str
    builder: Callable
    default_params: str = "small"


_REGISTRY: dict[str, WorkloadSpec] = {}

def register_workload(spec: WorkloadSpec) -> None:
    """Register (or replace) a workload under its name."""
    _REGISTRY[spec.name] = spec


def workload_names() -> tuple[str, ...]:
    """All registered workload names, sorted."""
    return tuple(sorted(_REGISTRY))


def workload_spec(name: str) -> WorkloadSpec:
    """The spec registered under ``name`` (ConfigurationError if none)."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown workload {name!r}: registered workloads are "
            f"{list(workload_names())} (tokens are '<name>' or "
            f"'<name>:<params>', e.g. 't2_7:small')"
        ) from None


def parse_workload_token(
    token: str, scale: Optional[str] = None
) -> tuple[str, str]:
    """Resolve a token to ``(name, params)``, validating the name.

    ``scale`` supplies the params when the token has none (the
    experiments' ``--workload rbgs --scale tiny`` composition); an
    explicit ``name:params`` token wins over it.
    """
    token = token.strip()
    if ":" in token:
        name, params = token.split(":", 1)
        name, params = name.strip(), params.strip()
        if not params:
            raise ConfigurationError(f"workload token {token!r} has empty params")
    else:
        name, params = token, ""
    spec = workload_spec(name)
    return name, params or scale or spec.default_params


def canonical_token(token: str, scale: Optional[str] = None) -> str:
    """The fully-qualified ``name:params`` form of any accepted token."""
    name, params = parse_workload_token(token, scale=scale)
    return f"{name}:{params}"


def build_workload(
    token: str,
    cluster,
    ga=None,
    *,
    scale: Optional[str] = None,
    seed: int = 7,
    skew_factor: int = 1,
    skew_period: int = 0,
    cache=None,
):
    """Build the structure a token names and bind it to ``cluster``.

    ``ga`` defaults to a fresh :class:`~repro.ga.runtime.GlobalArrays`
    on the cluster. With ``cache`` (an
    :class:`~repro.core.inspector.InspectionCache`) the structure is
    built once per (canonical token, skew) and the inputs' draws once
    per (seed, stream, size); without, both are the run's own. The
    instance's ``workload_id`` is set to the canonical token so cache
    keys and reports agree on one spelling.
    """
    name, params = parse_workload_token(token, scale=scale)
    canonical = f"{name}:{params}"
    if ga is None:
        from repro.ga.runtime import GlobalArrays

        ga = GlobalArrays(cluster)
    builder = _REGISTRY[name].builder

    def structure():
        return builder(params, skew_factor=skew_factor, skew_period=skew_period)

    if cache is not None:
        built = cache.structure((canonical, skew_factor, skew_period), structure)
    else:
        built = structure()
    workload = built.bind(ga, seed, cache=cache)
    workload.workload_id = canonical
    return workload


# ----------------------------------------------------------------------
# built-in workloads
# ----------------------------------------------------------------------
def _build_t2_7(params, *, skew_factor=1, skew_period=0):
    from repro.tce.molecules import system_for_scale
    from repro.tce.t2_7 import T2_7_SPEC
    from repro.tce.terms import TermStructure

    return TermStructure(
        system_for_scale(params).orbital_space(),
        T2_7_SPEC,
        skew_factor=skew_factor,
        skew_period=skew_period,
    )


def _build_ccsd(params, *, skew_factor=1, skew_period=0):
    from repro.tce.cc_iteration import CcsdStructure
    from repro.tce.molecules import system_for_scale

    return CcsdStructure(
        system_for_scale(params).orbital_space(),
        skew_factor=skew_factor,
        skew_period=skew_period,
    )


def _build_rbgs(params, *, skew_factor=1, skew_period=0):
    from repro.workloads.rbgs import RbgsStructure, parse_grid

    return RbgsStructure(
        *parse_grid(params), skew_factor=skew_factor, skew_period=skew_period
    )


register_workload(
    WorkloadSpec(
        name="t2_7",
        summary="the paper's icsd_t2_7 sub-kernel (one level); params: scale name",
        builder=_build_t2_7,
    )
)
register_workload(
    WorkloadSpec(
        name="ccsd",
        summary="full CCSD iteration, 14 terms over 7 barrier levels; params: scale name",
        builder=_build_ccsd,
    )
)
register_workload(
    WorkloadSpec(
        name="rbgs",
        summary="red-black Gauss-Seidel tile stencil, 2 colored waves; "
        "params: scale name, GYxGX, or GYxGXxTILE",
        builder=_build_rbgs,
    )
)
