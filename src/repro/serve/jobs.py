"""Job specs: what the service runs, canonicalized and content-addressed.

A job names one of the repository's independent-cell experiments and
the parameters that fully determine its output. Because every cell is a
deterministic pure function of its parameters, a job's *result* is a
pure function of its *normalized spec* — which is why a job that is
``done`` answers every later submission of its digest: the digest
covers the workload structure (kind, workload name, scale, skew), the
run configuration (codes, node/core geometry, stealing) and the seed,
so two jobs that differ only in ``workload`` never share an answer.

The same holds one level down: a cell's value is a pure function of its
function and kwargs, so :func:`cell_digest` addresses it, and a ``point``
job whose cell sits inside a finished ``fig9`` grid has its answer
already (and the reverse). A cell's kwargs are exactly what it reads: a
``point``/``fig9`` cell runs SYNTH and carries no seed, so it answers
jobs of every seed, while a ``chaos`` cell runs REAL and keeps its seed.
The job digest still covers the seed, so job ids do not merge.

Job kinds
---------
- ``point`` — one :func:`~repro.experiments.fig9.run_point` cell:
  a single code at a single core count (the 1x1 ``fig9`` grid).
- ``fig9``  — the declared Figure 9 experiment's cells: every requested
  code at every requested core count, one cell per ``(code, cores)``.
- ``chaos`` — the declared chaos experiment's cells, one per runner.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Any

from repro.experiments.fig9 import CODES
from repro.experiments.sweep import CellError, SweepCell
from repro.tce.molecules import SCALE_PRESETS
from repro.util.errors import ConfigurationError

__all__ = [
    "JOB_KINDS",
    "JobSpec",
    "job_digest",
    "cell_digest",
    "build_cells",
    "serialize_results",
]

#: what every kind takes (every serialization sorts keys, so the order
#: here is free)
_SHARED_DEFAULTS: dict[str, Any] = {
    "scale": "tiny",
    "workload": "t2_7",
    "n_nodes": 4,
    "seed": 7,
    "stealing": False,
}
_SKEW_DEFAULTS = {"skew_factor": 1, "skew_period": 0}

#: kind -> {param: default}
_PARAM_DEFAULTS: dict[str, dict[str, Any]] = {
    "point": {"code": "v5", "cores": 2, **_SHARED_DEFAULTS, **_SKEW_DEFAULTS},
    "fig9": {
        "codes": list(CODES),
        "core_counts": [1, 2],
        **_SHARED_DEFAULTS,
        **_SKEW_DEFAULTS,
    },
    "chaos": {
        "codes": list(CODES),
        "cores_per_node": 2,
        "fault_seed": 2025,
        **_SHARED_DEFAULTS,
    },
}

JOB_KINDS = tuple(_PARAM_DEFAULTS)


@dataclass(frozen=True)
class JobSpec:
    """One normalized job: ``kind`` plus its full parameter set.

    Build through :meth:`normalize` so that two submissions meaning the
    same run always carry the same parameters — and therefore the same
    digest.

    ``priority`` is scheduling metadata, **not** part of the content
    address: it biases which queued job a free worker picks (higher
    first, with waiting jobs aging upward so nothing starves) but
    cannot change the job's bytes, so two submissions differing only in
    priority share one digest and one job.
    """

    kind: str
    params: dict
    priority: int = 0

    @classmethod
    def normalize(cls, kind: str, params: dict | None = None) -> "JobSpec":
        """Validate and canonicalize a raw submission."""
        spec = cls._canonical(kind, params)
        # expanding refuses a knob none of the codes reads (stealing on
        # "original" alone): a job whose every cell would ignore it
        build_cells(spec)
        return spec

    @classmethod
    def _canonical(cls, kind: str, params: dict | None) -> "JobSpec":
        """``params`` over the kind's defaults, converted and checked."""
        if kind not in _PARAM_DEFAULTS:
            raise ConfigurationError(
                f"unknown job kind {kind!r}: expected one of {JOB_KINDS}"
            )
        defaults = _PARAM_DEFAULTS[kind]
        params = dict(params or {})
        # scheduling metadata rides alongside the content parameters in
        # a raw submission but is split off before digesting
        priority = _coerce("priority", params.pop("priority", 0), 0)
        unknown = sorted(set(params) - set(defaults))
        if unknown:
            raise ConfigurationError(
                f"unknown parameter(s) for {kind!r} job: {unknown} "
                f"(accepted: {sorted(defaults)})"
            )
        merged = {
            name: _coerce(name, params.get(name, default), default)
            for name, default in defaults.items()
        }
        spec = cls(kind=kind, params=merged, priority=priority)
        spec._validate()
        return spec

    def _validate(self) -> None:
        from repro.workloads import parse_workload_token

        p = self.params
        if p["scale"] not in SCALE_PRESETS:
            raise ConfigurationError(
                f"unknown scale {p['scale']!r}: expected one of "
                f"{tuple(SCALE_PRESETS)}"
            )
        # rejects unknown workload names / malformed tokens at submit
        # time, before a worker ever sees the job
        parse_workload_token(p["workload"], scale=p["scale"])
        codes = p["codes"] if "codes" in p else [p["code"]]
        bad = sorted(set(codes) - set(CODES))
        if bad:
            raise ConfigurationError(
                f"unknown code(s) {bad}: expected from {CODES}"
            )
        if not codes:
            raise ConfigurationError("a job needs at least one code")
        if "core_counts" in p and not p["core_counts"]:
            raise ConfigurationError("a fig9 job needs at least one core count")
        # out of range, a job would be admitted only to fail inside its
        # cells; refused here, it is the caller's 400
        floors = {"n_nodes": 1, "cores": 1, "cores_per_node": 1,
                  "core_counts": 1, "skew_factor": 1, "skew_period": 0}
        for name, floor in floors.items():
            value = p.get(name, floor)
            if min(value if isinstance(value, list) else [value]) < floor:
                raise ConfigurationError(f"{name} must be >= {floor}, got {value}")

    def to_dict(self) -> dict:
        d = {"kind": self.kind, "params": dict(self.params)}
        if self.priority:
            # only when set, so journals of priority-less jobs keep
            # their pre-v2 byte layout
            d["priority"] = self.priority
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "JobSpec":
        """A journaled spec, admitted under the rules of its day: one
        with a knob none of its codes reads is not refused, so the daemon
        boots and a ``done`` one still answers its digest (a queued one
        fails on the refusal when its cells are built)."""
        params = dict(d.get("params") or {})
        if d.get("priority"):
            params["priority"] = d["priority"]
        return cls._canonical(d["kind"], params)

    def describe(self) -> str:
        p = self.params
        return f"{self.kind}[{p['workload']}:{p['scale']}] seed={p['seed']}"


def _coerce(name: str, value: Any, default: Any) -> Any:
    """``value`` as the type of ``default`` (a list: of its elements, so
    ``(1, 2)`` is ``[1, 2]``); one that does not convert, a non-bool for
    a bool (``bool("false")`` is True), or a bool or float for an int
    (``int(2.7)`` is 2, ``int(True)`` is 1: the digest of another job)
    is a ConfigurationError."""
    try:
        if isinstance(default, list):
            if not isinstance(value, (list, tuple)):
                raise TypeError
            return [_convert(v, type(default[0])) for v in value]
        if isinstance(default, (bool, str)):
            if not isinstance(value, type(default)):
                raise TypeError
            return value
        return _convert(value, int)
    except (TypeError, ValueError):
        raise ConfigurationError(
            f"parameter {name!r} must be {type(default).__name__}, "
            f"got {value!r}"
        ) from None


def _convert(value: Any, kind: type) -> Any:
    if kind is int and isinstance(value, (bool, float)):
        raise TypeError
    return kind(value)


def job_digest(spec: JobSpec) -> str:
    """The job's content address.

    sha256 over the canonical JSON of the normalized spec. The
    normalized parameters determine the workload structure token, the
    RunConfig, and the seed of every cell the job expands to that reads
    one, so equal digests imply byte-identical results. The seed is
    covered even when no cell reads it (a SYNTH job): the job is what
    was asked for, its cells are what runs. Scheduling metadata
    (``priority``) cannot change those bytes and is left out.
    """
    return _sha256_json({"kind": spec.kind, "params": dict(spec.params)})


def cell_digest(cell: SweepCell) -> str:
    """One cell's content address, by :func:`job_digest`'s rules.

    sha256 over the canonical JSON of the cell function's qualified name
    and its kwargs: everything its value depends on. The key (the cell's
    place in its job's grid) is left out, so the ``v5/2`` cell of a
    ``point`` job and of a ``fig9`` job of the same parameters share one
    digest; a SYNTH cell has no ``seed`` kwarg, so they share it at any
    two seeds. A kwarg that is not plain JSON is a ConfigurationError: its
    ``str()`` could equal another value's.
    """
    fn = cell.fn
    try:
        return _sha256_json({
            "fn": f"{fn.__module__}.{fn.__qualname__}",
            "kwargs": cell.kwargs,
        })
    except (TypeError, ValueError) as exc:
        raise ConfigurationError(
            f"cell {cell.label()}: a kwarg is not plain JSON ({exc})"
        ) from None


def _sha256_json(value: Any) -> str:
    canonical = json.dumps(
        value, sort_keys=True, separators=(",", ":"), allow_nan=False
    )
    return hashlib.sha256(canonical.encode()).hexdigest()


# ----------------------------------------------------------------------
# expanding a spec into sweep cells
# ----------------------------------------------------------------------
def build_cells(spec: JobSpec) -> list[SweepCell]:
    """Expand one job into the cells of the declared experiment its kind
    names, by keyword (a ``point`` job is the 1x1 ``fig9`` grid). Cells
    are plain parameters: the pool process that runs one memoises it."""
    from repro.experiments.claims import experiment

    p = dict(spec.params)
    if spec.kind == "point":
        return experiment("fig9").cells(
            codes=[p.pop("code")], core_counts=[p.pop("cores")], **p
        )
    return experiment(spec.kind).cells(**p)


def _jsonable(value: Any) -> Any:
    """Coerce one cell's return value to plain JSON data."""
    from dataclasses import asdict, is_dataclass

    if is_dataclass(value) and not isinstance(value, type):
        return _jsonable(asdict(value))
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    if hasattr(value, "item"):  # numpy scalar
        return value.item()
    return str(value)


def serialize_results(
    cells: list[SweepCell], results: dict[tuple, Any]
) -> tuple[dict, dict]:
    """Split a (possibly partial) sweep result into (values, errors).

    Both are JSON-ready mappings keyed by the cell label; ``errors``
    carries the explicit :class:`CellError` records of a degraded job.
    """
    values: dict[str, Any] = {}
    errors: dict[str, Any] = {}
    for cell in cells:
        value = results[cell.key]
        if isinstance(value, CellError):
            errors[cell.label()] = value.to_dict()
        else:
            values[cell.label()] = _jsonable(value)
    return values, errors
