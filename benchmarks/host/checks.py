"""Output checks applied to a child's result, outside the timed body.

- ``expected``: every op's simulated values equal ``expected.json``, at
  any ``--seed`` (the seed draws tensor data and job order only; virtual
  time, task, message and recovery counts do not depend on them).
- the workload's built-in checks (numerics agreement, chaos ``ok``, knob
  ``output_equal``, resubmits cached and byte-identical) come with the op.
- ``stepwise``: in a traced run, each op simulated exactly what the same
  op did through the facade.

Only host-independent values are ever committed: energies and checksums
move 1-2 ulp with the host BLAS, so numerics are compared between
runtimes and against ``reference_values()`` inside one process instead.
"""

from __future__ import annotations

import json
from pathlib import Path

EXPECTED_PATH = Path(__file__).with_name("expected.json")


def load_expected(path: Path = EXPECTED_PATH) -> dict:
    return json.loads(path.read_text())


def _differs(measured: dict, expected: dict) -> list[str]:
    """Keys both sides have whose values differ (both are JSON data)."""
    return [
        key for key in measured if key in expected and measured[key] != expected[key]
    ]


def apply_expected(result: dict, expected: dict) -> None:
    """Add the ``expected`` check to every op of ``result`` (True, False,
    or None where nothing could be checked)."""
    table = expected.get(result["size"], {}).get(result["workload"], {})
    for op in result["ops"]:
        if not op["virt"]:
            op["checks"]["expected"] = None  # a cache hit simulates nothing
            continue
        entry = table.get(op["id"])
        if entry is None:
            op["checks"]["expected"] = False
            op["expected_detail"] = "no entry in expected.json"
            continue
        wrong = _differs(op["virt"], entry)
        op["checks"]["expected"] = not wrong
        if wrong:
            op["expected_detail"] = f"differs from expected.json: {sorted(wrong)}"


def apply_stepwise(traced: dict, untraced: dict) -> int:
    """Add the ``stepwise`` check to the traced ops; returns 1 when every
    traced op matches its untraced twin on every value both report."""
    twins = {op["id"]: op for op in untraced["ops"]}
    match = 1
    for op in traced["ops"]:
        twin = twins.get(op["id"])
        same = (
            twin is not None
            and not _differs(op["virt"], twin["virt"])
            and op["virt_s"] == twin["virt_s"]
        )
        op["checks"]["stepwise"] = same
        if not same:
            match = 0
    return match


def failed_ops(result: dict) -> list[dict]:
    """Ops with any check that did not pass (None counts as passed)."""
    return [
        op for op in result["ops"] if any(v is False for v in op["checks"].values())
    ]


def merged_expected(untraced: dict, traced: dict) -> dict:
    """``expected.json`` entries for one workload: the facade's values,
    plus whatever more the stepwise path can see (task and message
    counts the facades do not return)."""
    table = {}
    by_id = {op["id"]: op for op in traced["ops"]}
    for op in untraced["ops"]:
        twin = by_id[op["id"]]
        if op["virt"]:
            table[op["id"]] = {**twin["virt"], **op["virt"]}
    return table
