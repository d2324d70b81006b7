"""Measure the process memo's weights (``core/inspector.py``).

Each memoised product is weighed at a constant rate per unit of its
size; this script re-derives the three rates with ``tracemalloc``:

- chain IR: bytes of a built workload structure per GEMM;
- inspected chains: bytes of one chain height's ``ChainMeta`` list per
  GEMM, both heights (v1's whole chains, v5's one-GEMM segments);
- task template: bytes of one validated template per task, v1 and v5,
  every level, built a second time so the first build's transients
  are gone.

Usage::

    PYTHONPATH=src python tests/data/memo_weights.py [token ...] [--nodes 4 32]

prints one line per (token, nodes) and the largest reading of each rate,
which is what the constants keep. Defaults: t2_7, rbgs and ccsd at small
and paper on 4 and 32 nodes.
"""

from __future__ import annotations

import argparse
import gc
import tracemalloc

from repro.core import inspector
from repro.core.metadata import Metadata
from repro.core.ptg_build import build_ccsd_ptg
from repro.core.variants import V1, V5
from repro.workloads.registry import parse_workload_token, workload_spec

TOKENS = (
    "t2_7:small",
    "t2_7:paper",
    "rbgs:small",
    "rbgs:paper",
    "ccsd:small",
    "ccsd:paper",
)


def traced(build):
    """``build()`` and the traced bytes its result holds."""
    gc.collect()
    before = tracemalloc.get_traced_memory()[0]
    product = build()
    gc.collect()
    return product, tracemalloc.get_traced_memory()[0] - before


def measure(token: str, n_nodes: int) -> dict:
    name, params = parse_workload_token(token)
    structure, ir_bytes = traced(lambda: workload_spec(name).builder(params))
    levels = structure.levels
    n_gemms = sum(level.n_gemms for level in levels)
    chain_bytes = 0.0
    template_bytes = n_tasks = 0
    for variant in (V1, V5):
        for level in levels:
            chains, nbytes = traced(
                lambda: inspector._inspect_chains(level, n_nodes, variant)
            )
            chain_bytes = max(chain_bytes, nbytes / level.n_gemms)
            md = Metadata(level, chains, variant, n_nodes, arrays={})
            ptg = build_ccsd_ptg(variant, md)
            ptg.template(md, n_nodes)

            built, nbytes = traced(lambda: ptg.template(md, n_nodes))
            template_bytes += nbytes
            n_tasks += len(built)
            del built, ptg, md, chains
    return {
        "token": token,
        "n_nodes": n_nodes,
        "gemms": n_gemms,
        "ir_per_gemm": ir_bytes / n_gemms,
        "chains_per_gemm": chain_bytes,
        "template_per_task": template_bytes / n_tasks,
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("tokens", nargs="*", default=list(TOKENS))
    parser.add_argument("--nodes", type=int, nargs="+", default=[4, 32])
    args = parser.parse_args()
    tracemalloc.start()
    rates = {"ir_per_gemm": 0.0, "chains_per_gemm": 0.0, "template_per_task": 0.0}
    for token in args.tokens:
        for n_nodes in args.nodes:
            row = measure(token, n_nodes)
            print(
                f"{token:>11} n{n_nodes:<3} {row['gemms']:>7} GEMMs: "
                f"IR {row['ir_per_gemm']:6.0f} B/GEMM, "
                f"chains {row['chains_per_gemm']:5.0f} B/GEMM, "
                f"template {row['template_per_task']:5.0f} B/task",
                flush=True,
            )
            for rate in rates:
                rates[rate] = max(rates[rate], row[rate])
    print("largest: " + ", ".join(f"{k} {v:.0f}" for k, v in rates.items()))


if __name__ == "__main__":
    main()
