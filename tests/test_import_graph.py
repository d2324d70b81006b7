"""A process imports only what it runs.

The package declares numpy alone: no module under ``repro`` may reach
networkx or scipy (the task-graph profile walks the PTG's own template),
and a process that touches the job journal or an experiment must not
load the HTTP client and server stack either. Each check is a fresh
interpreter, so what this test session already imported does not count.
"""

import os
import subprocess
import sys
import textwrap

SRC = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")

UNDECLARED = ("networkx", "scipy")

HTTP_STACK = ("http.server", "http.client", "urllib.request", "ssl")


def run_fresh(code: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=SRC)
    return subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code)],
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
    )


def test_nothing_but_analysis_dag_needs_networkx():
    done = run_fresh(
        f"""
        import importlib, pkgutil, sys
        for name in {UNDECLARED!r}:
            sys.modules[name] = None  # any import of it raises
        import repro
        for module in pkgutil.walk_packages(repro.__path__, "repro."):
            importlib.import_module(module.name)
        from repro.analysis.dag import profile_task_graph
        from repro.core.api import build
        from repro.core.inspector import inspect_subroutine
        from repro.core.ptg_build import build_ccsd_ptg
        from repro.core.variants import V5
        workload = build("t2_7:tiny", repro.RunConfig(n_nodes=4))
        md = inspect_subroutine(workload.subroutine, workload.cluster, V5)
        graph = build_ccsd_ptg(V5, md).instantiate(md, 4)
        assert profile_task_graph(graph, workload.cluster.machine).n_tasks > 0
        config = repro.RunConfig(n_nodes=4, cores_per_node=2, metrics=True)
        result = repro.run("t2_7:tiny", runtime="v5", config=config)
        assert result.report is not None and result.n_tasks > 0
        print("ok")
        """
    )
    assert done.returncode == 0 and done.stdout.split() == ["ok"], done.stderr


def test_journal_and_experiments_load_no_http_stack():
    done = run_fresh(
        f"""
        import sys
        import repro.serve.journal, repro.experiments.fig9
        print(sorted(set({HTTP_STACK!r}) & set(sys.modules)))
        """
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["[]"], done.stdout
