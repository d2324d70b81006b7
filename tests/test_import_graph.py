"""A process imports only what it runs.

networkx is not a declared dependency (it is the ``dag`` extra): no run,
experiment, CLI entry point or service module may reach it, and a
process that touches the job journal or an experiment must not load the
HTTP client and server stack either. Each check is a fresh interpreter,
so what this test session already imported does not count.
"""

import os
import subprocess
import sys
import textwrap

SRC = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")

WITHOUT_NETWORKX = [
    "repro.__main__",
    "repro.experiments.fig9",
    "repro.experiments.traces",
    "repro.experiments.equivalence",
    "repro.experiments.ablations",
    "repro.experiments.chaos",
    "repro.experiments.perf",
    "repro.analysis.run_report",
    "repro.serve.daemon",
]

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
        import importlib, sys
        sys.modules["networkx"] = None  # any import of it raises
        for name in {WITHOUT_NETWORKX!r}:
            importlib.import_module(name)
        import repro
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
