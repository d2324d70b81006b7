"""A process imports only what it runs, and a name has one import path.

The package declares numpy alone: no module under ``repro`` may reach
networkx or scipy (the task-graph profile walks the PTG's own template),
and a process that touches the job journal or an experiment must not
load the HTTP client and server stack either. The top-level names of
``repro`` resolve on first use, so the service client loads neither
numpy nor the simulator. Each check is a fresh interpreter, so what this
test session already imported does not count.

A name is imported from the module that defines it. Only ``repro`` and
``repro.workloads`` are package surfaces; every other package
``__init__`` is its docstring (the package's module map), and no
module's ``__all__`` lists a name it imports.
"""

import ast
import os
import subprocess
import sys
import textwrap

SRC = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")

#: the two package surfaces, as paths relative to ``SRC``
SURFACES = (
    os.path.join("repro", "__init__.py"),
    os.path.join("repro", "workloads", "__init__.py"),
)

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


def test_the_service_client_loads_no_simulator():
    done = run_fresh(
        """
        import sys
        import repro.serve.client
        print(sorted({"numpy", "repro.core.api"} & set(sys.modules)))
        import repro
        from repro import RunConfig, V5
        assert repro.run.__module__ == "repro.core.api"
        assert RunConfig.__name__ == "RunConfig" and V5.name == "v5"
        print(repro.__version__)
        """
    )
    assert done.returncode == 0, done.stderr
    loaded, version = done.stdout.split()
    assert loaded == "[]", done.stdout
    cli = subprocess.run(
        [sys.executable, "-m", "repro", "--version"], capture_output=True,
        text=True, env=dict(os.environ, PYTHONPATH=SRC), timeout=300,
    )
    assert cli.returncode == 0 and cli.stdout.split()[-1] == version


def repro_modules():
    """``(path relative to SRC, parsed module)`` of every file under repro."""
    for root, _, files in sorted(os.walk(os.path.join(SRC, "repro"))):
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(root, name)
                with open(path, encoding="utf-8") as handle:
                    yield os.path.relpath(path, SRC), ast.parse(handle.read())


def module_level(body):
    """The module's own statements, into ``if``/``try``/``with`` blocks
    but not into function or class bodies."""
    for node in body:
        yield node
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            continue
        for field in ("body", "orelse", "finalbody", "handlers"):
            yield from module_level(getattr(node, field, ()))


def test_package_inits_are_their_docstring():
    padded = []
    for rel, tree in repro_modules():
        if os.path.basename(rel) != "__init__.py" or rel in SURFACES:
            continue
        body = tree.body
        if not (
            len(body) == 1
            and isinstance(body[0], ast.Expr)
            and isinstance(body[0].value, ast.Constant)
            and isinstance(body[0].value.value, str)
        ):
            padded.append(rel)
    assert padded == [], f"package __init__s with more than a docstring: {padded}"


def test_no_all_lists_an_imported_name():
    reexports = []
    for rel, tree in repro_modules():
        if rel in SURFACES:
            continue
        imported, exported = set(), []
        for node in module_level(tree.body):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    imported.add((alias.asname or alias.name).split(".")[0])
            elif isinstance(node, ast.Assign) and any(
                isinstance(target, ast.Name) and target.id == "__all__"
                for target in node.targets
            ):
                exported = [ast.literal_eval(elt) for elt in node.value.elts]
        reexports += [f"{rel}: {name}" for name in exported if name in imported]
    assert reexports == [], reexports
