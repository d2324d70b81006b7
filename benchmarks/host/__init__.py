"""Host-cost benchmark: what a user of the simulator waits for.

Five workloads, each run in its own fresh child interpreter, measured
end to end (tracing off) and layer by layer (a second, traced run that
drives the layers stepwise with harness-level spans). Virtual-time
results are checked against ``expected.json``; host time is what is
reported. See ``README.md`` in this directory.

Entry points::

    PYTHONPATH=src python -m benchmarks.host run [--workload NAME] [--traced]
    python3 benchmarks/host/run.py --workload NAME --seed N --seconds S --trace 0|1
"""
