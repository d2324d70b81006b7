"""Tests for the scheduler policy disciplines and the LIFO store."""

import numpy as np
import pytest

from repro import run
from repro.core.api import RunConfig, build
from repro.parsec.scheduler import SchedulerPolicy
from repro.sim.cluster import Cluster, ClusterConfig, DataMode
from repro.sim.engine import Engine
from repro.sim.queues import LifoStore
from repro.tce.reference import compute_reference
from repro.util.errors import ConfigurationError


class TestLifoStore:
    def test_newest_first(self):
        engine = Engine()
        store = LifoStore(engine)
        for i in range(4):
            store.put(i)
        got = []

        def worker():
            for _ in range(4):
                got.append((yield store.get()))

        engine.process(worker())
        engine.run()
        assert got == [3, 2, 1, 0]

    def test_blocking_get(self):
        engine = Engine()
        store = LifoStore(engine)
        got = []

        def worker():
            got.append(((yield store.get()), engine.now))

        engine.process(worker())
        engine.schedule(2.0, store.put, "x")
        engine.run()
        assert got == [("x", 2.0)]

    def test_try_get(self):
        engine = Engine()
        store = LifoStore(engine)
        assert store.try_get() == (False, None)
        store.put("a")
        store.put("b")
        assert store.try_get() == (True, "b")
        assert len(store) == 1


class TestPolicies:
    @pytest.mark.parametrize("policy", list(SchedulerPolicy))
    def test_every_policy_computes_correct_results(self, policy):
        config = RunConfig(n_nodes=4, cores_per_node=2, policy=policy)
        workload = build("t2_7:tiny", config)
        result = run(workload, "v4", config=config)
        expected = compute_reference(workload)
        np.testing.assert_allclose(
            workload.i2.flat_values(), expected, rtol=1e-12, atol=1e-12
        )
        assert result.execution_time > 0

    def test_policies_produce_different_schedules(self):
        def time_for(policy):
            config = RunConfig(
                n_nodes=4, cores_per_node=2, data_mode=DataMode.SYNTH, policy=policy
            )
            return run("t2_7:tiny", "v4", config=config).execution_time

        times = {policy: time_for(policy) for policy in SchedulerPolicy}
        # at least two disciplines must schedule observably differently
        assert len(set(times.values())) >= 2

    def test_default_policy_is_priority(self):
        from repro.parsec.runtime import ParsecRuntime

        cluster = Cluster(ClusterConfig(n_nodes=1))
        assert ParsecRuntime(cluster).policy is SchedulerPolicy.PRIORITY

    def test_a_policy_name_is_taken_and_a_bad_one_refused(self):
        """``RunConfig(policy="fifo")`` schedules as the FIFO member does;
        an unknown name is a configuration error that lists the choices."""

        def time_for(policy):
            config = RunConfig(
                n_nodes=4, cores_per_node=2, data_mode=DataMode.SYNTH, policy=policy
            )
            return run("t2_7:tiny", "v4", config=config).execution_time

        assert time_for("fifo") == time_for(SchedulerPolicy.FIFO)
        with pytest.raises(ConfigurationError, match="priority, fifo, lifo"):
            time_for("random")

    @pytest.mark.parametrize(
        "runtime, named", [("legacy", "legacy"), ("original", "legacy"), ("dtd", "dtd")]
    )
    def test_a_runtime_that_reads_no_policy_refuses_one(self, runtime, named):
        """Legacy and DTD schedule without a node policy: a policy given
        to them is refused, naming the field and the runtimes that read it,
        before anything is built (it used to leave their times unchanged)."""
        config = RunConfig(n_nodes=4, cores_per_node=2, policy=SchedulerPolicy.LIFO)
        with pytest.raises(ConfigurationError) as exc:
            run("t2_7:tiny", runtime, config=config)
        message = str(exc.value)
        assert message.startswith("RunConfig.policy=")
        assert "(runtime=parsec|v1|v2|v3|v4|v5)" in message
        assert f"the {named} runtime would ignore it" in message
