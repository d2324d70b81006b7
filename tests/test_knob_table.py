"""The table of which runtime reads which run-side knob, held honest
both ways: every pair outside ``api.KNOB_READERS`` is refused before a
cluster is built, and every pair inside it has a witness cell
(``rbgs:tiny``, 4x2, SYNTH) where the knob moves the execution time or
the metrics snapshot. The README prints the same table. The seed is
held to its readers the same way: a SYNTH run reads none, a REAL one
draws its inputs from it."""

import dataclasses
import itertools
import re
from pathlib import Path

import pytest

from repro.core import api
from repro.ga.cache import RemoteCachePolicy
from repro.legacy.runtime import LegacyConfig
from repro.parsec.scheduler import SchedulerPolicy
from repro.parsec.stealing import StealPolicy
from repro.sim.cluster import DataMode
from repro.sim.network import CoalescePolicy
from repro.util.errors import ConfigurationError

#: a value other than the default for each knob
KNOB_ON = {
    "policy": SchedulerPolicy.LIFO,
    "stealing": StealPolicy(),
    "gpus_per_node": 1,
    "legacy": LegacyConfig(use_nxtval=False),
    "coalescing": CoalescePolicy(),
    "remote_cache": RemoteCachePolicy(),
}
WITNESS = "rbgs:tiny"
BASE = api.RunConfig(n_nodes=4, cores_per_node=2, data_mode=DataMode.SYNTH)
PAIRS = list(itertools.product(api.KNOB_READERS, api.RUNTIMES))
README = Path(__file__).resolve().parents[1] / "README.md"


def test_the_table_covers_every_knob():
    assert set(KNOB_ON) == set(api.KNOB_READERS)
    assert len(PAIRS) == 18


@pytest.fixture(scope="module")
def reference():
    """Each runtime's run of the witness cell with every knob off."""
    return {runtime: api.run(WITNESS, runtime, config=BASE) for runtime in api.RUNTIMES}


@pytest.mark.parametrize("knob, runtime", PAIRS, ids=[f"{k}-{r}" for k, r in PAIRS])
def test_each_pair_is_read_or_refused(knob, runtime, reference, monkeypatch):
    config = dataclasses.replace(BASE, **{knob: KNOB_ON[knob]})
    readers = api.KNOB_READERS[knob]
    if runtime in readers:
        result = api.run(WITNESS, runtime, config=config)
        moved = (
            result.execution_time != reference[runtime].execution_time
            or result.metrics != reference[runtime].metrics
        )
        assert moved, f"{knob} on {runtime} has no witness: it is not read"
        return

    def no_cluster(config):
        raise AssertionError("a cluster was built for a refused knob")

    monkeypatch.setattr(api, "build_cluster", no_cluster)
    with pytest.raises(ConfigurationError) as exc:
        api.run(WITNESS, runtime, config=config)
    message = str(exc.value)
    assert message.startswith(f"RunConfig.{knob}=")
    for reader in readers:
        assert f"{reader} runtime" in message
    assert f"the {runtime} runtime would ignore it" in message


@pytest.mark.parametrize("runtime", ["original", "v3", "dtd"])
def test_for_runtime_keeps_exactly_the_knobs_a_runtime_reads(runtime):
    everything = dataclasses.replace(BASE, **KNOB_ON)
    config = api.for_runtime(everything, runtime)
    api.refuse_unread(config, [runtime])
    name = {"original": "legacy", "v3": "parsec"}.get(runtime, runtime)
    for knob, readers in api.KNOB_READERS.items():
        expected = KNOB_ON[knob] if name in readers else getattr(BASE, knob)
        assert getattr(config, knob) == expected
    assert api.for_runtime(BASE, runtime) is BASE


def test_readme_prints_the_table():
    block = re.search(
        r"<!-- knob-table:begin[^>]*-->\n```text\n(.*?)\n```\n<!-- knob-table:end -->",
        README.read_text(),
        re.S,
    )
    assert block, "README.md lost its knob-table markers"
    assert block.group(1) == api.knob_table(), (
        "README.md's knob table differs from core/api.py KNOB_READERS: "
        "paste the table `python -m repro info` prints between the markers"
    )


#: (label, fields): each witness cell of the seed test runs plain, with
#: every 3rd chain 4x longer, and with stealing where the runtime reads it
SEED_VARIANTS = [
    ("plain", {}),
    ("skew", {"skew_factor": 4, "skew_period": 3}),
    ("stealing", {"stealing": StealPolicy()}),
]
SEED_CELLS = [
    (token, runtime, label, fields)
    for token in ("t2_7:tiny", "rbgs:tiny")
    for runtime in ("original", "v1", "v2", "v3", "v4", "v5", "dtd")
    for label, fields in SEED_VARIANTS
    if label != "stealing" or runtime not in ("original", "dtd")
]


@pytest.mark.parametrize(
    "token, runtime, fields",
    [(t, r, f) for t, r, _, f in SEED_CELLS],
    ids=[f"{t}-{r}-{label}" for t, r, label, _ in SEED_CELLS],
)
def test_synth_reads_no_seed(token, runtime, fields):
    """SYNTH arrays hold no data, so no input is drawn from the seed: the
    run is the same at any seed. This is why ``fig9_cells`` leaves the
    seed out of a SYNTH cell, and so out of its digest."""
    a, b = (
        api.run(token, runtime, config=dataclasses.replace(BASE, seed=seed, **fields))
        for seed in (7, 12345)
    )
    assert a.execution_time.hex() == b.execution_time.hex()
    assert a.metrics == b.metrics


def test_real_reads_the_seed():
    """A REAL run draws its inputs from the seed, so its output values
    move with it: why the chaos cells, which run REAL, keep theirs."""
    a, b = (
        api.run(
            "t2_7:tiny",
            "v5",
            config=dataclasses.replace(
                BASE, data_mode=DataMode.REAL, metrics=False, seed=seed
            ),
        ).output.flat_values()
        for seed in (7, 12345)
    )
    assert not (a == b).all()
