"""The workload registry: names and token grammar."""

import pytest

from repro.workloads import (
    BoundWorkload,
    build_workload,
    canonical_token,
    parse_workload_token,
    workload_names,
    workload_spec,
)
from repro.util.errors import ConfigurationError


class TestRegistry:
    def test_builtin_workloads_registered(self):
        names = workload_names()
        for name in ("t2_7", "ccsd", "rbgs"):
            assert name in names

    def test_unknown_name_rejected_with_options(self):
        with pytest.raises(ConfigurationError, match="unknown workload"):
            workload_spec("frobnicate")
        with pytest.raises(ConfigurationError, match="t2_7"):
            workload_spec("frobnicate")  # the error lists what exists


class TestTokenGrammar:
    def test_explicit_token(self):
        assert parse_workload_token("ccsd:tiny") == ("ccsd", "tiny")
        assert parse_workload_token("rbgs:128x128") == ("rbgs", "128x128")

    def test_bare_scale_is_not_a_token(self):
        # the pre-SDK spelling of "t2_7:<scale>"; its shim is gone
        for scale in ("tiny", "small"):
            with pytest.raises(ConfigurationError, match="unknown workload"):
                parse_workload_token(scale)

    def test_bare_name_takes_scale_then_default(self):
        assert parse_workload_token("rbgs", scale="tiny") == ("rbgs", "tiny")
        # no scale: the spec's default params
        name, params = parse_workload_token("rbgs")
        assert (name, params) == ("rbgs", workload_spec("rbgs").default_params)

    def test_explicit_params_beat_the_scale_argument(self):
        assert parse_workload_token("rbgs:8x8", scale="tiny") == ("rbgs", "8x8")

    def test_empty_params_rejected(self):
        with pytest.raises(ConfigurationError, match="empty params"):
            parse_workload_token("rbgs:")

    def test_unknown_name_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown workload"):
            parse_workload_token("nope:tiny")
        with pytest.raises(ConfigurationError, match="unknown workload"):
            parse_workload_token("nope")

    def test_canonical_token_is_fully_qualified(self):
        assert canonical_token("t2_7", scale="tiny") == "t2_7:tiny"
        assert canonical_token("rbgs", scale="tiny") == "rbgs:tiny"
        assert canonical_token("ccsd:small") == "ccsd:small"


class TestBuildWorkload:
    @pytest.mark.parametrize("token", ["t2_7:tiny", "ccsd:tiny", "rbgs:tiny"])
    def test_builds_protocol_instances(self, token):
        from repro.experiments.calibration import make_cluster

        cluster = make_cluster(2, n_nodes=2)
        workload = build_workload(token, cluster)
        assert isinstance(workload, BoundWorkload)
        assert workload.levels()
        assert workload.output is not None
        # the instance is stamped with the one canonical spelling
        assert workload.workload_id == canonical_token(token)

    def test_every_level_carries_a_structure_token(self):
        from repro.experiments.calibration import make_cluster

        cluster = make_cluster(2, n_nodes=2)
        for token in ("t2_7:tiny", "ccsd:tiny", "rbgs:tiny"):
            for level in build_workload(token, cluster).levels():
                assert level.structure_token is not None, token
