"""Tests for the configuration objects and the error hierarchy."""

import pytest

from repro.config import (
    DEFAULT_GROUPING_ATTRIBUTES,
    GEO_ATTRIBUTE,
    MiningConfig,
    PipelineConfig,
    ServerConfig,
    VizConfig,
)
from repro.errors import (
    ConstraintError,
    DataError,
    GeoError,
    MapRatError,
    MiningError,
    QueryError,
    QuerySyntaxError,
    SchemaError,
    ServerError,
)


class TestMiningConfig:
    def test_defaults_match_the_paper_setup(self):
        config = MiningConfig()
        assert config.max_groups == 3
        assert config.require_geo_anchor is True
        assert GEO_ATTRIBUTE in config.grouping_attributes
        assert config.grouping_attributes == DEFAULT_GROUPING_ATTRIBUTES

    def test_grouping_attributes_normalised_to_tuple(self):
        config = MiningConfig(grouping_attributes=["gender", "state"])
        assert isinstance(config.grouping_attributes, tuple)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_groups": 0},
            {"min_coverage": -0.1},
            {"min_coverage": 1.5},
            {"max_description_length": 0},
            {"min_group_support": 0},
            {"diversity_penalty": -1},
            {"rhe_restarts": 0},
            {"rhe_max_iterations": 0},
        ],
    )
    def test_invalid_values_rejected(self, kwargs):
        with pytest.raises(ConstraintError):
            MiningConfig(**kwargs)

    def test_geo_anchor_requires_state_among_grouping_attributes(self):
        with pytest.raises(ConstraintError):
            MiningConfig(grouping_attributes=("gender",), require_geo_anchor=True)
        config = MiningConfig(grouping_attributes=("gender",), require_geo_anchor=False)
        assert config.grouping_attributes == ("gender",)

    def test_with_overrides_returns_modified_copy(self):
        config = MiningConfig()
        modified = config.with_overrides(max_groups=5, min_coverage=0.5)
        assert modified.max_groups == 5
        assert modified.min_coverage == 0.5
        assert config.max_groups == 3

    def test_cache_key_is_hashable_and_distinguishes_configs(self):
        first = MiningConfig()
        second = MiningConfig(max_groups=4)
        assert hash(first.cache_key())
        assert first.cache_key() != second.cache_key()
        assert first.cache_key() == MiningConfig().cache_key()


class TestOtherConfigs:
    def test_viz_config_defaults(self):
        viz = VizConfig()
        assert viz.low_color.startswith("#")
        assert viz.high_color.startswith("#")
        assert viz.tile_size > 0

    def test_server_config_defaults(self):
        server = ServerConfig()
        assert server.cache_capacity > 0
        assert server.precompute_top_items > 0

    @pytest.mark.parametrize("backend", ["threaded", "sharded", "fleet"])
    def test_server_config_rejects_unknown_mining_backends(self, backend):
        with pytest.raises(ConstraintError):
            ServerConfig(mining_backend=backend)

    def test_pipeline_config_bundles_defaults(self):
        pipeline = PipelineConfig()
        assert isinstance(pipeline.mining, MiningConfig)
        assert isinstance(pipeline.viz, VizConfig)
        assert isinstance(pipeline.server, ServerConfig)


class TestErrorHierarchy:
    @pytest.mark.parametrize(
        "error_class",
        [DataError, SchemaError, GeoError, QueryError, MiningError, ServerError],
    )
    def test_all_errors_derive_from_the_base_class(self, error_class):
        assert issubclass(error_class, MapRatError)

    def test_query_syntax_error_carries_the_position(self):
        error = QuerySyntaxError("bad token", position=7)
        assert error.position == 7

    def test_server_error_carries_the_http_status(self):
        assert ServerError("missing", status=404).status == 404
        assert ServerError("bad").status == 400
