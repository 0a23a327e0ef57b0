"""Spec for the config: scope patterns and the shape of the defaults."""

from repro.analysis.config import AnalysisConfig, module_matches


class TestModuleMatches:
    def test_wildcard_covers_package_and_submodules(self):
        assert module_matches("repro.engine", ("repro.engine.*",))
        assert module_matches("repro.engine.sweep", ("repro.engine.*",))
        assert not module_matches("repro.fleet.engine", ("repro.engine.*",))

    def test_exact_pattern_is_exact(self):
        assert module_matches("repro.fleet.prediction", ("repro.fleet.prediction",))
        assert not module_matches(
            "repro.fleet.prediction_v2", ("repro.fleet.prediction",)
        )


class TestDefaults:
    """The defaults are the linter's whole contract, so their shape is
    checked here: a typoed entry would silently widen nothing."""

    def test_every_streaming_scope_names_a_class(self):
        for spec in AnalysisConfig().streaming_classes:
            module, _, cls = spec.partition(":")
            assert module.startswith("repro.") and cls.isidentifier(), spec

    def test_every_bounded_attr_is_qualified_by_a_scoped_class(self):
        config = AnalysisConfig()
        scoped = {spec.partition(":")[2] for spec in config.streaming_classes}
        for entry in config.streaming_bounded_attrs:
            cls, _, attr = entry.partition(".")
            assert cls in scoped and attr.isidentifier(), entry
