"""Public-API integrity: exports exist, are documented, and don't drift."""

from __future__ import annotations

import importlib
import inspect

import pytest

import repro

PACKAGES = [
    "repro",
    "repro.core",
    "repro.cache",
    "repro.hier",
    "repro.reshard",
    "repro.simgpu",
    "repro.comm",
    "repro.dlrm",
    "repro.bench",
]


@pytest.mark.parametrize("pkg_name", PACKAGES)
class TestExports:
    def test_all_symbols_resolve(self, pkg_name):
        pkg = importlib.import_module(pkg_name)
        for name in pkg.__all__:
            assert hasattr(pkg, name), f"{pkg_name}.__all__ lists missing {name!r}"

    def test_all_is_sorted_unique(self, pkg_name):
        pkg = importlib.import_module(pkg_name)
        assert len(set(pkg.__all__)) == len(pkg.__all__), f"{pkg_name}: duplicate exports"

    def test_module_docstring(self, pkg_name):
        pkg = importlib.import_module(pkg_name)
        assert pkg.__doc__ and len(pkg.__doc__) > 40

    def test_public_classes_and_functions_documented(self, pkg_name):
        pkg = importlib.import_module(pkg_name)
        undocumented = []
        for name in pkg.__all__:
            obj = getattr(pkg, name)
            if inspect.isclass(obj) or inspect.isfunction(obj):
                if not (obj.__doc__ and obj.__doc__.strip()):
                    undocumented.append(f"{pkg_name}.{name}")
        assert not undocumented, f"missing docstrings: {undocumented}"


class TestPublicClassMethods:
    def test_core_entry_points_have_documented_methods(self):
        from repro.core import DistributedEmbedding
        from repro.simgpu import Engine

        for cls in (DistributedEmbedding, Engine):
            for name, member in inspect.getmembers(cls, inspect.isfunction):
                if name.startswith("_"):
                    continue
                assert member.__doc__, f"{cls.__name__}.{name} lacks a docstring"


class TestReshardSurface:
    """Pin the resharding package's exports and the factory surface the
    API redesign introduced — additions are fine, silent removals break
    downstream code."""

    def test_reshard_all_pinned(self):
        import repro.reshard as reshard

        assert set(reshard.__all__) >= {
            "LoadTracker",
            "MigrationPlan",
            "ReshardExecutor",
            "ReshardPlanner",
            "ReshardRetrieval",
            "ReshardSpec",
            "RowSplitAdvisory",
            "TableMove",
        }

    def test_core_factory_surface(self):
        from repro.core import (  # noqa: F401
            CANONICAL_FEATURE_ORDER,
            FeatureSpec,
            build_backend,
            parse_backend_name,
        )

        assert len(CANONICAL_FEATURE_ORDER) == 6

    def test_distributed_embedding_takes_features(self):
        from repro.core import DistributedEmbedding

        sig = inspect.signature(DistributedEmbedding.__init__)
        assert "features" in sig.parameters
        # The deprecated per-feature kwargs completed their one-release
        # deprecation cycle and are gone; ``features=`` is the only path.
        for legacy in ("cache", "resilience", "compression",
                       "replication", "obs"):
            assert legacy not in sig.parameters

    def test_top_level_reexports(self):
        for name in ("FeatureSpec", "build_backend", "ReshardRetrieval",
                     "ReshardSpec"):
            assert hasattr(repro, name)
            assert name in repro.__all__


class TestVersioning:
    def test_version_string(self):
        assert isinstance(repro.__version__, str)
        parts = repro.__version__.split(".")
        assert len(parts) == 3 and all(p.isdigit() for p in parts)


class TestModuleLevelSelfCheck:
    def test_library_self_verification(self):
        """The shipped self-audit passes on a fresh install."""
        from repro.core import verify_backend_equivalence
        from repro.dlrm import WorkloadConfig

        report = verify_backend_equivalence(
            WorkloadConfig(num_tables=4, rows_per_table=30, dim=8,
                           batch_size=16, max_pooling=3),
            2,
            n_batches=1,
        )
        assert report.batches_checked == 1
