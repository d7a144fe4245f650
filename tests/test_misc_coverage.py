"""Miscellaneous coverage: experiment helpers, errors hierarchy,
kernel input-scaling, and the remaining small surfaces."""

import pytest

from repro import errors


class TestErrorHierarchy:
    def test_all_errors_derive_from_base(self):
        subclasses = [
            errors.CompileError, errors.VerificationError, errors.StyleError,
            errors.UnknownVariableError, errors.SearchBudgetExceeded,
            errors.HarnessConfigError, errors.PluginError,
            errors.BenchmarkNotFound,
        ]
        for exc in subclasses:
            assert issubclass(exc, errors.MixPBenchError)

    def test_catchall(self):
        with pytest.raises(errors.MixPBenchError):
            raise errors.CompileError("split cluster")


class TestTableFormattingHelpers:
    def test_quality_nano_units(self):
        from repro.experiments.table3 import _quality_nano
        assert _quality_nano(0.0) == "0.0"
        assert _quality_nano(9.94e-9) == "9.94"
        assert _quality_nano(1.13e-9) == "1.13"
        assert _quality_nano(float("nan")) == "-"
        assert _quality_nano(None) == "-"

    def test_paper_quality_column_roundtrip(self):
        """Our renderer prints Table III qualities in the same units
        the paper's header declares (1e-9)."""
        from repro.experiments.table3 import _quality_nano
        from repro.experiments.paper_data import TABLE3_QUALITY
        for values in TABLE3_QUALITY.values():
            for value in values:
                rendered = _quality_nano(value * 1e-9)
                assert float(rendered.replace("-", "0") or 0) >= 0


class TestKernelInputScaling:
    @pytest.mark.parametrize("name, small_inputs", [
        ("hydro-1d", {"n": 500, "steps": 2}),
        ("eos", {"n": 100, "steps": 1}),
        ("tridiag", {"n": 64, "passes": 1}),
        ("iccg", {"n": 1024, "passes": 1}),
        ("gen-lin-recur", {"n": 128, "levels": 2}),
        ("diff-predictor", {"n": 1000, "order": 2}),
        ("banded-lin-eq", {"n": 1000, "sweeps": 1}),
        ("int-predict", {"n": 500, "steps": 1}),
        ("planckian", {"n": 200, "steps": 1}),
        ("innerprod", {"n": 256, "chunks": 4, "self_product": False}),
    ])
    def test_kernels_run_at_any_size(self, name, small_inputs):
        """The kernels are parametric in their problem size — a suite
        usability requirement for users with different budgets."""
        import numpy as np
        from repro.benchmarks.base import get_benchmark
        from repro.core.types import PrecisionConfig
        bench = get_benchmark(name)
        result = bench.execute(PrecisionConfig(), inputs=bench.setup(**small_inputs))
        assert np.all(np.isfinite(result.output))
        assert result.modeled_seconds > 0

    def test_innerprod_self_product_branch(self):
        """The aliasing fast path (x = z) must compute x·x exactly."""
        import numpy as np
        from repro.benchmarks.base import get_benchmark
        from repro.core.types import PrecisionConfig
        bench = get_benchmark("innerprod")
        inputs = dict(bench.inputs(), self_product=True)
        result = bench.execute(PrecisionConfig(), inputs=inputs)
        assert float(result.output[0]) > 0  # a sum of squares


class TestVersionsAndMetadata:
    def test_pyproject_and_package_version_agree(self):
        import tomllib
        from pathlib import Path
        import repro
        pyproject = tomllib.loads(
            (Path(repro.__file__).parents[2] / "pyproject.toml").read_text()
        )
        assert pyproject["project"]["version"] == repro.__version__

    def test_console_scripts_declared(self):
        import tomllib
        from pathlib import Path
        import repro
        pyproject = tomllib.loads(
            (Path(repro.__file__).parents[2] / "pyproject.toml").read_text()
        )
        scripts = pyproject["project"]["scripts"]
        assert scripts["mixpbench"] == "repro.harness.cli:main"
        assert scripts["mixpbench-experiments"] == "repro.experiments.runner:main"


class TestDocumentationShipped:
    @pytest.mark.parametrize("name", [
        "README.md", "DESIGN.md", "EXPERIMENTS.md",
        "docs/mpb-style.md", "docs/machine-model.md",
        "docs/search-algorithms.md", "docs/harness.md", "docs/tutorial.md",
    ])
    def test_document_exists_and_is_substantial(self, name):
        from pathlib import Path
        import repro
        root = Path(repro.__file__).parents[2]
        path = root / name
        assert path.exists(), name
        assert len(path.read_text()) > 1500, name

    def test_design_references_every_table_and_figure(self):
        from pathlib import Path
        import repro
        root = Path(repro.__file__).parents[2]
        design = (root / "DESIGN.md").read_text()
        for artifact in ("Table I", "Table II", "Table III", "Table IV",
                         "Table V", "Fig 2a", "Fig 2b", "Fig 3"):
            assert artifact in design, artifact
