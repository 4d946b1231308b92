"""S005 numpy-guard: no top-level numpy import outside the guarded
columnar backend (the no-numpy CI leg depends on it)."""

from analysisutil import run_analysis
from lintutil import assert_clean, assert_fires

from repro.analysis.diagnostics import Severity


class TestS005:
    def test_unguarded_top_level_import_fires(self, tmp_path):
        report = run_analysis(tmp_path, {
            "src/repro/compute/fancy.py": """
                import numpy as np

                def mean(xs):
                    return np.mean(xs)
            """,
        }, rules=["S005"])
        findings = assert_fires(report, "S005", count=1,
                                severity=Severity.ERROR,
                                contains="unguarded")
        assert findings[0].line == 2

    def test_guarded_import_outside_backend_fires(self, tmp_path):
        report = run_analysis(tmp_path, {
            "src/repro/engine/fast.py": """
                try:
                    import numpy as np
                except ImportError:
                    np = None
            """,
        }, rules=["S005"])
        assert_fires(report, "S005", count=1,
                     contains="outside the guarded columnar backend")

    def test_guard_not_catching_import_error_fires(self, tmp_path):
        report = run_analysis(tmp_path, {
            "src/repro/compute/columnar/batch.py": """
                try:
                    import numpy as np
                except ValueError:
                    np = None
            """,
        }, rules=["S005"])
        assert_fires(report, "S005", count=1,
                     contains="does not catch ImportError")

    def test_guarded_backend_import_is_clean(self, tmp_path):
        report = run_analysis(tmp_path, {
            "src/repro/compute/columnar/batch.py": """
                try:
                    import numpy as np
                except ImportError:
                    np = None
            """,
        }, rules=["S005"])
        assert_clean(report, "S005")

    def test_function_local_import_is_clean(self, tmp_path):
        # lazy imports inside functions never break module import
        report = run_analysis(tmp_path, {
            "src/repro/bench.py": """
                def maybe():
                    import numpy
                    return numpy
            """,
        }, rules=["S005"])
        assert_clean(report, "S005")
