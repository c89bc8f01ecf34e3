"""The suite's pytest setup must report a failing property, not abort."""
import shutil
import subprocess
import sys
from pathlib import Path

FAILING_PROPERTY = '''\
from hypothesis import given, strategies as st


@given(st.integers())
def test_deliberately_failing_property(n):
    assert n < 0
'''


def test_failing_property_reports_as_failed(tmp_path):
    """The suite's conftest and warnings-as-errors, run on one property that fails.

    pytest runs in tmp_path, so hypothesis writes its .hypothesis/patches there.
    """
    shutil.copy(Path(__file__).with_name("conftest.py"), tmp_path)
    (tmp_path / "pyproject.toml").write_text('[tool.pytest.ini_options]\nfilterwarnings = ["error"]\n')
    (tmp_path / "test_property.py").write_text(FAILING_PROPERTY)
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    out = run.stdout + run.stderr
    assert run.returncode == 1, out
    assert "FAILED test_property.py::test_deliberately_failing_property" in out
    assert "INTERNALERROR" not in out
