"""A failing Hypothesis test fails alone; the rest of the run goes on.

On a failing example Hypothesis's pytest plugin imports ``libcst``, which
imports the deprecated ``mypy_extensions.TypedDict``.  Under the project's
``filterwarnings``, whose first entry turns every warning into an error, that
warning would end the run in ``INTERNALERROR``, so the settings ignore it
alone.  The run here happens in a subprocess, under a copy of the project's
``pyproject.toml``; it needs ``libcst``, without which the warning never
arises.
"""

import importlib.util
from pathlib import Path

import pytest

pytest_plugins = ["pytester"]

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"


@pytest.mark.skipif(importlib.util.find_spec("libcst") is None, reason="libcst is not installed")
def test_failing_hypothesis_test_does_not_abort_the_run(pytester):
    pytester.makefile(".toml", pyproject=PYPROJECT.read_text(encoding="utf-8"))
    pytester.makepyfile(
        test_fails="""
        from hypothesis import given, strategies as st

        @given(st.integers())
        def test_fails(x):
            assert x < 0

        def test_passes():
            pass
        """
    )
    result = pytester.runpytest_subprocess("-p", "no:cacheprovider", "test_fails.py")
    assert "INTERNALERROR" not in result.stdout.str() + result.stderr.str()
    result.assert_outcomes(failed=1, passed=1)
