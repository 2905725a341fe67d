"""The test session's own settings: a failure is reported, not fatal."""

from __future__ import annotations

from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def test_failing_property_test_leaves_the_session_running(pytester):
    # under "error" warnings, writing hypothesis's failure patch used to end
    # the session in INTERNALERROR before the passing test ran
    pytester.makepyprojecttoml(PYPROJECT.read_text())
    path = pytester.makepyfile(
        """
        from hypothesis import given, strategies as st

        @given(st.integers())
        def test_fails(x):
            assert x < 10

        def test_passes():
            pass
        """
    )
    result = pytester.runpytest_subprocess(path)
    output = result.stdout.str() + result.stderr.str()
    assert "INTERNALERROR" not in output
    result.assert_outcomes(failed=1, passed=1)
