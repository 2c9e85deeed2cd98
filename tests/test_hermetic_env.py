"""Tier 1 runs with no ambient ``ZAR_*`` configuration (see conftest)."""

import os


def test_no_ambient_zar_variables(pytestconfig):
    passed = {
        assignment.partition("=")[0]
        for assignment in pytestconfig.getoption("--zar-env")
    }
    ambient = sorted(
        name for name in os.environ
        if name.startswith("ZAR_") and name not in passed
    )
    assert ambient == []
