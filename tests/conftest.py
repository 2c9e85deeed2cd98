"""Shared pytest configuration: test tiers and Hypothesis profiles.

The suite is split into two tiers:

- **tier 1** (the default ``python -m pytest -x -q``): fast functional
  and statistical checks; targets well under 60 seconds wall time.
- **slow tier** (``--runslow``): heavy Hypothesis sweeps, large
  statistical sample counts, and exact-enumeration checks that take
  minutes.  Tests opt in with ``@pytest.mark.slow``.

``--runslow`` also switches Hypothesis to the ``thorough`` profile
(400 examples instead of 60), so the slow tier doubles as the
high-assurance configuration; ``HYPOTHESIS_PROFILE`` still overrides.

The suite is hermetic against ambient ``ZAR_*`` variables: they are
all dropped at start-up, before any process-wide compile cache, kernel
store, tuner or telemetry sink reads them.  A test that needs one sets
it with ``monkeypatch``; a run that needs one for every test (the CI
legs exercising a degraded native environment) passes
``--zar-env NAME=VALUE``.
"""

import os

import pytest
from hypothesis import HealthCheck, settings

settings.register_profile(
    "default",
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.register_profile(
    "thorough",
    max_examples=400,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def pytest_addoption(parser):
    parser.addoption(
        "--runslow",
        action="store_true",
        default=False,
        help="run the slow tier (and the thorough Hypothesis profile)",
    )
    parser.addoption(
        "--zar-env",
        action="append",
        default=[],
        metavar="NAME=VALUE",
        help="set a ZAR_* variable for the whole run, after the ambient "
        "ones are dropped (repeatable)",
    )


def _hermetic_zar_env(assignments):
    """Drop every ambient ``ZAR_*`` variable, then apply ``assignments``."""
    for name in [name for name in os.environ if name.startswith("ZAR_")]:
        del os.environ[name]
    for assignment in assignments:
        name, sep, value = assignment.partition("=")
        if not sep or not name.startswith("ZAR_"):
            raise pytest.UsageError(
                "--zar-env expects ZAR_NAME=VALUE, got %r" % assignment
            )
        os.environ[name] = value


def pytest_configure(config):
    _hermetic_zar_env(config.getoption("--zar-env"))
    # (the `slow` marker itself is registered in pyproject.toml)
    profile = os.environ.get(
        "HYPOTHESIS_PROFILE",
        "thorough" if config.getoption("--runslow") else "default",
    )
    settings.load_profile(profile)


def pytest_collection_modifyitems(config, items):
    if config.getoption("--runslow"):
        return
    skip_slow = pytest.mark.skip(reason="slow tier: pass --runslow to run")
    for item in items:
        if "slow" in item.keywords:
            item.add_marker(skip_slow)
