"""Shared pytest plumbing for the test suite."""

import pytest

from repro.core import engine


def pytest_addoption(parser):
    parser.addoption(
        "--regen-golden",
        action="store_true",
        default=False,
        help="rewrite the golden trace files instead of comparing to them",
    )


@pytest.fixture
def regen_golden(request):
    """True when the run should regenerate golden files."""
    return request.config.getoption("--regen-golden")


@pytest.fixture(autouse=True, scope="module")
def fresh_measurements(tmp_path_factory):
    """Measure every cell of each test module into an empty cache.

    Measurement keys do not cover compiler, simulation or kernel
    source, so cells left in ``./.cache/measurements`` by older code
    could otherwise pass shape checks; and a test run must leave no
    files in the checkout.  Profiles stay on the committed files.
    """
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(
            engine, "DEFAULT_DIR", tmp_path_factory.mktemp("measurements")
        )
        engine.reset_default_engine()
        yield
        engine.reset_default_engine()
