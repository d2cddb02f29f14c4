"""Test-session settings shared by every test module."""

import tempfile
from pathlib import Path


def pytest_configure(config):
    # Even with database=None, hypothesis caches the constants of the
    # source files it imports, under ./.hypothesis, while collecting.  Keep
    # that cache in the temp directory rather than the working tree.
    try:
        from hypothesis.configuration import set_hypothesis_home_dir
    except ImportError:
        return
    set_hypothesis_home_dir(Path(tempfile.gettempdir()) / "gaze3d-hypothesis")
