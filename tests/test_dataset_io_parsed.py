"""Every test of test_dataset_io that takes the `dataset_path` fixture,
run again on a file saved without its column sidecar: there a fresh save
loads from the sidecar, here each load parses the file, so the round
trips and errors those tests check hold on both paths."""

import inspect

import pytest

import test_dataset_io
from test_dataset_io import bundle, saved_path, sidecar  # noqa: F401


@pytest.fixture()
def dataset_path(saved_path):
    sidecar(saved_path).unlink()
    return saved_path


globals().update({
    name: test for name, test in vars(test_dataset_io).items()
    if name.startswith("test_")
    and "dataset_path" in inspect.signature(test).parameters})
