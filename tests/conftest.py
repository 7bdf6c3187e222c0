"""Shared fixtures."""

import pytest

from isosoliton import classifier


@pytest.fixture
def fake_pool(monkeypatch):
    """Replace the sweep's process pool by one that maps in this process, so
    no worker process starts; returns the list of pool sizes asked for."""
    sizes = []

    class FakePool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, jobs, chunksize):
            assert chunksize == 8
            return map(fn, jobs)

    monkeypatch.setattr(classifier, "ProcessPoolExecutor", FakePool)
    return sizes
