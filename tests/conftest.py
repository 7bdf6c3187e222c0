"""Shared fixtures."""

import types

import pytest

from isosoliton import classifier


@pytest.fixture
def fake_pool(monkeypatch):
    """Replace the sweep's process pool by one that maps in this process, so
    no worker process starts.

    Returns a record with the pool sizes asked for (``sizes``) and the seed
    blocks handed to the pool, in task order (``blocks``).  Each task must be
    one block of at most ``LOCKSTEP_MAX_SEEDS`` seeds.
    """
    record = types.SimpleNamespace(sizes=[], blocks=[])

    class FakePool:
        def __init__(self, max_workers):
            record.sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, jobs):
            jobs = list(jobs)
            for _p, seeds, _cfg, _tol in jobs:
                assert 0 < len(seeds) <= classifier.LOCKSTEP_MAX_SEEDS
                record.blocks.append(list(seeds))
            return map(fn, jobs)

    monkeypatch.setattr(classifier, "ProcessPoolExecutor", FakePool)
    return record
