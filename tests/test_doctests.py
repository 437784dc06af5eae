"""Run the doctest examples embedded in public docstrings."""

import doctest

import pytest

import repro.common.bitmem
import repro.common.hashing
import repro.core.hypersistent
import repro.core.sliding
import repro.obs.profiler
import repro.streams.ingest
import repro.streams.model

MODULES = [
    repro.common.hashing,
    repro.common.bitmem,
    repro.core.hypersistent,
    repro.core.sliding,
    repro.obs.profiler,
    repro.streams.ingest,
    repro.streams.model,
]


@pytest.mark.parametrize("module", MODULES,
                         ids=lambda m: m.__name__)
def test_module_doctests(module):
    result = doctest.testmod(module, verbose=False)
    assert result.failed == 0
    assert result.attempted > 0  # the module really has examples
