"""Shared fixtures: corpus analyses are session-cached (each full
inference run costs ~a second)."""

from __future__ import annotations

import pytest

from repro import corpus
from repro.analysis import analyze_program


@pytest.fixture(scope="session")
def nfq_prime_analysis():
    return analyze_program(corpus.NFQ_PRIME)


@pytest.fixture(scope="session")
def nfq_analysis():
    return analyze_program(corpus.NFQ)


@pytest.fixture(scope="session")
def herlihy_analysis():
    return analyze_program(corpus.HERLIHY_SMALL)


@pytest.fixture(scope="session")
def gh1_analysis():
    return analyze_program(corpus.GH_PROGRAM1)


@pytest.fixture(scope="session")
def allocator_analysis():
    return analyze_program(corpus.ALLOCATOR)


@pytest.fixture(scope="session")
def treiber_analysis():
    return analyze_program(corpus.TREIBER_STACK)
