"""Shared fixtures: corpus analyses are session-cached (each full
inference run costs ~a second), and the default summary store is
pointed at a per-test temporary directory so CLI invocations from the
suite (``analyze --corpus``, ``--incremental``) never write into the
checkout's ``.repro/summaries``."""

from __future__ import annotations

import pytest

from repro import corpus
from repro.analysis import analyze_program
from repro.analysis.summaries import engine as summaries_engine


@pytest.fixture(autouse=True)
def _isolated_summary_store(tmp_path, monkeypatch):
    monkeypatch.setattr(summaries_engine, "DEFAULT_STORE_DIR",
                        str(tmp_path / "default-summaries"))


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
