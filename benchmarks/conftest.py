"""Benchmark harness helpers: each benchmark regenerates one table or
figure of the paper and saves the rendered report under
``benchmarks/out/`` (also echoed with ``-s``)."""

from __future__ import annotations

import pathlib

import pytest

OUT_DIR = pathlib.Path(__file__).parent / "out"


@pytest.fixture
def report_sink():
    OUT_DIR.mkdir(exist_ok=True)

    def save(name: str, text: str) -> None:
        (OUT_DIR / f"{name}.txt").write_text(text + "\n")
        print(f"\n{text}\n")

    return save
