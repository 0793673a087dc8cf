"""Environment-variable configuration for the observability layer.

Switches mirroring the CLI flags:

* ``REPRO_TRACE``   — print the span tree (as if ``--trace``);
* ``REPRO_METRICS`` — enable the metrics report (as if ``--metrics``);
* ``REPRO_PROFILE`` — print the ranked hotspot table (as if
  ``--profile``).

Values ``""``, ``"0"``, ``"false"``, ``"no"``, ``"off"`` (any case)
mean *off*; anything else means *on*.  CLI flags OR into the
environment settings — either source can enable a feature.

The persistent run ledger (:mod:`repro.obs.ledger`) is the one
default-*on* surface: ``REPRO_LEDGER=0`` disables recording, and
``REPRO_LEDGER_DIR`` moves the ledger root away from the default
``.repro/runs``.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Mapping, Optional

_FALSY = {"", "0", "false", "no", "off"}


def _truthy(value: Optional[str]) -> bool:
    return value is not None and value.strip().lower() not in _FALSY


@dataclass
class ObsConfig:
    """Resolved observability switches."""

    trace: bool = False
    metrics: bool = False
    profile: bool = False
    #: persistent run ledger (default ON; REPRO_LEDGER=0 disables)
    ledger: bool = True
    #: ledger root directory (REPRO_LEDGER_DIR overrides)
    ledger_dir: str = ".repro/runs"

    @classmethod
    def from_env(cls, env: Optional[Mapping[str, str]] = None
                 ) -> "ObsConfig":
        env = os.environ if env is None else env
        raw_ledger = env.get("REPRO_LEDGER")
        return cls(trace=_truthy(env.get("REPRO_TRACE")),
                   metrics=_truthy(env.get("REPRO_METRICS")),
                   profile=_truthy(env.get("REPRO_PROFILE")),
                   ledger=True if raw_ledger is None
                   else _truthy(raw_ledger),
                   ledger_dir=env.get("REPRO_LEDGER_DIR")
                   or ".repro/runs")

    def with_flags(self, trace: bool = False, metrics: bool = False,
                   profile: bool = False) -> "ObsConfig":
        """OR command-line flags into the env-derived settings."""
        return ObsConfig(
            trace=self.trace or trace,
            metrics=self.metrics or metrics,
            profile=self.profile or profile,
            ledger=self.ledger,
            ledger_dir=self.ledger_dir)
