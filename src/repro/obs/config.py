"""Environment-variable configuration for the observability layer.

Switches mirroring the CLI flags:

* ``REPRO_TRACE``   — print the span tree (as if ``--trace``);
* ``REPRO_METRICS`` — enable the metrics report (as if ``--metrics``);
* ``REPRO_PROFILE`` — print the ranked hotspot table (as if
  ``--profile``).

Values ``""``, ``"0"``, ``"false"``, ``"no"``, ``"off"`` (any case)
mean *off*; anything else means *on*.  CLI flags OR into the
environment settings — either source can enable a feature.
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

    @classmethod
    def from_env(cls, env: Optional[Mapping[str, str]] = None
                 ) -> "ObsConfig":
        env = os.environ if env is None else env
        return cls(trace=_truthy(env.get("REPRO_TRACE")),
                   metrics=_truthy(env.get("REPRO_METRICS")),
                   profile=_truthy(env.get("REPRO_PROFILE")))

    def with_flags(self, trace: bool = False, metrics: bool = False,
                   profile: bool = False) -> "ObsConfig":
        """OR command-line flags into the env-derived settings."""
        return ObsConfig(
            trace=self.trace or trace,
            metrics=self.metrics or metrics,
            profile=self.profile or profile)
