"""Schedulers for running SYNL worlds outside the model checker."""

from __future__ import annotations

import random
from typing import Optional

from repro.interp.interp import Interp, run
from repro.interp.state import World


class RoundRobin:
    """Cycle through enabled threads in tid order."""

    def __init__(self) -> None:
        self.last = -1

    def __call__(self, world: World, enabled: list[int]) -> int:
        for tid in enabled:
            if tid > self.last:
                self.last = tid
                return tid
        self.last = enabled[0]
        return enabled[0]


class RandomScheduler:
    """Uniform random choice among enabled threads (seeded)."""

    def __init__(self, seed: int = 0):
        self.rng = random.Random(seed)

    def __call__(self, world: World, enabled: list[int]) -> int:
        return self.rng.choice(enabled)


def run_random(interp: Interp, world: World, seed: int = 0,
               max_steps: int = 100_000,
               path_log: Optional[list] = None) -> World:
    return run(interp, world, RandomScheduler(seed), max_steps,
               path_log=path_log)


def run_round_robin(interp: Interp, world: World,
                    max_steps: int = 100_000,
                    path_log: Optional[list] = None) -> World:
    return run(interp, world, RoundRobin(), max_steps,
               path_log=path_log)
