"""Control-flow graphs and dataflow analyses over SYNL procedures."""

from repro.cfg.builder import (
    CFGBuilder,
    build_cfg,
    build_stmt_cfg,
    normal_iteration_nodes,
)
from repro.cfg.dataflow import Problem, Solution, solve
from repro.cfg.graph import CFGNode, Edge, LoopInfo, NodeKind, ProcCFG

__all__ = [
    "CFGBuilder",
    "build_cfg",
    "build_stmt_cfg",
    "normal_iteration_nodes",
    "Problem",
    "Solution",
    "solve",
    "CFGNode",
    "Edge",
    "LoopInfo",
    "NodeKind",
    "ProcCFG",
]
