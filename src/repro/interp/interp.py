"""Small-step interpreter for SYNL with LL/SC/VL, CAS and monitors.

Transition granularity is one CFG node (one statement / branch test),
the usual statement granularity of explicit-state model checkers; all
reads/writes inside a node happen in one transition.

Synchronization semantics (§3.1):

* ``LL(addr)`` returns the contents and takes a reservation;
* ``SC(addr, v)`` succeeds iff the thread's reservation on ``addr`` is
  intact; success stores ``v``.  Any store to ``addr`` by *another*
  thread invalidates reservations (we invalidate on all stores, the
  conservative hardware behaviour; the paper's statement — only
  successful SCs invalidate — is equivalent under its SC-only-updates
  assumption);
* ``VL(addr)`` tests the reservation without writing;
* ``CAS(addr, exp, new)`` compares and swaps.  Every read records the
  address's modification counter; a CAS whose target location is
  declared ``versioned`` also requires the counter to be unchanged —
  the modification-counter ABA defence of §5.2.  Undeclared CAS targets
  get raw compare-and-swap, so the ABA problem is demonstrable.
* ``synchronized`` uses Java monitor semantics (re-entrant; acquire
  blocks, making the transition disabled).
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.cfg.builder import build_cfg, build_stmt_cfg
from repro.cfg.graph import CFGNode, NodeKind, ProcCFG
from repro.errors import AssertionViolation, InterpError
from repro.interp.state import Addr, Event, Frame, Thread, ThreadSpec, World
from repro.interp.values import Heap, Ref, Value, default_primitives
from repro.synl import ast as A
from repro.synl.resolve import load_program


class AssumeFailed(InterpError):
    """A TRUE(e) statement evaluated to false (used by the model
    checker's atomic-variant mode to mark a variant as disabled)."""


class Interp:
    """Interpreter for one resolved program (shared, immutable); worlds
    carry all mutable state."""

    def __init__(self, program: A.Program | str,
                 primitives: Optional[dict] = None,
                 extra_procs: Optional[list[A.Procedure]] = None):
        if isinstance(program, str):
            program = load_program(program)
        self.program = program
        self.primitives = default_primitives()
        if primitives:
            self.primitives.update(primitives)
        self.cfgs: dict[str, ProcCFG] = {
            p.name: build_cfg(p) for p in program.procs}
        for proc in extra_procs or []:
            self.cfgs[proc.name] = build_cfg(proc)
            self._extra = True
        self.consts: dict[str, Value] = {
            c.name: c.value.value for c in program.consts}
        self.versioned_globals = program.versioned_names()
        self.proc_params: dict[str, list[int]] = {}
        for p in program.procs:
            self.proc_params[p.name] = [
                p.param_bindings[name] for name in p.params]
        for proc in extra_procs or []:
            self.proc_params[proc.name] = [
                proc.param_bindings[name] for name in proc.params]
        #: node uid -> :meth:`_node_is_local`, filled on first use
        self._local: dict[int, bool] = {}

    # -- world construction ----------------------------------------------------
    def make_world(self, specs: list[ThreadSpec]) -> World:
        world = World()
        for decl in self.program.globals:
            world.globals[decl.name] = None
        boot = Thread(tid=-1, spec=ThreadSpec(()))
        for decl in self.program.globals:
            if decl.init is not None:
                world.globals[decl.name] = self._eval(
                    world, boot, decl.init)
        if self.program.init is not None:
            self._run_block(world, boot, "init", self.program.init)
        for tid, spec in enumerate(specs):
            thread = Thread(tid=tid, spec=spec)
            for decl in self.program.threadlocals:
                thread.threadlocals[decl.name] = (
                    self._eval(world, thread, decl.init)
                    if decl.init is not None else None)
            if self.program.threadinit is not None:
                self._run_block(world, thread, "threadinit",
                                self.program.threadinit)
            world.add_thread(thread)
        world.history.clear()
        world._seq = 0
        return world

    def _run_block(self, world: World, thread: Thread, name: str,
                   block: A.Block) -> None:
        cfg = build_stmt_cfg(name, block)
        saved_frame, saved_op = thread.frame, thread.op_index
        thread.frame = Frame(name, cfg, self._first_node(cfg))
        budget = 100_000
        while thread.frame is not None and budget > 0:
            self.step(world, thread.tid if thread.tid >= 0 else None,
                      thread=thread)
            budget -= 1
        if budget == 0:
            raise InterpError(f"{name} block did not terminate")
        thread.frame, thread.op_index = saved_frame, saved_op

    @staticmethod
    def _first_node(cfg: ProcCFG) -> Optional[CFGNode]:
        succs = list(cfg.successors(cfg.entry))
        return succs[0] if succs else None

    # -- scheduling interface -----------------------------------------------------
    def enabled(self, world: World, tid: int) -> bool:
        thread = world.threads[tid]
        if thread.done:
            return False
        frame = thread.frame
        if frame is None:
            return True  # can invoke the next operation
        node = frame.node
        if node is None:
            return True
        if node.kind is NodeKind.ACQUIRE:
            if not isinstance(node.expr, (A.Var, A.Const)):
                # evaluating a field or element lock's base records
                # its reads: they go to this world's own copy
                thread = world.own_thread(tid)
            lock = self._peek(world, thread, node.expr)
            if not isinstance(lock, Ref):
                raise InterpError(f"synchronized on non-object {lock!r}")
            owner = world.locks.get(lock.oid)
            return owner is None or owner[0] == thread.tid
        return True

    def _peek(self, world: World, thread: Thread, e: A.Expr) -> Value:
        """Evaluate a location expression without recording reads."""
        if isinstance(e, A.Const):
            return e.value
        if isinstance(e, (A.Var, A.Field, A.Index)):
            if isinstance(e, A.Var) and e.kind is A.VarKind.CONST:
                return self.consts[e.name]
            return self._load(world, thread, self._addr(world, thread, e))
        raise InterpError(
            f"lock expression must be a location, got {type(e).__name__}")

    def enabled_threads(self, world: World) -> list[int]:
        return [t.tid for t in world.threads if self.enabled(world, t.tid)]

    def begin_call(self, world: World, tid: int, name: str, args: tuple,
                   display: Optional[str] = None) -> Event:
        """Push a call frame directly (used by the model checker's
        atomic-variant mode to invoke a specific exceptional variant).
        ``display`` is the procedure name recorded in the history."""
        thread = world.own_thread(tid)
        if thread.frame is not None:
            raise InterpError(f"thread {tid} is mid-procedure")
        cfg = self.cfgs.get(name)
        if cfg is None:
            raise InterpError(f"unknown procedure {name!r}")
        frame = Frame(display or name, cfg, self._first_node(cfg),
                      args=tuple(args))
        params = self.proc_params.get(name, [])
        if len(params) != len(args):
            raise InterpError(
                f"{name} expects {len(params)} args, got {len(args)}")
        for binding, value in zip(params, args):
            frame.env[binding] = value
        thread.frame = frame
        return world.emit(Event("invoke", tid, display or name,
                                tuple(args)))

    # -- thread-local steps ---------------------------------------------------
    def local_step(self, thread: Thread) -> bool:
        """Does ``thread``'s next step read and write nothing but its
        own frame, thread-locals and reservations?  Then it is a
        both-mover whose outcome, successor thread and event alike,
        is a function of the thread alone, whatever world holds it.
        Invoking and returning qualify, and so do the nodes
        :meth:`_node_is_local` accepts."""
        frame = thread.frame
        if frame is None:
            return True
        node = frame.node
        if node is None:
            return True
        local = self._local.get(node.uid)
        if local is None:
            local = self._local[node.uid] = self._node_is_local(node)
        return local

    @staticmethod
    def _node_is_local(node: CFGNode) -> bool:
        """Is every action of ``node`` (§3.3, :func:`node_actions`) a
        plain read or write of a local, parameter or thread-local, or
        a ``VL`` test of the thread's own reservation?  Control nodes
        have no actions.  Globals, fields, elements, allocation, LL,
        SC, CAS and lock operations fail."""
        # imported on first use: loading repro.analysis costs ~50 ms
        # that a plain interpreter run does not need
        from repro.analysis.actions import node_actions

        return all(a.via == "VL" or (a.via == "plain"
                                     and a.op in ("read", "write")
                                     and a.target.kind == "var")
                   for a in node_actions(node))

    # -- the step function ----------------------------------------------------------
    def step(self, world: World, tid: Optional[int],
             thread: Optional[Thread] = None) -> Optional[Event]:
        """Execute one transition of thread ``tid`` of ``world``, or of
        ``thread`` when given (a thread outside ``world.threads``, run
        by ``init``/``threadinit``).  Returns the history event
        produced, if any."""
        if thread is None:
            assert tid is not None
            thread = world.own_thread(tid)
        if thread.done:
            raise InterpError(f"thread {thread.tid} is done")
        thread.steps += 1

        if thread.frame is None:
            name, args = thread.current_call()
            cfg = self.cfgs.get(name)
            if cfg is None:
                raise InterpError(f"unknown procedure {name!r}")
            frame = Frame(name, cfg, self._first_node(cfg), args=args)
            params = self.proc_params.get(name, [])
            if len(params) != len(args):
                raise InterpError(
                    f"{name} expects {len(params)} args, got {len(args)}")
            for binding, value in zip(params, args):
                frame.env[binding] = value
            thread.frame = frame
            return world.emit(Event("invoke", thread.tid, name, args))

        frame = thread.frame
        node = frame.node
        if node is None:
            return self._finish(world, thread, None)
        result = self._exec_node(world, thread, frame, node)
        return result

    def _finish(self, world: World, thread: Thread,
                value: Value) -> Optional[Event]:
        frame = thread.frame
        assert frame is not None
        thread.frame = None
        thread.op_index += 1
        if thread.tid < 0:
            return None
        return world.emit(Event("return", thread.tid, frame.proc_name,
                                frame.args, value))

    # -- node execution -----------------------------------------------------------
    def _exec_node(self, world: World, thread: Thread, frame: Frame,
                   node: CFGNode) -> Optional[Event]:
        kind = node.kind
        stmt = node.stmt

        if kind is NodeKind.BRANCH:
            value = self._eval(world, thread, node.expr)
            label = bool(value)
            return self._advance(world, thread, frame, node, label)

        if kind is NodeKind.BIND:
            assert isinstance(stmt, A.LocalDecl)
            frame.env[stmt.binding] = self._eval(world, thread, stmt.init)
        elif kind is NodeKind.STMT:
            if isinstance(stmt, A.Assign):
                value = self._eval(world, thread, stmt.value)
                self._write_location(world, thread, stmt.target, value)
            elif isinstance(stmt, A.Assume):
                if not self._eval(world, thread, stmt.cond):
                    raise AssumeFailed(
                        f"TRUE({type(stmt.cond).__name__}) failed")
            elif isinstance(stmt, A.AssertStmt):
                if not self._eval(world, thread, stmt.cond):
                    raise AssertionViolation(
                        "assertion failed", thread.tid, stmt.pos)
            elif isinstance(stmt, A.ExprStmt):
                self._eval(world, thread, stmt.expr)
            elif isinstance(stmt, A.Skip):
                pass
            else:  # pragma: no cover
                raise InterpError(f"bad stmt node {type(stmt).__name__}")
        elif kind is NodeKind.RETURN:
            assert isinstance(stmt, A.Return)
            value = (self._eval(world, thread, stmt.value)
                     if stmt.value is not None else None)
            return self._finish(world, thread, value)
        elif kind is NodeKind.ACQUIRE:
            lock = self._eval(world, thread, node.expr)
            assert isinstance(lock, Ref)
            owner = world.locks.get(lock.oid)
            if owner is None:
                world.locks[lock.oid] = (thread.tid, 1)
            elif owner[0] == thread.tid:
                world.locks[lock.oid] = (thread.tid, owner[1] + 1)
            else:
                raise InterpError(
                    f"thread {thread.tid} stepped into a held lock")
        elif kind is NodeKind.RELEASE:
            lock = self._eval(world, thread, node.expr)
            assert isinstance(lock, Ref)
            owner = world.locks.get(lock.oid)
            if owner is None or owner[0] != thread.tid:
                raise InterpError(
                    f"thread {thread.tid} released a lock it does not "
                    f"hold (IllegalMonitorState)")
            if owner[1] == 1:
                del world.locks[lock.oid]
            else:
                world.locks[lock.oid] = (thread.tid, owner[1] - 1)
        elif kind in (NodeKind.LOOP_HEAD, NodeKind.BREAK, NodeKind.CONTINUE,
                      NodeKind.ENTRY):
            pass
        else:  # pragma: no cover
            raise InterpError(f"cannot execute node kind {kind}")
        return self._advance(world, thread, frame, node, None)

    def _advance(self, world: World, thread: Thread, frame: Frame,
                 node: CFGNode, label: Optional[bool]) -> Optional[Event]:
        cfg = frame.cfg
        edges = cfg.out_edges(node)
        if label is None:
            targets = [e.dst for e in edges]
        else:
            targets = [e.dst for e in edges
                       if e.label is label
                       or (e.label == "back" and label is None)]
        if not targets:
            return self._finish(world, thread, None)
        if len(targets) > 1:  # pragma: no cover - builder invariant
            raise InterpError(f"ambiguous successor of {node!r}")
        nxt = targets[0]
        if nxt is cfg.exit:
            return self._finish(world, thread, None)
        frame.node = nxt
        return None

    # -- memory ---------------------------------------------------------------------
    def _addr(self, world: World, thread: Thread, loc: A.Expr) -> Addr:
        if isinstance(loc, A.Var):
            if loc.kind is A.VarKind.GLOBAL:
                return ("g", loc.name)
            if loc.kind is A.VarKind.THREADLOCAL:
                return ("t", thread.tid, loc.name)
            return ("l", thread.tid, loc.binding)
        if isinstance(loc, A.Field):
            base = self._eval(world, thread, loc.base)
            if not isinstance(base, Ref):
                raise InterpError(f"field access on {base!r}")
            return ("f", base.oid, loc.name)
        if isinstance(loc, A.Index):
            base = self._eval(world, thread, loc.base)
            index = self._eval(world, thread, loc.index)
            if not isinstance(base, Ref):
                raise InterpError(f"index access on {base!r}")
            return ("e", base.oid, index)
        raise InterpError(f"not a location: {type(loc).__name__}")

    def _load(self, world: World, thread: Thread, addr: Addr) -> Value:
        kind = addr[0]
        if kind == "g":
            return world.globals[addr[1]]
        if kind == "t":
            # thread-locals are only ever addressed by their own thread
            return thread.threadlocals[addr[2]]
        if kind == "l":
            return thread.frame.env.get(addr[2])
        if kind == "f":
            return world.heap.read_field(Ref(addr[1]), addr[2])
        if kind == "e":
            return world.heap.read_elem(Ref(addr[1]), addr[2])
        raise InterpError(f"bad address {addr!r}")

    def _store(self, world: World, thread: Thread, addr: Addr,
               value: Value) -> None:
        kind = addr[0]
        if kind == "g":
            world.globals[addr[1]] = value
        elif kind == "t":
            thread.threadlocals[addr[2]] = value
        elif kind == "l":
            thread.frame.env[addr[2]] = value
        elif kind == "f":
            world.heap.write_field(Ref(addr[1]), addr[2], value)
        elif kind == "e":
            world.heap.write_elem(Ref(addr[1]), addr[2], value)
        else:
            raise InterpError(f"bad address {addr!r}")
        if kind in ("g", "f", "e"):
            world.versions[addr] = world.versions.get(addr, 0) + 1
            for other in world.threads:
                if other.tid != thread.tid \
                        and other.reservations.get(addr):
                    world.own_thread(other.tid).reservations[addr] = False

    def _record_read(self, world: World, thread: Thread,
                     addr: Addr) -> None:
        if addr[0] in ("g", "f", "e"):
            thread.observed[addr] = world.versions.get(addr, 0)

    def _write_location(self, world: World, thread: Thread, loc: A.Expr,
                        value: Value) -> None:
        addr = self._addr(world, thread, loc)
        self._store(world, thread, addr, value)

    def _loc_versioned(self, world: World, thread: Thread,
                       loc: A.Expr) -> bool:
        """Is this CAS target under the modification-counter discipline?"""
        if isinstance(loc, A.Var):
            return loc.name in self.versioned_globals
        if isinstance(loc, A.Index) and isinstance(loc.base, A.Var) \
                and loc.base.kind is A.VarKind.GLOBAL:
            return loc.base.name in self.versioned_globals
        if isinstance(loc, A.Field) and isinstance(loc.base, A.Var):
            base = self._eval(world, thread, loc.base)
            if isinstance(base, Ref):
                obj = world.heap.get(base)
                decl = self.program.class_decl(obj.class_name)
                return decl is not None \
                    and loc.name in decl.versioned_fields
        return False

    # -- expression evaluation ----------------------------------------------------------
    def _eval(self, world: World, thread: Thread, e: A.Expr) -> Value:
        if isinstance(e, A.Const):
            return e.value
        if isinstance(e, A.Var):
            if e.kind is A.VarKind.CONST:
                return self.consts[e.name]
            addr = self._addr(world, thread, e)
            value = self._load(world, thread, addr)
            self._record_read(world, thread, addr)
            return value
        if isinstance(e, (A.Field, A.Index)):
            addr = self._addr(world, thread, e)
            value = self._load(world, thread, addr)
            self._record_read(world, thread, addr)
            return value
        if isinstance(e, A.New):
            return world.heap.alloc(e.class_name)
        if isinstance(e, A.NewArray):
            size = self._eval(world, thread, e.size)
            return world.heap.alloc_array(e.class_name, size)
        if isinstance(e, A.Unary):
            v = self._eval(world, thread, e.operand)
            if e.op == "!":
                return not bool(v)
            if e.op == "-":
                return -v
            raise InterpError(f"bad unary {e.op}")
        if isinstance(e, A.Binary):
            return self._binary(world, thread, e)
        if isinstance(e, A.PrimCall):
            fn = self.primitives.get(e.name)
            if fn is None:
                raise InterpError(f"unknown primitive {e.name!r}")
            args = [self._eval(world, thread, a) for a in e.args]
            return fn(*args)
        if isinstance(e, A.LLExpr):
            addr = self._addr(world, thread, e.loc)
            value = self._load(world, thread, addr)
            self._record_read(world, thread, addr)
            thread.reservations[addr] = True
            return value
        if isinstance(e, A.VLExpr):
            addr = self._addr(world, thread, e.loc)
            return thread.reservations.get(addr, False)
        if isinstance(e, A.SCExpr):
            value = self._eval(world, thread, e.value)
            addr = self._addr(world, thread, e.loc)
            ok = bool(thread.reservations.get(addr, False))
            if ok:
                self._store(world, thread, addr, value)
            return ok
        if isinstance(e, A.CASExpr):
            expected = self._eval(world, thread, e.expected)
            new = self._eval(world, thread, e.new)
            versioned = self._loc_versioned(world, thread, e.loc)
            addr = self._addr(world, thread, e.loc)
            current = self._load(world, thread, addr)
            ok = current == expected and \
                isinstance(current, bool) == isinstance(expected, bool)
            if ok and versioned and addr in thread.observed \
                    and thread.observed[addr] != world.versions.get(addr, 0):
                ok = False  # the modification counter moved: ABA defence
            if ok:
                self._store(world, thread, addr, new)
            return ok
        raise InterpError(f"cannot evaluate {type(e).__name__}")

    def _binary(self, world: World, thread: Thread, e: A.Binary) -> Value:
        op = e.op
        if op == "&&":
            return bool(self._eval(world, thread, e.left)) and \
                bool(self._eval(world, thread, e.right))
        if op == "||":
            return bool(self._eval(world, thread, e.left)) or \
                bool(self._eval(world, thread, e.right))
        left = self._eval(world, thread, e.left)
        right = self._eval(world, thread, e.right)
        if op == "==":
            return left == right and isinstance(left, bool) == \
                isinstance(right, bool)
        if op == "!=":
            return left != right or isinstance(left, bool) != \
                isinstance(right, bool)
        try:
            if op == "+":
                return left + right
            if op == "-":
                return left - right
            if op == "*":
                return left * right
            if op == "/":
                return left // right if (left < 0) == (right < 0) \
                    else -((-left) // right) if left < 0 \
                    else -(left // (-right))
            if op == "%":
                return left - right * (
                    left // right if (left < 0) == (right < 0)
                    else -((-left) // right) if left < 0
                    else -(left // (-right)))
            if op == "<":
                return left < right
            if op == "<=":
                return left <= right
            if op == ">":
                return left > right
            if op == ">=":
                return left >= right
        except TypeError as exc:
            raise InterpError(f"bad operands for {op}: "
                              f"{left!r}, {right!r}") from exc
        raise InterpError(f"bad binary {op}")


def run(interp: Interp, world: World, schedule: Callable[[World, list[int]], int],
        max_steps: int = 100_000, path_log: Optional[list] = None) -> World:
    """Run until all threads are done or the step budget is exhausted.
    ``schedule(world, enabled)`` picks the next thread id.

    ``path_log`` (when given) collects one step dict per executed
    transition — the same ``{tid, uid, desc, kind, via, proc}`` shape
    the model checker records on :attr:`MCResult.path` — so a
    violating schedule can be rendered as an annotated counterexample
    (:mod:`repro.mc.cex`)."""
    for _ in range(max_steps):
        enabled = interp.enabled_threads(world)
        if not enabled:
            return world
        tid = schedule(world, enabled)
        if path_log is not None:
            thread = world.threads[tid]
            frame = thread.frame
            if frame is None:
                name, args = thread.current_call()
                path_log.append({"tid": tid, "uid": None,
                                 "desc": f"t{tid}:{name}{args}",
                                 "kind": "invoke", "via": None,
                                 "proc": name})
            else:
                node = frame.node
                uid = node.uid if node is not None else None
                kind = "stmt" if node is not None else "return"
                path_log.append({"tid": tid, "uid": uid,
                                 "desc": f"t{tid}@{uid}",
                                 "kind": kind, "via": None,
                                 "proc": frame.proc_name})
        interp.step(world, tid)
    return world
