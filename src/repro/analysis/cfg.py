"""Intraprocedural control-flow graphs for the flow-aware rules.

The statement-pattern rules (R1-R6) ask "does this line look wrong?";
the flow-aware rules (R7-R11) ask "is there a *path* on which this goes
wrong?" — a slot acquired here that some exceptional path never
releases, a scan loop a cancellation check never dominates.  Answering
that needs a control-flow graph, and this module builds one per
function with nothing but stdlib ``ast``:

* one :class:`Node` per simple statement, plus header nodes for the
  compound forms (``if``/``while``/``for`` tests, ``try`` dispatch,
  ``with`` enter/exit, ``finally`` entry) and three synthetic nodes —
  ``entry``, ``exit`` (normal return / fall-off) and ``raise_exit``
  (an exception escaping the function);
* **normal edges** for sequencing, branching and loop back-edges;
* **exceptional edges** from every statement that can raise to the
  innermost enclosing handler target (``except`` dispatch, ``finally``,
  ``with`` exit) or to ``raise_exit`` — this is what models "an
  exception escapes between acquire and release";
* ``break``/``continue``/``return`` route through every open
  ``finally``/``with`` frame between the jump and its target, exactly
  as the interpreter unwinds them.

The model errs conservative in two documented ways: a ``finally`` body
is built once with out-edges for *all* its continuations (normal fall
through, re-raise, routed jumps), and any statement containing a call,
attribute access, subscript or arithmetic is assumed able to raise.
Both over-approximate the real path set, which is the safe direction
for the leak and coverage rules built on top.

Path queries come in two shapes: :meth:`CFG.reach` (can node A reach an
exit while avoiding a node set — the detection primitive) and
:meth:`CFG.iter_exit_paths` (bounded enumeration of entry-to-exit
paths, each edge used at most once per path — golden tests and witness
messages).  Dead statements after a ``return``/``raise``/``break`` are
not given nodes at all, so every node in a built CFG is reachable from
``entry`` and can reach an exit.
"""

from __future__ import annotations

import ast
from typing import Dict, FrozenSet, Iterator, List, Optional, Sequence, Set, Tuple

__all__ = ["CFG", "Node", "build_cfg", "function_cfgs"]

#: Default ceiling on enumerated paths (and on DFS steps while finding
#: them): generous for real functions, a hard stop for adversarial ones.
PATH_BUDGET = 4096

#: Expression nodes whose presence makes a statement "can raise" in the
#: conservative model (calls, attribute/subscript access, arithmetic —
#: anything that can hit user code or throw on bad operands).
_RAISING_EXPR = (
    ast.Call,
    ast.Attribute,
    ast.Subscript,
    ast.BinOp,
    ast.Compare,
    ast.Await,
    ast.Yield,
    ast.YieldFrom,
)

#: Statements that can always raise regardless of their expressions.
_RAISING_STMT = (ast.Raise, ast.Assert, ast.Import, ast.ImportFrom, ast.Delete)


class Node:
    """One CFG vertex.

    ``kind`` is one of ``entry`` / ``exit`` / ``raise`` (the synthetic
    boundary nodes), ``stmt`` (a simple statement), ``test`` (an
    ``if``/``while`` condition or ``for`` iterator), ``dispatch`` (the
    except-clause chooser of a ``try``), ``handler`` (an ``except``
    clause), ``finally``, ``with-enter``/``with-exit`` or ``join``
    (the merge point after a loop or ``try``).
    """

    __slots__ = ("index", "kind", "stmt", "line", "label")

    def __init__(
        self,
        index: int,
        kind: str,
        stmt: Optional[ast.AST] = None,
        label: str = "",
    ) -> None:
        self.index = index
        self.kind = kind
        self.stmt = stmt
        self.line = getattr(stmt, "lineno", 0) if stmt is not None else 0
        self.label = label or kind

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Node {self.index} {self.label!r} line {self.line}>"


class CFG:
    """A built control-flow graph for one function."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.nodes: List[Node] = []
        self._succ: Dict[int, List[Tuple[int, str]]] = {}
        self._by_stmt: Dict[int, Node] = {}
        self.entry = self._new("entry")
        self.exit = self._new("exit")
        self.raise_exit = self._new("raise")

    # -- construction internals (used by _Builder) -------------------------

    def _new(
        self, kind: str, stmt: Optional[ast.AST] = None, label: str = ""
    ) -> Node:
        node = Node(len(self.nodes), kind, stmt, label)
        self.nodes.append(node)
        self._succ[node.index] = []
        if stmt is not None and id(stmt) not in self._by_stmt:
            self._by_stmt[id(stmt)] = node
        return node

    def _edge(self, src: Node, dst: Node, label: str = "next") -> None:
        pair = (dst.index, label)
        if pair not in self._succ[src.index]:
            self._succ[src.index].append(pair)

    def _prune_unreachable(self) -> None:
        """Drop nodes no path from entry reaches and reindex.

        The builder creates some structural nodes before it knows they
        will be live — e.g. the except-dispatch of a ``try`` whose body
        turns out to contain nothing that can raise, or that body's
        handlers.  Pruning afterwards keeps the invariant the rules and
        the property tests rely on: every node in ``nodes`` (bar the
        synthetic exits) is reachable from entry.
        """
        keep = self.reach(self.entry)
        keep.update((self.exit.index, self.raise_exit.index))
        if len(keep) == len(self.nodes):
            return
        remap: Dict[int, int] = {}
        kept: List[Node] = []
        for node in self.nodes:
            if node.index in keep:
                remap[node.index] = len(kept)
                kept.append(node)
        new_succ: Dict[int, List[Tuple[int, str]]] = {}
        for node in kept:
            new_succ[remap[node.index]] = [
                (remap[dst], label)
                for dst, label in self._succ[node.index]
                if dst in remap
            ]
        for node in kept:
            node.index = remap[node.index]
        self.nodes = kept
        self._succ = new_succ
        kept_ids = {id(node) for node in kept}
        self._by_stmt = {
            key: node
            for key, node in self._by_stmt.items()
            if id(node) in kept_ids
        }

    # -- queries -----------------------------------------------------------

    def successors(self, node: Node) -> List[Tuple[Node, str]]:
        return [(self.nodes[i], label) for i, label in self._succ[node.index]]

    def node_for(self, stmt: ast.AST) -> Optional[Node]:
        """The node a source statement maps to (header node for compound
        statements), or ``None`` for unreachable/unbuilt code."""
        return self._by_stmt.get(id(stmt))

    def reach(
        self,
        start: Node,
        avoid: FrozenSet[int] = frozenset(),
    ) -> Set[int]:
        """Node indices reachable from ``start`` without stepping *onto*
        any node in ``avoid`` (``start`` itself is not avoided)."""
        seen: Set[int] = {start.index}
        stack = [start.index]
        while stack:
            current = stack.pop()
            for nxt, _label in self._succ[current]:
                if nxt in seen or nxt in avoid:
                    continue
                seen.add(nxt)
                stack.append(nxt)
        return seen

    def find_path(
        self,
        start: Node,
        targets: Sequence[Node],
        avoid: FrozenSet[int] = frozenset(),
    ) -> Optional[List[Node]]:
        """A shortest path from ``start`` to any target avoiding the
        ``avoid`` set, or ``None``.  BFS, so witnesses stay readable."""
        want = {t.index for t in targets}
        if start.index in want:
            return [start]
        parent: Dict[int, int] = {start.index: -1}
        queue = [start.index]
        while queue:
            nxt_queue: List[int] = []
            for current in queue:
                for nxt, _label in self._succ[current]:
                    if nxt in parent or nxt in avoid:
                        continue
                    parent[nxt] = current
                    if nxt in want:
                        path = [nxt]
                        while path[-1] != start.index:
                            path.append(parent[path[-1]])
                        return [self.nodes[i] for i in reversed(path)]
                    nxt_queue.append(nxt)
            queue = nxt_queue
        return None

    def iter_exit_paths(
        self, budget: int = PATH_BUDGET
    ) -> Iterator[List[Node]]:
        """Enumerate entry-to-exit paths, each edge taken at most once
        per path (so loops contribute one traversal), stopping after
        ``budget`` paths or DFS steps — whichever comes first."""
        exits = {self.exit.index, self.raise_exit.index}
        steps = 0
        yielded = 0
        # Each stack frame: (node index, iterator over successor pairs,
        # edge taken to get here).  Path = the frames' nodes.
        path: List[int] = [self.entry.index]
        used: Set[Tuple[int, int]] = set()
        iters = [iter(self._succ[self.entry.index])]
        while iters:
            if yielded >= budget or steps >= budget * 8:
                return
            steps += 1
            try:
                nxt, _label = next(iters[-1])
            except StopIteration:
                iters.pop()
                src = path.pop()
                if path:
                    used.discard((path[-1], src))
                continue
            edge = (path[-1], nxt)
            if edge in used:
                continue
            if nxt in exits:
                yield [self.nodes[i] for i in path + [nxt]]
                yielded += 1
                continue
            used.add(edge)
            path.append(nxt)
            iters.append(iter(self._succ[nxt]))


def stmt_can_raise(stmt: ast.stmt) -> bool:
    """Conservative: can executing this (simple) statement raise?"""
    if isinstance(stmt, _RAISING_STMT):
        return True
    for child in ast.walk(stmt):
        if isinstance(child, _RAISING_EXPR):
            return True
    return False


def _expr_can_raise(expr: Optional[ast.AST]) -> bool:
    if expr is None:
        return False
    for child in ast.walk(expr):
        if isinstance(child, _RAISING_EXPR):
            return True
    return False


class _FinallyFrame:
    """An open ``finally`` (or ``with`` exit) a jump must route through."""

    __slots__ = ("entry", "targets")

    def __init__(self, entry: Node) -> None:
        self.entry = entry
        self.targets: Set[int] = set()


class _LoopFrame:
    __slots__ = ("head", "after", "finally_depth")

    def __init__(self, head: Node, after: Node, finally_depth: int) -> None:
        self.head = head  # continue target
        self.after = after  # break target
        self.finally_depth = finally_depth


#: A dangling (node, edge-label) pair awaiting its successor.
_Pred = Tuple[Node, str]


class _Builder:
    """Single-use builder: one function body in, one :class:`CFG` out."""

    def __init__(self, name: str) -> None:
        self.cfg = CFG(name)
        self._exc: List[Node] = [self.cfg.raise_exit]
        self._finally: List[_FinallyFrame] = []
        self._loops: List[_LoopFrame] = []

    # -- plumbing ----------------------------------------------------------

    def _connect(self, preds: Sequence[_Pred], node: Node) -> None:
        for src, label in preds:
            self.cfg._edge(src, node, label)

    def _exc_edge(self, node: Node) -> None:
        self.cfg._edge(node, self._exc[-1], "exc")

    def _route(self, source: Node, frames: List[_FinallyFrame], target: Node, label: str) -> None:
        """Connect a jump, unwinding through the given open frames
        (outermost-first list, as sliced off the stack)."""
        if not frames:
            self.cfg._edge(source, target, label)
            return
        inner_first = list(reversed(frames))
        self.cfg._edge(source, inner_first[0].entry, label)
        for closer, outer in zip(inner_first, inner_first[1:]):
            closer.targets.add(outer.entry.index)
        inner_first[-1].targets.add(target.index)

    # -- statement dispatch ------------------------------------------------

    def build(self, body: Sequence[ast.stmt]) -> None:
        preds = self._body(body, [(self.cfg.entry, "next")])
        self._connect(preds, self.cfg.exit)
        self.cfg._prune_unreachable()

    def _body(
        self, stmts: Sequence[ast.stmt], preds: List[_Pred]
    ) -> List[_Pred]:
        for stmt in stmts:
            if not preds:
                return []  # dead code: no nodes, keeps the graph connected
            preds = self._stmt(stmt, preds)
        return preds

    def _stmt(self, stmt: ast.stmt, preds: List[_Pred]) -> List[_Pred]:
        if isinstance(stmt, ast.If):
            return self._if(stmt, preds)
        if isinstance(stmt, (ast.While,)):
            return self._while(stmt, preds)
        if isinstance(stmt, (ast.For, ast.AsyncFor)):
            return self._for(stmt, preds)
        if isinstance(stmt, ast.Try):
            return self._try(stmt, preds)
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            return self._with(stmt, preds)
        if isinstance(stmt, ast.Return):
            return self._return(stmt, preds)
        if isinstance(stmt, ast.Raise):
            return self._raise(stmt, preds)
        if isinstance(stmt, ast.Break):
            return self._break(stmt, preds)
        if isinstance(stmt, ast.Continue):
            return self._continue(stmt, preds)
        # Simple statement (nested function/class defs are opaque
        # single statements here; their bodies get their own CFGs).
        node = self.cfg._new("stmt", stmt, _label(stmt))
        self._connect(preds, node)
        if stmt_can_raise(stmt):
            self._exc_edge(node)
        return [(node, "next")]

    # -- compound forms ----------------------------------------------------

    def _if(self, stmt: ast.If, preds: List[_Pred]) -> List[_Pred]:
        test = self.cfg._new("test", stmt, f"if {_label(stmt.test)}")
        self._connect(preds, test)
        if _expr_can_raise(stmt.test):
            self._exc_edge(test)
        out = self._body(stmt.body, [(test, "true")])
        if stmt.orelse:
            out = out + self._body(stmt.orelse, [(test, "false")])
        else:
            out = out + [(test, "false")]
        return out

    def _while(self, stmt: ast.While, preds: List[_Pred]) -> List[_Pred]:
        head = self.cfg._new("test", stmt, f"while {_label(stmt.test)}")
        after = self.cfg._new("join", stmt, "after-while")
        self._connect(preds, head)
        if _expr_can_raise(stmt.test):
            self._exc_edge(head)
        self._loops.append(_LoopFrame(head, after, len(self._finally)))
        body_out = self._body(stmt.body, [(head, "true")])
        self._loops.pop()
        self._connect(body_out, head)  # back edge
        if stmt.orelse:
            else_out = self._body(stmt.orelse, [(head, "false")])
            self._connect(else_out, after)
        else:
            self.cfg._edge(head, after, "false")
        return [(after, "next")]

    def _for(self, stmt: ast.For | ast.AsyncFor, preds: List[_Pred]) -> List[_Pred]:
        head = self.cfg._new("test", stmt, f"for {_label(stmt.iter)}")
        after = self.cfg._new("join", stmt, "after-for")
        self._connect(preds, head)
        # Evaluating the iterable / advancing the iterator can raise.
        self._exc_edge(head)
        self._loops.append(_LoopFrame(head, after, len(self._finally)))
        body_out = self._body(stmt.body, [(head, "iter")])
        self._loops.pop()
        self._connect(body_out, head)
        if stmt.orelse:
            else_out = self._body(stmt.orelse, [(head, "exhausted")])
            self._connect(else_out, after)
        else:
            self.cfg._edge(head, after, "exhausted")
        return [(after, "next")]

    def _with(self, stmt: ast.With | ast.AsyncWith, preds: List[_Pred]) -> List[_Pred]:
        enter = self.cfg._new(
            "with-enter",
            stmt,
            "with " + ", ".join(_label(i.context_expr) for i in stmt.items),
        )
        self._connect(preds, enter)
        # __enter__ failing propagates without running __exit__.
        self._exc_edge(enter)
        leave = self.cfg._new("with-exit", stmt, "with-exit")
        # The body's exceptions run __exit__ (which re-raises unless it
        # suppresses); jumps out of the body unwind through it too.
        self._exc.append(leave)
        self._finally.append(_FinallyFrame(leave))
        body_out = self._body(stmt.body, [(enter, "next")])
        frame = self._finally.pop()
        self._exc.pop()
        self._connect(body_out, leave)
        self.cfg._edge(leave, self._exc[-1], "reraise")
        for target in sorted(frame.targets):
            self.cfg._edge(leave, self.cfg.nodes[target], "unwind")
        return [(leave, "next")]

    def _try(self, stmt: ast.Try, preds: List[_Pred]) -> List[_Pred]:
        after = self.cfg._new("join", stmt, "after-try")
        fin: Optional[Node] = None
        frame: Optional[_FinallyFrame] = None
        if stmt.finalbody:
            fin = self.cfg._new("finally", stmt, "finally")
            frame = _FinallyFrame(fin)
            self._finally.append(frame)

        dispatch: Optional[Node] = None
        if stmt.handlers:
            dispatch = self.cfg._new("dispatch", stmt, "except-dispatch")

        # Body: exceptions go to the dispatcher, else straight to the
        # finally, else out.
        body_exc = dispatch if dispatch is not None else (fin or self._exc[-1])
        self._exc.append(body_exc)
        body_out = self._body(stmt.body, preds)
        if stmt.orelse:
            body_out = self._body(stmt.orelse, body_out)
        self._exc.pop()

        normal_out: List[_Pred] = list(body_out)

        if dispatch is not None:
            handler_exc = fin if fin is not None else self._exc[-1]
            catch_all = False
            for handler in stmt.handlers:
                if _handler_is_catch_all(handler):
                    catch_all = True
                h_node = self.cfg._new(
                    "handler", handler, f"except {_label(handler.type)}"
                )
                self.cfg._edge(dispatch, h_node, "except")
                self._exc.append(handler_exc)
                handler_out = self._body(handler.body, [(h_node, "next")])
                self._exc.pop()
                normal_out.extend(handler_out)
            if not catch_all:
                # Something no clause catches (BaseException subclasses
                # included) unwinds past the handlers.
                self.cfg._edge(dispatch, handler_exc, "uncaught")

        if fin is not None and frame is not None:
            self._finally.pop()
            self._connect(normal_out, fin)
            # The finally body itself runs outside the frame.
            fin_out = self._body(stmt.finalbody, [(fin, "next")])
            self._connect(fin_out, after)
            for src, _lab in fin_out:
                self.cfg._edge(src, self._exc[-1], "reraise")
                for target in sorted(frame.targets):
                    self.cfg._edge(src, self.cfg.nodes[target], "unwind")
            if not fin_out:
                # finally body ends in a jump/raise of its own: the
                # after-join is unreachable through it.
                pass
        else:
            self._connect(normal_out, after)

        preds_out = [(after, "next")] if self._has_preds(after) else []
        return preds_out

    def _has_preds(self, node: Node) -> bool:
        for pairs in self.cfg._succ.values():
            for dst, _label in pairs:
                if dst == node.index:
                    return True
        return False

    # -- jumps -------------------------------------------------------------

    def _return(self, stmt: ast.Return, preds: List[_Pred]) -> List[_Pred]:
        node = self.cfg._new("stmt", stmt, _label(stmt))
        self._connect(preds, node)
        if _expr_can_raise(stmt.value):
            self._exc_edge(node)
        self._route(node, list(self._finally), self.cfg.exit, "return")
        return []

    def _raise(self, stmt: ast.Raise, preds: List[_Pred]) -> List[_Pred]:
        node = self.cfg._new("stmt", stmt, _label(stmt))
        self._connect(preds, node)
        self._exc_edge(node)
        return []

    def _break(self, stmt: ast.Break, preds: List[_Pred]) -> List[_Pred]:
        node = self.cfg._new("stmt", stmt, "break")
        self._connect(preds, node)
        if self._loops:
            loop = self._loops[-1]
            self._route(
                node, list(self._finally[loop.finally_depth :]), loop.after, "break"
            )
        return []

    def _continue(self, stmt: ast.Continue, preds: List[_Pred]) -> List[_Pred]:
        node = self.cfg._new("stmt", stmt, "continue")
        self._connect(preds, node)
        if self._loops:
            loop = self._loops[-1]
            self._route(
                node, list(self._finally[loop.finally_depth :]), loop.head, "continue"
            )
        return []


def _handler_is_catch_all(handler: ast.ExceptHandler) -> bool:
    """Only a bare ``except:`` or ``except BaseException`` stops every
    unwind; ``except Exception`` lets BaseExceptions (InjectedCrash,
    KeyboardInterrupt) escape, which is exactly what the leak rule cares
    about."""
    if handler.type is None:
        return True
    names = (
        [e for e in handler.type.elts]
        if isinstance(handler.type, ast.Tuple)
        else [handler.type]
    )
    for name in names:
        if isinstance(name, ast.Name) and name.id == "BaseException":
            return True
        if (
            isinstance(name, ast.Attribute)
            and name.attr == "BaseException"
        ):
            return True
    return False


def _label(node: Optional[ast.AST]) -> str:
    if node is None:
        return "<none>"
    try:
        text = ast.unparse(node)
    except Exception:  # pragma: no cover - unparse failure
        return type(node).__name__
    return text if len(text) <= 60 else text[:57] + "..."


def build_cfg(
    func: ast.FunctionDef | ast.AsyncFunctionDef, name: Optional[str] = None
) -> CFG:
    """Build the CFG of one function's body (nested defs are opaque)."""
    builder = _Builder(name or func.name)
    builder.build(func.body)
    return builder.cfg


def function_cfgs(tree: ast.AST) -> Dict[int, CFG]:
    """CFGs for every function/method in a module, keyed by ``id()`` of
    the function node (the :class:`~repro.analysis.engine.Project` CFG
    cache uses this to share graphs between rules)."""
    from .astutil import walk_functions

    out: Dict[int, CFG] = {}
    for class_name, func in walk_functions(tree):
        assert isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef))
        qualname = (
            f"{class_name}.{func.name}" if class_name else func.name
        )
        out[id(func)] = build_cfg(func, qualname)
    return out
