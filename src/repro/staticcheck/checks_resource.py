"""Resource-lifecycle rules: RS301 leaked handles, RS302 leaked queue
leases, RS303 orphaned tmp files.

These are the path-sensitive checks the CFG IR exists for.  For every
resource acquired in a function body — a handle from ``open``/``os.open``
/``socket``/``Pipe``, a lease from ``queue.claim(...)`` (or received as a
``Claim``-annotated parameter), a ``*.tmp`` path destined for an atomic
rename — the pass searches the function's CFG for a path from the
acquisition to the function's normal or exceptional exit on which the
resource is neither released nor handed off.  Exception edges are real
paths here: ``put()`` raising between ``claim()`` and ``complete()``
leaves the lease locked until TTL expiry, which is exactly the bug class
the worker kill drills provoke dynamically.

Ownership transfer is conservative-quiet: returning the resource,
storing it on ``self``, aliasing it, or passing it *bare* to another
call all count as escapes and end the obligation locally
(``QueueSource.next_job`` returns its claim to the process pool; the leak
check then applies inside ``QueueSource.failed`` and the other callbacks
via their ``Claim``-typed parameters).  Method calls *on*
the resource and attribute projections (``claim.key``) are mere uses.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.staticcheck.callgraph import canonical, collect_imports
from repro.staticcheck.ir import EDGE_NEXT, FunctionCFG, build_cfg, \
    header_exprs, local_walk
from repro.staticcheck.model import Finding, SourceFile

#: canonical constructors returning one closable handle
_HANDLE_CTORS = {"open", "io.open", "os.fdopen", "os.open",
                 "socket.socket", "socket.create_connection"}
#: constructors returning a *pair* of closable handles
_PAIR_CTORS_ATTR = {"Pipe"}
_PAIR_CTORS = {"multiprocessing.Pipe", "socket.socketpair"}

#: lease terminal operations (on the queue, naming the claim)
_LEASE_TERMINALS = {"complete", "release", "finish_failed"}

#: canonical functions that consume/retire a tmp path (first argument)
_TMP_TERMINALS = {"os.replace", "os.rename", "os.unlink", "os.remove",
                  "shutil.move"}
#: Path methods that retire the receiver
_TMP_TERMINAL_METHODS = {"replace", "rename", "unlink"}
#: calls that merely *use* a tmp path without taking ownership
_TMP_USERS = {"open", "io.open", "str", "repr"}


@dataclass
class _Resource:
    rule: str            # RS301 / RS302 / RS303
    name: str            # the local variable holding it
    node_id: int         # acquiring CFG node (entry for parameters)
    lineno: int
    what: str            # human description for the message


def _contains_name(root: ast.AST, name: str) -> bool:
    for node in ast.walk(root):
        if isinstance(node, ast.Name) and node.id == name:
            return True
    return False


def _whole_ref(root: ast.AST, name: str) -> bool:
    """``name`` appears as a whole-object reference (not a projection).

    ``claim`` in ``other = claim`` transfers the object; ``claim`` in
    ``spec = claim.spec`` or ``queue.release(claim.key)`` only projects
    an attribute out of it and leaves ownership where it was.
    """
    parents = {id(child): parent
               for parent in ast.walk(root)
               for child in ast.iter_child_nodes(parent)}
    for node in ast.walk(root):
        if not (isinstance(node, ast.Name) and node.id == name):
            continue
        parent = parents.get(id(node))
        if (isinstance(parent, (ast.Attribute, ast.Subscript))
                and parent.value is node):
            continue
        return True
    return False


def _exprs(stmt: ast.stmt) -> List[ast.AST]:
    out: List[ast.AST] = []
    for root in header_exprs(stmt):
        out.append(root)
        out.extend(local_walk(root))
    return out


def _classify(stmt: ast.stmt, res: _Resource,
              imports: Dict[str, str]) -> Optional[str]:
    """"release" / "escape" / None for one CFG node w.r.t. a resource."""
    v = res.name
    release = False
    escape = False
    for node in _exprs(stmt):
        if isinstance(node, ast.Call):
            dotted = canonical(node.func, imports)
            attr = (node.func.attr
                    if isinstance(node.func, ast.Attribute) else None)
            receiver_is_v = (isinstance(node.func, ast.Attribute)
                             and isinstance(node.func.value, ast.Name)
                             and node.func.value.id == v)
            bare_arg = any(
                isinstance(arg, ast.Name) and arg.id == v
                for arg in list(node.args)
                + [kw.value for kw in node.keywords])
            if res.rule == "RS301":
                if receiver_is_v and attr == "close":
                    release = True
                elif receiver_is_v:
                    pass                         # f.read() etc: use
                elif bare_arg and dotted == "os.close":
                    release = True
                elif bare_arg and dotted == "os.fdopen":
                    escape = True                # fd ownership transfers
                elif bare_arg:
                    escape = True
            elif res.rule == "RS302":
                mentions_v = any(_contains_name(arg, v)
                                 for arg in list(node.args)
                                 + [kw.value for kw in node.keywords])
                if attr in _LEASE_TERMINALS and mentions_v:
                    release = True
                elif receiver_is_v:
                    pass                         # claim.method(): use
                elif bare_arg:
                    escape = True                # handed off whole
            elif res.rule == "RS303":
                first_arg = node.args[0] if node.args else None
                if (dotted in _TMP_TERMINALS and first_arg is not None
                        and _contains_name(first_arg, v)):
                    release = True
                elif receiver_is_v and attr in _TMP_TERMINAL_METHODS:
                    release = True
                elif receiver_is_v:
                    pass                         # tmp.write_bytes(): use
                elif bare_arg and dotted in _TMP_USERS:
                    pass
                elif bare_arg:
                    escape = True
        elif isinstance(node, ast.Return):
            if node.value is not None and _whole_ref(node.value, v):
                escape = True
        elif isinstance(node, ast.Raise):
            if any(node_part is not None
                   and _whole_ref(node_part, v)
                   for node_part in (node.exc, node.cause)):
                escape = True
        elif isinstance(node, (ast.Yield, ast.YieldFrom)):
            if node.value is not None and _whole_ref(node.value, v):
                escape = True
        elif isinstance(node, ast.withitem):
            ctx = node.context_expr
            if isinstance(ctx, ast.Name) and ctx.id == v:
                release = True                   # `with f:` closes it
    if isinstance(stmt, ast.Assign):
        for target in stmt.targets:
            if isinstance(target, ast.Name) and target.id == v:
                if stmt.lineno != res.lineno:
                    release = True               # rebound: stop tracking
        if _whole_ref(stmt.value, v):
            escape = True                        # aliased or stored
    elif isinstance(stmt, (ast.AnnAssign, ast.AugAssign)):
        if stmt.value is not None and _whole_ref(stmt.value, v):
            escape = True
    if release:
        return "release"
    if escape:
        return "escape"
    return None


def _annotation_terminal(node: Optional[ast.AST]) -> Optional[str]:
    if node is None:
        return None
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value.rsplit(".", 1)[-1].strip("\"' []")
    if isinstance(node, ast.Subscript):
        return _annotation_terminal(node.slice)
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    return None


def _acquisitions(func: ast.AST, cfg: FunctionCFG,
                  imports: Dict[str, str]) -> List[_Resource]:
    resources: List[_Resource] = []

    # Claim-typed parameters: the caller handed this function a live
    # lease — it owns the release obligation from entry.
    arg_lists = (func.args.args + func.args.kwonlyargs
                 + getattr(func.args, "posonlyargs", []))
    for arg in arg_lists:
        if _annotation_terminal(arg.annotation) == "Claim":
            resources.append(_Resource(
                rule="RS302", name=arg.arg, node_id=cfg.entry,
                lineno=func.lineno,
                what=f"lease parameter {arg.arg!r}"))

    for node in cfg.statement_nodes():
        stmt = node.stmt
        if not isinstance(stmt, ast.Assign) or len(stmt.targets) != 1:
            continue
        target = stmt.targets[0]
        value = stmt.value
        if not isinstance(value, ast.Call):
            # tmp paths are built by expressions, not just calls
            if (isinstance(target, ast.Name)
                    and _mentions_tmp(value)):
                resources.append(_Resource(
                    rule="RS303", name=target.id, node_id=node.id,
                    lineno=stmt.lineno,
                    what=f"tmp path {target.id!r}"))
            continue
        dotted = canonical(value.func, imports)
        attr = (value.func.attr
                if isinstance(value.func, ast.Attribute) else None)
        if isinstance(target, ast.Name):
            if dotted in _HANDLE_CTORS:
                resources.append(_Resource(
                    rule="RS301", name=target.id, node_id=node.id,
                    lineno=stmt.lineno,
                    what=f"handle {target.id!r} from {dotted}()"))
            elif attr == "claim" and _queueish_receiver(value.func):
                resources.append(_Resource(
                    rule="RS302", name=target.id, node_id=node.id,
                    lineno=stmt.lineno,
                    what=f"lease {target.id!r}"))
            elif _mentions_tmp(value):
                resources.append(_Resource(
                    rule="RS303", name=target.id, node_id=node.id,
                    lineno=stmt.lineno,
                    what=f"tmp path {target.id!r}"))
        elif (isinstance(target, ast.Tuple)
                and all(isinstance(e, ast.Name) for e in target.elts)
                and (dotted in _PAIR_CTORS
                     or attr in _PAIR_CTORS_ATTR)):
            for elt in target.elts:
                resources.append(_Resource(
                    rule="RS301", name=elt.id, node_id=node.id,
                    lineno=stmt.lineno,
                    what=f"handle {elt.id!r} from "
                         f"{dotted or attr}()"))
    return resources


def _queueish_receiver(func_expr: ast.Attribute) -> bool:
    receiver = func_expr.value
    terminal = None
    if isinstance(receiver, ast.Name):
        terminal = receiver.id
    elif isinstance(receiver, ast.Attribute):
        terminal = receiver.attr
    return terminal is not None and "queue" in terminal.lower()


def _mentions_tmp(expr: ast.AST) -> bool:
    """The expression builds a ``*.tmp*`` path (or mkstemp's result)."""
    for node in [expr] + list(local_walk(expr)):
        if (isinstance(node, ast.Constant) and isinstance(node.value, str)
                and ".tmp" in node.value):
            return True
        if (isinstance(node, ast.Call)
                and canonical(node.func, {}) in {"tempfile.mkstemp",
                                                 "tempfile.mktemp"}):
            return True
    return False


def _narrowed_successor(cfg: FunctionCFG, nid: int,
                        name: str) -> Optional[int]:
    """The only live-branch successor of an ``if <name> is None`` test.

    Acquisitions that can legitimately return None (``queue.claim``)
    are always followed by such a test; on the None branch there is no
    resource to leak, so the search follows only the branch consistent
    with the resource existing.
    """
    stmt = cfg.nodes[nid].stmt
    if not isinstance(stmt, ast.If) or nid not in cfg.branches:
        return None
    test = stmt.test
    if not (isinstance(test, ast.Compare) and len(test.ops) == 1
            and isinstance(test.left, ast.Name) and test.left.id == name
            and len(test.comparators) == 1
            and isinstance(test.comparators[0], ast.Constant)
            and test.comparators[0].value is None):
        return None
    body_entry, else_entry = cfg.branches[nid]
    if isinstance(test.ops[0], ast.Is):
        return else_entry
    if isinstance(test.ops[0], ast.IsNot):
        return body_entry
    return None


def _leak_paths(cfg: FunctionCFG, res: _Resource,
                imports: Dict[str, str]) -> Tuple[bool, bool]:
    """(leaks_on_normal_path, leaks_on_exception_path).

    BFS from the acquisition along live-resource paths; a node that
    releases or escapes the resource terminates its path.  The
    acquisition node's own exception edge is excluded — if the acquire
    call itself raised, nothing was acquired.
    """
    if res.node_id == cfg.entry:
        work = [dst for dst, _kind in cfg.successors(cfg.entry)]
    else:
        work = [dst for dst, kind in cfg.successors(res.node_id)
                if kind == EDGE_NEXT]
    visited: Set[int] = set()
    leak_normal = leak_exc = False
    while work:
        nid = work.pop()
        if nid in visited:
            continue
        visited.add(nid)
        if nid == cfg.exit:
            leak_normal = True
            continue
        if nid == cfg.raise_exit:
            leak_exc = True
            continue
        node = cfg.nodes[nid]
        if node.stmt is not None:
            verdict = _classify(node.stmt, res, imports)
            if verdict in ("release", "escape"):
                continue
            narrowed = _narrowed_successor(cfg, nid, res.name)
            if narrowed is not None:
                work.append(narrowed)
                work.extend(dst for dst, kind in node.succs
                            if kind != EDGE_NEXT)
                continue
        work.extend(dst for dst, _kind in node.succs)
    return leak_normal, leak_exc


_RULE_HINTS = {
    "RS301": "close it in a finally (or use `with`)",
    "RS302": "complete/release it in a finally so a failure cannot "
             "hold the cell until TTL expiry",
    "RS303": "rename or unlink it on every path so crash debris "
             "cannot accumulate",
}


def check_file(source: SourceFile) -> List[Finding]:
    """The RS3xx family over every function in one file."""
    imports = collect_imports(source.tree, source.module)
    findings: List[Finding] = []
    for func in ast.walk(source.tree):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        cfg = build_cfg(func)
        for res in _acquisitions(func, cfg, imports):
            leak_normal, leak_exc = _leak_paths(cfg, res, imports)
            if not (leak_normal or leak_exc):
                continue
            if leak_normal and leak_exc:
                where = "on fall-through and exception paths"
            elif leak_exc:
                where = "on an exception path"
            else:
                where = "on a fall-through path"
            findings.append(Finding(
                rule=res.rule, path=source.rel, line=res.lineno, col=1,
                message=f"{res.what} in {func.name}() is not released "
                        f"{where} — {_RULE_HINTS[res.rule]}"))
    return findings
