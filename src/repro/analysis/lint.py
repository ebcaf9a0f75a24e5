"""repro-lint: SPMD-aware static analysis for programs on :mod:`repro.mpi`.

Generic linters know nothing about SPMD discipline: they cannot see that
a collective reached by only some ranks deadlocks the rest, or that a
non-blocking request whose ``wait()`` is unreachable leaks its deferred
completion (and its ledger charge).  This pass encodes those protocol
rules over the Python AST:

========  ==============================================================
SPMD001   collective call under a rank-dependent branch with no matching
          call on the other path (subset-participation deadlock)
SPMD002   non-blocking request discarded or never waited on any path
          (leaked completion; the sanitizer's RequestLeakError, caught
          before running)
SPMD003   blocking collective entered while non-blocking posts are
          outstanding (serializes the overlap region)
SPMD005   mutable default argument (list/dict/set/ndarray — shared
          across calls *and* across ranks on the thread backend)
SPMD006   direct ``REPRO_*`` environment read outside
          :mod:`repro.config` (bypasses the one-shot config resolution
          at the ``run_spmd`` boundary; pooled workers never see it)
SPMD007   shared-memory allocation outside the transport layer, or one
          guarded by an ``except OSError`` that does not discriminate
          errno (bypasses the fault gate and accounting, or swallows
          the ``ENOSPC``/``ENOMEM`` the degradation ladder must see)
SPMD008   dtype-less NumPy allocation or literal conversion in the
          kernel/distributed layers (implicitly float64 — silently
          upcasts a float32 pipeline's buffers and doubles its wire
          words)
========  ==============================================================

Findings point at file:line:col.  Suppress a finding by putting
``# repro-lint: disable=CODE`` (or ``disable=all``) on the flagged line.
Run as ``repro-lint paths...`` or ``python -m repro.analysis.lint``;
``--json`` emits machine-readable findings for CI, ``--select`` limits
the rule set, ``--list-rules`` documents every rule.  Exit status: 0
clean, 1 findings, 2 usage or parse error.

The rules are deliberately heuristic (this is a linter, not a verifier):
they know the :class:`~repro.mpi.comm.Communicator` method names and a
few rank-access spellings, and they treat a request that escapes its
statement (passed to a call, returned, stored in a container) as
consumed — whoever received it owns the wait.
"""

from __future__ import annotations

import argparse
import ast
import json
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator

#: Blocking collective methods of Communicator/CartGrid communicators.
BLOCKING_COLLECTIVES = frozenset(
    {
        "barrier",
        "bcast",
        "gather",
        "allgather",
        "scatter",
        "reduce",
        "allreduce",
        "reduce_scatter_block",
        "alltoall",
        "split",
        "dup",
    }
)

#: Non-blocking *collective* posts (SPMD-ordered like their blocking
#: counterparts; rank-dependent branching around them deadlocks).
NB_COLLECTIVES = frozenset(
    {"ireduce", "iallreduce", "ireduce_scatter_block"}
)

#: All non-blocking posts returning a Request.  The point-to-point trio
#: is legal under rank branches (paired send/recv is the idiom) but
#: still carries the wait obligation.
NB_POSTS = NB_COLLECTIVES | frozenset({"isend", "irecv", "isendrecv"})

#: Attribute / variable spellings that mean "this rank's identity".
_RANK_NAMES = frozenset({"rank", "world_rank", "group_rank", "my_rank"})

#: Call results treated as freshly-allocated mutable defaults (SPMD005).
_MUTABLE_FACTORIES = frozenset(
    {"list", "dict", "set", "zeros", "ones", "empty", "array", "full"}
)

RULES: dict[str, str] = {
    "SPMD001": (
        "collective call under a rank-dependent branch with no matching "
        "call on the other path — the unreached ranks deadlock"
    ),
    "SPMD002": (
        "non-blocking request discarded or never waited — its deferred "
        "completion (and ledger charge) never runs"
    ),
    "SPMD003": (
        "blocking collective while non-blocking requests are outstanding "
        "— collapses the overlap region"
    ),
    "SPMD005": (
        "mutable default argument — shared across calls, and across "
        "ranks on the thread backend"
    ),
    "SPMD006": (
        "direct REPRO_* environment read outside repro.config — knobs "
        "must resolve once at the run_spmd boundary, not mid-library"
    ),
    "SPMD007": (
        "shm allocation outside the transport layer, or guarded by a "
        "non-errno-discriminating OSError handler — it bypasses the "
        "fault gate and accounting or swallows ENOSPC/ENOMEM"
    ),
    "SPMD008": (
        "dtype-less NumPy allocation/conversion in kernel or distributed "
        "code — implicitly float64, silently upcasting a float32 pipeline"
    ),
}


@dataclass
class Finding:
    """One lint finding, anchored to a source location."""

    path: str
    line: int
    col: int
    code: str
    message: str

    def render(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.code} {self.message}"

    def as_json(self) -> dict:
        return {
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "code": self.code,
            "message": self.message,
        }


# -- AST helpers -------------------------------------------------------------


def _method_name(call: ast.Call) -> str | None:
    """The attribute name of ``obj.method(...)`` calls, else None."""
    if isinstance(call.func, ast.Attribute):
        return call.func.attr
    return None


def _mentions_rank(node: ast.AST) -> bool:
    """Whether an expression reads this rank's identity."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Attribute) and sub.attr in _RANK_NAMES:
            return True
        if isinstance(sub, ast.Name) and sub.id in _RANK_NAMES:
            return True
        if isinstance(sub, ast.Call) and _method_name(sub) == "Get_rank":
            return True
    return False


def _calls_in(nodes: Iterable[ast.AST]) -> Iterator[ast.Call]:
    for node in nodes:
        for sub in ast.walk(node):
            if isinstance(sub, ast.Call):
                yield sub


def _collective_calls(nodes: Iterable[ast.AST]) -> list[tuple[str, ast.Call]]:
    out = []
    for call in _calls_in(nodes):
        name = _method_name(call)
        if name in BLOCKING_COLLECTIVES or name in NB_COLLECTIVES:
            out.append((name, call))
    return out


# -- SPMD001: rank-dependent collectives -------------------------------------


def _check_rank_branches(tree: ast.AST, path: str) -> list[Finding]:
    findings = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.If) or not _mentions_rank(node.test):
            continue
        body_ops = _collective_calls(node.body)
        else_ops = _collective_calls(node.orelse)
        body_names = {name for name, _ in body_ops}
        else_names = {name for name, _ in else_ops}
        for ops, other in ((body_ops, else_names), (else_ops, body_names)):
            for name, call in ops:
                if name in other:
                    # Both paths reach the same collective (root/non-root
                    # asymmetry of the same call): legal pairing.
                    continue
                findings.append(
                    Finding(
                        path,
                        call.lineno,
                        call.col_offset,
                        "SPMD001",
                        f"collective '{name}' is only reached by ranks "
                        f"taking this branch of a rank-dependent 'if' "
                        f"(line {node.lineno}); the other ranks block "
                        f"forever",
                    )
                )
    return findings


# -- SPMD002 / SPMD003: request lifetimes and pipeline regions ---------------


@dataclass
class _Post:
    """An outstanding non-blocking post bound to a local name."""

    name: str
    op: str
    line: int
    col: int
    consumed: bool = False


class _RegionAnalyzer:
    """Branch-local abstract interpreter over one function body.

    Tracks which non-blocking requests are outstanding at each program
    point.  ``If`` arms are analyzed from a copy of the pre-branch state
    and merged by intersection (a request waited on either arm no longer
    blocks SPMD003); loops get a single pass.  A request that escapes —
    passed to a call, returned, yielded, stored into a container or
    attribute — counts as consumed: its new owner is responsible for the
    wait, which is beyond a per-function analysis.
    """

    def __init__(self, path: str):
        self.path = path
        self.findings: list[Finding] = []
        self.outstanding: dict[str, _Post] = {}
        self.all_posts: list[_Post] = []

    # -- small classification helpers --

    def _nb_call(self, node: ast.AST) -> str | None:
        if isinstance(node, ast.Call):
            name = _method_name(node)
            if name in NB_POSTS:
                return name
        return None

    def _nb_calls_anywhere(self, node: ast.AST) -> list[tuple[str, ast.Call]]:
        return [
            (name, call)
            for call in ast.walk(node)
            if isinstance(call, ast.Call)
            and (name := _method_name(call)) in NB_POSTS
        ]

    def _record(self, name: str, op: str, node: ast.AST) -> None:
        post = _Post(name, op, node.lineno, node.col_offset)
        self.outstanding[name] = post
        self.all_posts.append(post)

    def _consume(self, name: str) -> None:
        post = self.outstanding.pop(name, None)
        if post is not None:
            post.consumed = True
        else:
            for post in self.all_posts:
                if post.name == name:
                    post.consumed = True

    # -- statement walk --

    def run(self, stmts: list[ast.stmt]) -> None:
        for stmt in stmts:
            self._statement(stmt)

    def finish(self) -> None:
        """End of function: posts never consumed on any path leak."""
        for post in self.all_posts:
            if not post.consumed:
                self.findings.append(
                    Finding(
                        self.path,
                        post.line,
                        post.col,
                        "SPMD002",
                        f"request from '{post.op}' is never waited; its "
                        f"deferred completion (and ledger charge) never "
                        f"runs",
                    )
                )

    def _statement(self, stmt: ast.stmt) -> None:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            # Nested scopes are analyzed independently, but a closure
            # capturing an outstanding request consumes it: the nested
            # function owns the wait (the pipelined ring's `_drain`).
            for sub in ast.walk(stmt):
                if isinstance(sub, ast.Name) and sub.id in self.outstanding:
                    self._consume(sub.id)
            return
        if isinstance(stmt, ast.If):
            pre = dict(self.outstanding)
            self.run(stmt.body)
            after_body = self.outstanding
            self.outstanding = dict(pre)
            self.run(stmt.orelse)
            after_else = self.outstanding
            self.outstanding = {
                name: post
                for name, post in after_body.items()
                if name in after_else
            }
            return
        if isinstance(stmt, (ast.For, ast.While)):
            self._expr_effects(getattr(stmt, "iter", None) or stmt.test)
            self.run(stmt.body)
            self.run(stmt.orelse)
            return
        if isinstance(stmt, ast.With):
            for item in stmt.items:
                self._expr_effects(item.context_expr)
            self.run(stmt.body)
            return
        if isinstance(stmt, ast.Try):
            self.run(stmt.body)
            for handler in stmt.handlers:
                saved = dict(self.outstanding)
                self.run(handler.body)
                self.outstanding = saved
            self.run(stmt.orelse)
            self.run(stmt.finalbody)
            return
        if isinstance(stmt, ast.Expr):
            op = self._nb_call(stmt.value)
            if op is not None:
                self.findings.append(
                    Finding(
                        self.path,
                        stmt.value.lineno,
                        stmt.value.col_offset,
                        "SPMD002",
                        f"request from '{op}' is discarded at the call "
                        f"site; nothing can ever wait it",
                    )
                )
                return
            self._expr_effects(stmt.value)
            return
        if isinstance(stmt, ast.Assign):
            self._assign(stmt.targets, stmt.value)
            return
        if isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            self._assign([stmt.target], stmt.value)
            return
        if isinstance(stmt, ast.Return) and stmt.value is not None:
            self._escape_names(stmt.value)
            self._expr_effects(stmt.value)
            return
        self._expr_effects(stmt)

    def _assign(self, targets: list[ast.expr], value: ast.expr) -> None:
        op = self._nb_call(value)
        if op is not None and len(targets) == 1 and isinstance(
            targets[0], ast.Name
        ):
            self._check_blocking(value)
            self._record(targets[0].id, op, value)
            return
        self._expr_effects(value)
        # A request list built by comprehension stays trackable under
        # the assigned name: `reqs = [comm.isend(...) for ...]`.
        if (
            len(targets) == 1
            and isinstance(targets[0], ast.Name)
            and isinstance(value, (ast.ListComp, ast.GeneratorExp))
        ):
            nb = self._nb_calls_anywhere(value)
            if nb:
                name, call = nb[0]
                self._record(targets[0].id, name, call)

    def _expr_effects(self, node: ast.AST | None) -> None:
        """Process waits, escapes, blocking collectives and stray posts
        inside one expression, in that order."""
        if node is None:
            return
        self._process_waits(node)
        self._escape_names(node)
        self._check_blocking(node)

    def _process_waits(self, node: ast.AST) -> None:
        for call in ast.walk(node):
            if not isinstance(call, ast.Call):
                continue
            if _method_name(call) != "wait":
                continue
            target = call.func.value  # type: ignore[union-attr]
            if isinstance(target, ast.Name):
                self._consume(target.id)

    def _escape_names(self, node: ast.AST) -> None:
        """Names flowing into calls, containers, yields or returns are
        consumed — their new owner carries the wait obligation."""
        for sub in ast.walk(node):
            names: list[ast.expr] = []
            if isinstance(sub, ast.Call):
                names = list(sub.args) + [kw.value for kw in sub.keywords]
            elif isinstance(sub, (ast.List, ast.Tuple, ast.Set)):
                names = list(sub.elts)
            elif isinstance(sub, ast.Dict):
                names = [v for v in sub.values if v is not None]
            elif isinstance(sub, (ast.Yield, ast.YieldFrom)) and sub.value:
                names = [sub.value]
            elif isinstance(sub, ast.comprehension):
                names = [sub.iter]
            for expr in names:
                if isinstance(expr, ast.Name) and expr.id in self.outstanding:
                    self._consume(expr.id)

    def _check_blocking(self, node: ast.AST) -> None:
        if not self.outstanding:
            return
        for call in ast.walk(node):
            if not isinstance(call, ast.Call):
                continue
            name = _method_name(call)
            if name in BLOCKING_COLLECTIVES:
                posted = ", ".join(
                    f"'{p.op}' (line {p.line})"
                    for p in self.outstanding.values()
                )
                self.findings.append(
                    Finding(
                        self.path,
                        call.lineno,
                        call.col_offset,
                        "SPMD003",
                        f"blocking collective '{name}' runs while "
                        f"non-blocking post(s) {posted} are outstanding; "
                        f"wait them first or keep the pipeline "
                        f"non-blocking",
                    )
                )


def _check_requests(tree: ast.AST, path: str) -> list[Finding]:
    findings = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            analyzer = _RegionAnalyzer(path)
            analyzer.run(node.body)
            analyzer.finish()
            findings.extend(analyzer.findings)
    return findings


# -- SPMD005: mutable default arguments --------------------------------------


def _is_mutable_default(node: ast.expr) -> bool:
    if isinstance(node, (ast.List, ast.Dict, ast.Set, ast.ListComp,
                         ast.DictComp, ast.SetComp)):
        return True
    if isinstance(node, ast.Call):
        func = node.func
        name = func.attr if isinstance(func, ast.Attribute) else getattr(
            func, "id", None
        )
        return name in _MUTABLE_FACTORIES
    return False


def _check_mutable_defaults(tree: ast.AST, path: str) -> list[Finding]:
    findings = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        args = node.args
        defaults = list(args.defaults) + [
            d for d in args.kw_defaults if d is not None
        ]
        for default in defaults:
            if _is_mutable_default(default):
                findings.append(
                    Finding(
                        path,
                        default.lineno,
                        default.col_offset,
                        "SPMD005",
                        f"mutable default argument in '{node.name}' is "
                        f"shared across calls (and across ranks on the "
                        f"thread backend); default to None and allocate "
                        f"inside",
                    )
                )
    return findings


# -- SPMD006: REPRO_* environment reads outside repro.config ------------------


def _repro_key(node: ast.expr) -> str | None:
    """Spelling of an env-var key expression when it names a REPRO_ knob.

    Matches string literals starting ``REPRO_`` and names/attributes
    ending ``_ENV_VAR`` (the repo's constant convention, e.g.
    ``FAULTS_ENV_VAR``).
    """
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value if node.value.startswith("REPRO_") else None
    name = None
    if isinstance(node, ast.Name):
        name = node.id
    elif isinstance(node, ast.Attribute):
        name = node.attr
    if name is not None and name.endswith("_ENV_VAR"):
        return name
    return None


def _is_environ(node: ast.expr) -> bool:
    """Whether an expression is ``os.environ`` (or a bare ``environ``)."""
    if isinstance(node, ast.Attribute):
        return node.attr == "environ"
    return isinstance(node, ast.Name) and node.id == "environ"


def _check_env_reads(tree: ast.AST, path: str) -> list[Finding]:
    if "repro/config" in Path(path).as_posix():
        # The config package is the designated resolver; its env_default
        # is the one legal reader.
        return []
    findings = []
    for node in ast.walk(tree):
        key = None
        how = None
        if (
            isinstance(node, ast.Subscript)
            and isinstance(node.ctx, ast.Load)
            and _is_environ(node.value)
        ):
            key = _repro_key(node.slice)
            how = "os.environ[...]"
        elif isinstance(node, ast.Call):
            func = node.func
            if (
                isinstance(func, ast.Attribute)
                and func.attr == "get"
                and _is_environ(func.value)
                and node.args
            ):
                key = _repro_key(node.args[0])
                how = "os.environ.get(...)"
            elif (
                (
                    isinstance(func, ast.Attribute)
                    and func.attr == "getenv"
                )
                or (isinstance(func, ast.Name) and func.id == "getenv")
            ) and node.args:
                key = _repro_key(node.args[0])
                how = "os.getenv(...)"
        if key is None or how is None:
            continue
        findings.append(
            Finding(
                path,
                node.lineno,
                node.col_offset,
                "SPMD006",
                f"{how} read of {key} outside repro.config; resolve it "
                f"through repro.config (resolve_config / default_for) so "
                f"the knob is decided once at the run_spmd boundary and "
                f"reaches pooled workers",
            )
        )
    return findings


# -- SPMD007: shm allocation sites and their error handling -------------------

#: Layers allowed to allocate shared memory directly: the transport's
#: choke point (``create_segment`` fires the ``arena`` fault site and
#: charges the governor) and the fault status board.  Everything else
#: must allocate *through* it so every segment is gated, charged and
#: crash-audited.
_SHM_ALLOC_EXEMPT = (
    "repro/mpi/process_transport",
    "repro/faults/status",
)

#: Call spellings that allocate a shared segment.
_SHM_ALLOC_CALLS = frozenset({"create_segment", "SharedMemory"})

#: ``except`` types that discriminate by construction — OSError
#: subclasses narrower than the exhaustion set.
_NARROW_OSERRORS = frozenset(
    {
        "FileNotFoundError",
        "FileExistsError",
        "PermissionError",
        "NotADirectoryError",
        "IsADirectoryError",
        "InterruptedError",
        "BrokenPipeError",
        "ConnectionError",
        "TimeoutError",
    }
)


def _alloc_call_name(call: ast.Call) -> str | None:
    func = call.func
    name = func.attr if isinstance(func, ast.Attribute) else getattr(
        func, "id", None
    )
    if name not in _SHM_ALLOC_CALLS:
        return None
    if name == "SharedMemory":
        # Attaching by name reserves nothing; only create=True allocates.
        for kw in call.keywords:
            if kw.arg == "create" and not (
                isinstance(kw.value, ast.Constant) and kw.value.value is False
            ):
                return name
        return None
    return name


def _handler_names(handler: ast.ExceptHandler) -> set[str]:
    """The exception-type spellings an ``except`` clause catches."""
    node = handler.type
    types = (
        node.elts if isinstance(node, ast.Tuple) else [node]
        if node is not None else []
    )
    out = set()
    for t in types:
        if isinstance(t, ast.Name):
            out.add(t.id)
        elif isinstance(t, ast.Attribute):
            out.add(t.attr)
    return out


def _discriminates_errno(handler: ast.ExceptHandler) -> bool:
    """Whether the handler body inspects which error actually happened:
    an ``.errno`` read, or a call into the resources routing helpers."""
    for sub in ast.walk(handler):
        if isinstance(sub, ast.Attribute) and sub.attr == "errno":
            return True
        if isinstance(sub, ast.Call):
            name = _method_name(sub) or getattr(sub.func, "id", None)
            if name in ("is_exhaustion", "strerror"):
                return True
        if isinstance(sub, ast.Name) and sub.id in (
            "EXHAUSTED_ERRNOS", "errno"
        ):
            return True
    return False


def _check_shm_alloc(tree: ast.AST, path: str) -> list[Finding]:
    posix = Path(path).as_posix()
    exempt = any(part in posix for part in _SHM_ALLOC_EXEMPT)
    findings = []
    if not exempt:
        for call in (
            sub for sub in ast.walk(tree) if isinstance(sub, ast.Call)
        ):
            name = _alloc_call_name(call)
            if name is None:
                continue
            findings.append(
                Finding(
                    path,
                    call.lineno,
                    call.col_offset,
                    "SPMD007",
                    f"direct shm allocation '{name}' outside the "
                    f"transport layer bypasses the fault gate, the "
                    f"accounting and the crash audit; allocate through "
                    f"repro.mpi.process_transport.create_segment",
                )
            )
    # Everywhere (exempt layers included): an allocation guarded by a
    # broad OSError handler must route on errno, or exhaustion is
    # swallowed instead of degrading.
    for node in ast.walk(tree):
        if not isinstance(node, ast.Try):
            continue
        allocs = sorted(
            {
                name
                for call in _calls_in(node.body)
                if (name := _alloc_call_name(call)) is not None
            }
        )
        if not allocs:
            continue
        for handler in node.handlers:
            caught = _handler_names(handler)
            if "OSError" not in caught and "EnvironmentError" not in caught:
                continue
            if caught & _NARROW_OSERRORS and len(caught) == len(
                caught & _NARROW_OSERRORS
            ):
                continue  # pragma: no cover - tuple of narrow subclasses
            if _discriminates_errno(handler):
                continue
            findings.append(
                Finding(
                    path,
                    handler.lineno,
                    handler.col_offset,
                    "SPMD007",
                    f"'except OSError' around shm allocation(s) "
                    f"{', '.join(allocs)} does not discriminate errno; "
                    f"check exc.errno (or resources.is_exhaustion) so "
                    f"ENOSPC/ENOMEM degrade instead of being swallowed",
                )
            )
    return findings


# -- SPMD008: implicit float64 in dtype-following layers ----------------------

#: Layers whose kernels follow the working tensor's dtype (the mixed-
#: precision contract, see :mod:`repro.core.precision`): a dtype-less
#: allocation there silently upcasts a float32 pipeline to float64 —
#: results stay right, but the narrow-word compute and communication the
#: mode was selected for is quietly lost.  Other layers (config, io,
#: perfmodel...) carry no working dtype and are not checked.
_DTYPE_SCOPED = ("repro/tensor/", "repro/distributed/")

#: Allocators whose default dtype is float64.
_DTYPE_ALLOC_CALLS = frozenset({"empty", "zeros", "ones", "full"})

#: Converters that default literal (list/tuple) input to float64.
_DTYPE_CONVERT_CALLS = frozenset({"array", "asarray", "asfortranarray"})


def _np_call_name(call: ast.Call) -> str | None:
    """The function name of a ``np.xxx(...)``/``numpy.xxx(...)`` call."""
    func = call.func
    if (
        isinstance(func, ast.Attribute)
        and isinstance(func.value, ast.Name)
        and func.value.id in ("np", "numpy")
    ):
        return func.attr
    return None


def _check_implicit_dtype(tree: ast.AST, path: str) -> list[Finding]:
    posix = Path(path).as_posix()
    if not any(part in posix for part in _DTYPE_SCOPED):
        return []
    findings = []
    for call in (n for n in ast.walk(tree) if isinstance(n, ast.Call)):
        name = _np_call_name(call)
        if name is None:
            continue
        if any(kw.arg == "dtype" for kw in call.keywords):
            continue
        if name in _DTYPE_ALLOC_CALLS:
            # A positional dtype also counts: np.zeros(shape, np.float32),
            # np.full(shape, fill, np.float32).
            if len(call.args) >= (3 if name == "full" else 2):
                continue
            findings.append(
                Finding(
                    path,
                    call.lineno,
                    call.col_offset,
                    "SPMD008",
                    f"np.{name} without dtype= allocates float64 in a "
                    f"dtype-following layer; pass the working dtype "
                    f"(e.g. arr.dtype or match_dtype(...)) so float32 "
                    f"pipelines stay narrow",
                )
            )
        elif (
            name in _DTYPE_CONVERT_CALLS
            and len(call.args) == 1
            and isinstance(call.args[0], (ast.List, ast.Tuple, ast.ListComp))
        ):
            findings.append(
                Finding(
                    path,
                    call.lineno,
                    call.col_offset,
                    "SPMD008",
                    f"np.{name} of a literal without dtype= defaults to "
                    f"float64 in a dtype-following layer; state the "
                    f"intended dtype explicitly",
                )
            )
    return findings


# -- driver ------------------------------------------------------------------

_CHECKS = {
    "SPMD001": _check_rank_branches,
    "SPMD002": _check_requests,
    "SPMD003": _check_requests,
    "SPMD005": _check_mutable_defaults,
    "SPMD006": _check_env_reads,
    "SPMD007": _check_shm_alloc,
    "SPMD008": _check_implicit_dtype,
}


def _suppressed(source_lines: list[str], finding: Finding) -> bool:
    if not 1 <= finding.line <= len(source_lines):
        return False
    line = source_lines[finding.line - 1]
    marker = "# repro-lint:"
    idx = line.find(marker)
    if idx < 0:
        return False
    directive = line[idx + len(marker):].strip()
    if not directive.startswith("disable="):
        return False
    codes = {c.strip() for c in directive[len("disable="):].split(",")}
    return "all" in codes or finding.code in codes


def lint_source(
    source: str, path: str, select: set[str] | None = None
) -> list[Finding]:
    """Lint one source blob; returns findings sorted by position."""
    tree = ast.parse(source, filename=path)
    selected = set(RULES) if select is None else select
    findings: list[Finding] = []
    ran: set = set()
    for code in sorted(selected):
        check = _CHECKS[code]
        if check in ran:
            continue  # SPMD002/003 share one analyzer pass
        ran.add(check)
        findings.extend(check(tree, path))
    lines = source.splitlines()
    seen = set()
    out = []
    for f in sorted(findings, key=lambda f: (f.line, f.col, f.code)):
        if f.code not in selected or _suppressed(lines, f):
            continue
        key = (f.line, f.col, f.code)
        if key in seen:
            continue
        seen.add(key)
        out.append(f)
    return out


def lint_paths(
    paths: list[str], select: set[str] | None = None
) -> tuple[list[Finding], list[str]]:
    """Lint files/directories; returns (findings, unreadable-path errors)."""
    findings: list[Finding] = []
    errors: list[str] = []
    files: list[Path] = []
    for raw in paths:
        p = Path(raw)
        if p.is_dir():
            files.extend(sorted(p.rglob("*.py")))
        elif p.is_file():
            files.append(p)
        else:
            errors.append(f"{raw}: no such file or directory")
    for file in files:
        try:
            source = file.read_text()
        except OSError as exc:
            errors.append(f"{file}: {exc}")
            continue
        try:
            findings.extend(lint_source(source, str(file), select))
        except SyntaxError as exc:
            errors.append(f"{file}: syntax error: {exc}")
    return findings, errors


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-lint",
        description="SPMD-aware static checks for repro.mpi programs",
    )
    parser.add_argument("paths", nargs="*", help="files or directories")
    parser.add_argument(
        "--select",
        default=None,
        help="comma-separated rule codes to run (default: all)",
    )
    parser.add_argument(
        "--json", action="store_true", help="emit findings as JSON"
    )
    parser.add_argument(
        "--list-rules", action="store_true", help="describe every rule"
    )
    args = parser.parse_args(argv)

    if args.list_rules:
        for code, summary in sorted(RULES.items()):
            print(f"{code}  {summary}")
        return 0
    if not args.paths:
        parser.print_usage(sys.stderr)
        print("repro-lint: error: no paths given", file=sys.stderr)
        return 2
    select = None
    if args.select:
        select = {c.strip() for c in args.select.split(",") if c.strip()}
        unknown = select - set(RULES)
        if unknown:
            print(
                f"repro-lint: error: unknown rule(s) "
                f"{', '.join(sorted(unknown))}; known: "
                f"{', '.join(sorted(RULES))}",
                file=sys.stderr,
            )
            return 2
    findings, errors = lint_paths(args.paths, select)
    if args.json:
        print(json.dumps([f.as_json() for f in findings], indent=2))
    else:
        for f in findings:
            print(f.render())
    for err in errors:
        print(f"repro-lint: error: {err}", file=sys.stderr)
    if errors:
        return 2
    return 1 if findings else 0


if __name__ == "__main__":
    sys.exit(main())
