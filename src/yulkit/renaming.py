"""Consistent-renaming relations and a reference renamer.

Disambiguation — making every variable and function name unique across a
program — is checked rather than trusted: two programs stand in the relation
when they are structurally identical up to an injective renaming of variables
and, separately, of functions, and the new side's names are globally unique.
The relation is the composition of four independent checks (variable renaming,
function renaming, variable uniqueness, function uniqueness).

Variable and function names cannot be checked in isolation when both changed,
so one traversal carries a renaming per namespace.  Variables are always
mapped.  Function names are held rigid by the variable relation
(statement_renamevar, block_renamevar) and mapped by the combined
disambiguation check (check_disambiguation).

Renamings are ordered injective pair lists, looked up first-match; scoping
mirrors the static semantics (declarations extend the renaming to the end of
the block, for-loop initializers extend over the loop, function bodies restart
from the parameter pairs, block-hoisted function definitions extend at block
entry and are dropped at exit).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple, Union
import enum

from ._stack import ensure_recursion_headroom
from .ast import (
    AssignMulti,
    AssignSingle,
    Block,
    BlockStmt,
    Break,
    Continue,
    Expression,
    For,
    FunCall,
    FunCallExpr,
    FunCallStmt,
    FunDef,
    FunDefStmt,
    Identifier,
    If,
    Leave,
    LiteralExpr,
    Path,
    PathExpr,
    Statement,
    SwCase,
    Switch,
    VariableMulti,
    VariableSingle,
    declarations,
    hoisted_fundefs,
)
from .dynamics import CState, EvalError, FunEnv, FunInfo, SOutcome


class RenameKind(enum.Enum):
    SHAPE_MISMATCH = "shape-mismatch"
    UNMAPPED_NAME = "unmapped-name"
    INJECTIVITY_VIOLATION = "injectivity-violation"
    ARITY_MISMATCH = "arity-mismatch"
    LITERAL_MISMATCH = "literal-mismatch"


class RenameError(Exception):
    """Raised when two trees are not related by a consistent renaming."""

    def __init__(self, kind: RenameKind, context: str):
        super().__init__(f"{kind.value}: {context}")
        self.kind = kind
        self.context = context


@dataclass(frozen=True)
class Renaming:
    """An ordered, injective association of old names to new names.  Lookup
    takes the first matching pair."""

    pairs: Tuple[Tuple[str, str], ...]

    def __post_init__(self) -> None:
        olds = [o for o, _ in self.pairs]
        news = [n for _, n in self.pairs]
        if len(set(olds)) != len(olds) or len(set(news)) != len(news):
            raise ValueError("renaming is not injective")

    def lookup(self, old: str) -> Optional[str]:
        for o, n in self.pairs:
            if o == old:
                return n
        return None

    def has_value(self, new: str) -> bool:
        return any(n == new for _, n in self.pairs)

    def old_names(self) -> Tuple[str, ...]:
        return tuple(o for o, _ in self.pairs)

    def new_names(self) -> Tuple[str, ...]:
        return tuple(n for _, n in self.pairs)


EMPTY_RENAMING = Renaming(())


def add_var_to_renaming(ren: Renaming, old: str, new: str) -> Renaming:
    """Append one pair; a repeated old name or repeated new name is an
    injectivity violation."""
    if ren.lookup(old) is not None:
        raise RenameError(RenameKind.INJECTIVITY_VIOLATION, f"{old} already renamed")
    if ren.has_value(new):
        raise RenameError(RenameKind.INJECTIVITY_VIOLATION, f"{new} already a target")
    return Renaming(ren.pairs + ((old, new),))


# --- the paired traversal ---------------------------------------------------------
#
# One walker checks old against new.  The variable namespace is mapped: it
# threads a Renaming (declarations extend it, uses must map through it).  The
# function namespace is mapped the same way, or rigid, passed as None, when
# old and new function names must be equal.  Function names not bound by any
# visible definition (builtins) are free: under a mapped function namespace
# they must be left unchanged and must not collide with any renaming target.

def _same_count(olds, news, what: str) -> None:
    if len(olds) != len(news):
        raise RenameError(RenameKind.SHAPE_MISMATCH, f"{len(olds)} {what} vs {len(news)}")


def _both_present(old, new, what: str) -> bool:
    """Whether an optional part is present on both sides; present on one side
    only is a shape mismatch."""
    if (old is None) != (new is None):
        raise RenameError(RenameKind.SHAPE_MISMATCH, f"{what} vs none")
    return old is not None


class _PairWalker:
    # name policies

    def var_use(self, old: Identifier, new: Identifier, vren: Renaming) -> None:
        mapped = vren.lookup(old.text)
        if mapped is None:
            raise RenameError(RenameKind.UNMAPPED_NAME, f"variable {old.text}")
        if mapped != new.text:
            raise RenameError(
                RenameKind.UNMAPPED_NAME,
                f"variable {old.text} renames to {mapped}, found {new.text}",
            )

    def var_decl(self, old: Identifier, new: Identifier, vren: Renaming) -> Renaming:
        return add_var_to_renaming(vren, old.text, new.text)

    def fun_use(self, old: Identifier, new: Identifier, fren: Optional[Renaming]) -> None:
        if fren is None:
            if old.text != new.text:
                raise RenameError(
                    RenameKind.SHAPE_MISMATCH, f"function {old.text} vs {new.text}"
                )
            return
        mapped = fren.lookup(old.text)
        if mapped is not None:
            if mapped != new.text:
                raise RenameError(
                    RenameKind.UNMAPPED_NAME,
                    f"function {old.text} renames to {mapped}, found {new.text}",
                )
            return
        # free name (a builtin, or unbound): untouched and uncaptured
        if old.text != new.text:
            raise RenameError(RenameKind.UNMAPPED_NAME, f"free function name {old.text}")
        if fren.has_value(new.text):
            raise RenameError(
                RenameKind.INJECTIVITY_VIOLATION,
                f"free function name {new.text} collides with a renaming target",
            )

    def fun_decls(
        self,
        old_defs: Tuple[FunDef, ...],
        new_defs: Tuple[FunDef, ...],
        fren: Optional[Renaming],
    ) -> Optional[Renaming]:
        _same_count(old_defs, new_defs, "function definition(s)")
        for fo, fn in zip(old_defs, new_defs):
            if fren is None:
                self.fun_use(fo.name, fn.name, None)
            else:
                fren = add_var_to_renaming(fren, fo.name.text, fn.name.text)
        return fren

    # structure

    def path(self, old: Path, new: Path, vren: Renaming) -> None:
        if len(old.parts) != 1 or len(new.parts) != 1:
            raise RenameError(RenameKind.SHAPE_MISMATCH, f"multi-part path {old} vs {new}")
        self.var_use(old.parts[0], new.parts[0], vren)

    def expression(
        self,
        old: Expression,
        new: Expression,
        vren: Renaming,
        fren: Optional[Renaming],
    ) -> None:
        if type(old) is not type(new):
            raise RenameError(
                RenameKind.SHAPE_MISMATCH,
                f"{type(old).__name__} vs {type(new).__name__}",
            )
        if isinstance(old, PathExpr):
            self.path(old.path, new.path, vren)
        elif isinstance(old, LiteralExpr):
            if old.literal != new.literal:
                raise RenameError(
                    RenameKind.LITERAL_MISMATCH, f"{old.literal} vs {new.literal}"
                )
        elif isinstance(old, FunCallExpr):
            self.funcall(old.call, new.call, vren, fren)
        else:
            raise TypeError(f"not an expression: {type(old).__name__}")

    def funcall(
        self, old: FunCall, new: FunCall, vren: Renaming, fren: Optional[Renaming]
    ) -> None:
        self.fun_use(old.name, new.name, fren)
        if len(old.args) != len(new.args):
            raise RenameError(
                RenameKind.ARITY_MISMATCH,
                f"{old.name.text} called with {len(old.args)} vs {len(new.args)} arguments",
            )
        for ao, an in zip(old.args, new.args):
            self.expression(ao, an, vren, fren)

    def statement_list(
        self,
        olds: Tuple[Statement, ...],
        news: Tuple[Statement, ...],
        vren: Renaming,
        fren: Optional[Renaming],
    ) -> Renaming:
        _same_count(olds, news, "statement(s)")
        for so, sn in zip(olds, news):
            vren = self.statement(so, sn, vren, fren)
        return vren

    def block(
        self, old: Block, new: Block, vren: Renaming, fren: Optional[Renaming]
    ) -> None:
        # Hoisted definitions extend the function renaming for the whole
        # block; variable extensions stay inside it.  Neither escapes.
        ensure_recursion_headroom()
        fren = self.fun_decls(hoisted_fundefs(old), hoisted_fundefs(new), fren)
        self.statement_list(old.statements, new.statements, vren, fren)

    def statement(
        self,
        old: Statement,
        new: Statement,
        vren: Renaming,
        fren: Optional[Renaming],
    ) -> Renaming:
        if type(old) is not type(new):
            raise RenameError(
                RenameKind.SHAPE_MISMATCH,
                f"{type(old).__name__} vs {type(new).__name__}",
            )

        if isinstance(old, BlockStmt):
            self.block(old.block, new.block, vren, fren)
            return vren

        if isinstance(old, VariableSingle):
            if _both_present(old.init, new.init, f"initializer of {old.name.text}"):
                self.expression(old.init, new.init, vren, fren)
            return self.var_decl(old.name, new.name, vren)

        if isinstance(old, VariableMulti):
            _same_count(old.names, new.names, "declared names")
            if _both_present(old.init, new.init, "initializer"):
                self.funcall(old.init, new.init, vren, fren)
            for no, nn in zip(old.names, new.names):
                vren = self.var_decl(no, nn, vren)
            return vren

        if isinstance(old, AssignSingle):
            self.path(old.target, new.target, vren)
            self.expression(old.value, new.value, vren, fren)
            return vren

        if isinstance(old, AssignMulti):
            _same_count(old.targets, new.targets, "targets")
            for to, tn in zip(old.targets, new.targets):
                self.path(to, tn, vren)
            self.funcall(old.value, new.value, vren, fren)
            return vren

        if isinstance(old, FunCallStmt):
            self.funcall(old.call, new.call, vren, fren)
            return vren

        if isinstance(old, If):
            self.expression(old.test, new.test, vren, fren)
            self.block(old.body, new.body, vren, fren)
            return vren

        if isinstance(old, Switch):
            self.expression(old.target, new.target, vren, fren)
            _same_count(old.cases, new.cases, "cases")
            for co, cn in zip(old.cases, new.cases):
                if co.value != cn.value:
                    raise RenameError(
                        RenameKind.LITERAL_MISMATCH, f"case {co.value} vs {cn.value}"
                    )
                self.block(co.body, cn.body, vren, fren)
            if _both_present(old.default, new.default, "default block"):
                self.block(old.default, new.default, vren, fren)
            return vren

        if isinstance(old, For):
            # Initializer declarations and definitions scope over the whole
            # loop, then fall away.
            loop_fren = self.fun_decls(
                hoisted_fundefs(old.init), hoisted_fundefs(new.init), fren
            )
            loop_vren = self.statement_list(
                old.init.statements, new.init.statements, vren, loop_fren
            )
            self.expression(old.test, new.test, loop_vren, loop_fren)
            self.block(old.update, new.update, loop_vren, loop_fren)
            self.block(old.body, new.body, loop_vren, loop_fren)
            return vren

        if isinstance(old, (Break, Continue, Leave)):
            return vren

        if isinstance(old, FunDefStmt):
            # Variables rename independently per function: the body starts
            # from the parameter pairs alone.
            self.fundef(old.fundef, new.fundef, EMPTY_RENAMING, fren)
            return vren

        raise TypeError(f"not a statement: {type(old).__name__}")

    def fundef(
        self, old: FunDef, new: FunDef, vren: Renaming, fren: Optional[Renaming]
    ) -> None:
        self.fun_use(old.name, new.name, fren)
        if len(old.inputs) != len(new.inputs) or len(old.outputs) != len(new.outputs):
            raise RenameError(
                RenameKind.ARITY_MISMATCH,
                f"function {old.name.text}: {len(old.inputs)}->{len(old.outputs)} "
                f"vs {len(new.inputs)}->{len(new.outputs)}",
            )
        for po, pn in zip(old.inputs + old.outputs, new.inputs + new.outputs):
            vren = self.var_decl(po, pn, vren)
        self.block(old.body, new.body, vren, fren)


_WALKER = _PairWalker()


# --- variable renaming (function names rigid) ----------------------------------------

def statement_renamevar(old: Statement, new: Statement, ren: Renaming) -> Renaming:
    """Check one statement pair; returns the renaming extended with the
    statement's declarations."""
    return _WALKER.statement(old, new, ren, None)


def block_renamevar(old: Block, new: Block, ren: Renaming) -> Renaming:
    """Check a block pair; a block contributes no renamings outside itself,
    so the input renaming is returned unchanged."""
    _WALKER.block(old, new, ren, None)
    return ren


# --- uniqueness and the combined disambiguation check ----------------------------------

def unique_vars(block: Block) -> bool:
    """True iff no variable name is declared twice anywhere (let-bound names
    and function parameters/results alike), visible or not."""
    return _unique_decls(block, want_vars=True)


def unique_funs(block: Block) -> bool:
    """True iff no two function definitions anywhere share a name."""
    return _unique_decls(block, want_vars=False)


def _unique_decls(block: Block, want_vars: bool) -> bool:
    seen: set = set()
    for is_fun, name in declarations(block):
        if is_fun != want_vars:
            if name in seen:
                return False
            seen.add(name)
    return True


@dataclass(frozen=True)
class DisambiguationCertificate:
    """The witness for an accepted disambiguation: the top-level renamings of
    the two namespaces (nested scopes extend them transiently during the
    check)."""

    variable_renaming: Renaming
    function_renaming: Renaming


def check_disambiguation(old: Block, new: Block) -> DisambiguationCertificate:
    """Accept iff `new` is `old` under a consistent renaming of variables and
    of functions, and `new`'s names are globally unique.  Raises RenameError
    otherwise."""
    fren = _WALKER.fun_decls(hoisted_fundefs(old), hoisted_fundefs(new), EMPTY_RENAMING)
    vren = _WALKER.statement_list(old.statements, new.statements, EMPTY_RENAMING, fren)
    if not unique_vars(new):
        raise RenameError(
            RenameKind.INJECTIVITY_VIOLATION, "a variable name repeats in the new code"
        )
    if not unique_funs(new):
        raise RenameError(
            RenameKind.INJECTIVITY_VIOLATION, "a function name repeats in the new code"
        )
    return DisambiguationCertificate(vren, fren)


# --- a concrete renamer ------------------------------------------------------------------

class _Renamer:
    """Deterministic whole-program renamer: keeps a name when it is still
    unused, otherwise appends the smallest numeric suffix that is.  Total on
    any tree; on statically safe input its output passes
    check_disambiguation.  With rename_funs off, function names are left
    untouched (the variable half of the transformation)."""

    def __init__(self, rename_funs: bool = True) -> None:
        self.rename_funs = rename_funs
        self.used_vars: set = set()
        self.used_funs: set = set()

    @staticmethod
    def _fresh(base: str, used: set) -> str:
        name = base
        k = 0
        while name in used:
            k += 1
            name = f"{base}{k}"
        used.add(name)
        return name

    def block(self, block: Block, vmap: Dict[str, str], fmap: Dict[str, str]) -> Block:
        ensure_recursion_headroom()
        vmap = dict(vmap)
        fmap = self._hoist(block, fmap)
        return Block(tuple(self.statement(s, vmap, fmap) for s in block.statements))

    def _hoist(self, block: Block, fmap: Dict[str, str]) -> Dict[str, str]:
        fmap = dict(fmap)
        for fd in hoisted_fundefs(block):
            if self.rename_funs:
                fmap[fd.name.text] = self._fresh(fd.name.text, self.used_funs)
            else:
                fmap[fd.name.text] = fd.name.text
        return fmap

    def _declare(self, name: Identifier, vmap: Dict[str, str]) -> Identifier:
        fresh = self._fresh(name.text, self.used_vars)
        vmap[name.text] = fresh
        return Identifier(fresh)

    def _path(self, path: Path, vmap: Dict[str, str]) -> Path:
        if len(path.parts) != 1:
            return path  # dotted paths are member accesses, not variables
        name = path.parts[0].text
        return Path((Identifier(vmap.get(name, name)),))

    def expression(self, expr: Expression, vmap: Dict[str, str], fmap: Dict[str, str]) -> Expression:
        if isinstance(expr, PathExpr):
            return PathExpr(self._path(expr.path, vmap))
        if isinstance(expr, LiteralExpr):
            return expr
        if isinstance(expr, FunCallExpr):
            return FunCallExpr(self.funcall(expr.call, vmap, fmap))
        raise TypeError(f"not an expression: {type(expr).__name__}")

    def funcall(self, call: FunCall, vmap: Dict[str, str], fmap: Dict[str, str]) -> FunCall:
        name = Identifier(fmap.get(call.name.text, call.name.text))
        return FunCall(name, tuple(self.expression(a, vmap, fmap) for a in call.args))

    def statement(self, stmt: Statement, vmap: Dict[str, str], fmap: Dict[str, str]) -> Statement:
        # vmap is owned by the enclosing block/loop walk and mutated by
        # declarations; fmap is fixed for the scope.
        if isinstance(stmt, BlockStmt):
            return BlockStmt(self.block(stmt.block, vmap, fmap))
        if isinstance(stmt, VariableSingle):
            init = None if stmt.init is None else self.expression(stmt.init, vmap, fmap)
            return VariableSingle(self._declare(stmt.name, vmap), init)
        if isinstance(stmt, VariableMulti):
            init = None if stmt.init is None else self.funcall(stmt.init, vmap, fmap)
            return VariableMulti(tuple(self._declare(n, vmap) for n in stmt.names), init)
        if isinstance(stmt, AssignSingle):
            return AssignSingle(
                self._path(stmt.target, vmap), self.expression(stmt.value, vmap, fmap)
            )
        if isinstance(stmt, AssignMulti):
            return AssignMulti(
                tuple(self._path(t, vmap) for t in stmt.targets),
                self.funcall(stmt.value, vmap, fmap),
            )
        if isinstance(stmt, FunCallStmt):
            return FunCallStmt(self.funcall(stmt.call, vmap, fmap))
        if isinstance(stmt, If):
            return If(self.expression(stmt.test, vmap, fmap), self.block(stmt.body, vmap, fmap))
        if isinstance(stmt, Switch):
            return Switch(
                self.expression(stmt.target, vmap, fmap),
                tuple(SwCase(c.value, self.block(c.body, vmap, fmap)) for c in stmt.cases),
                None if stmt.default is None else self.block(stmt.default, vmap, fmap),
            )
        if isinstance(stmt, For):
            loop_vmap = dict(vmap)
            loop_fmap = self._hoist(stmt.init, fmap)
            init = Block(
                tuple(self.statement(s, loop_vmap, loop_fmap) for s in stmt.init.statements)
            )
            return For(
                init,
                self.expression(stmt.test, loop_vmap, loop_fmap),
                self.block(stmt.update, loop_vmap, loop_fmap),
                self.block(stmt.body, loop_vmap, loop_fmap),
            )
        if isinstance(stmt, (Break, Continue, Leave)):
            return stmt
        if isinstance(stmt, FunDefStmt):
            fd = stmt.fundef
            body_vmap: Dict[str, str] = {}
            inputs = tuple(self._declare(p, body_vmap) for p in fd.inputs)
            outputs = tuple(self._declare(p, body_vmap) for p in fd.outputs)
            return FunDefStmt(
                FunDef(
                    Identifier(fmap[fd.name.text]),
                    inputs,
                    outputs,
                    self.block(fd.body, body_vmap, fmap),
                )
            )
        raise TypeError(f"not a statement: {type(stmt).__name__}")


def reference_disambiguate(block: Block) -> Block:
    """Rename the program so every variable and function name is globally
    unique, deterministically, changing as few names as possible."""
    return _Renamer().block(block, {}, {})


def reference_renamevar(block: Block) -> Block:
    """The variable half of reference_disambiguate: variable names become
    globally unique, function names stay untouched.  On statically safe input
    the result is accepted by the statement_renamevar family."""
    return _Renamer(rename_funs=False).block(block, {}, {})


# --- relations over dynamic state ----------------------------------------------------------

def cstate_renamevar(old: CState, new: CState, ren: Renaming) -> bool:
    """The two states' variables are exactly the renaming's old and new names,
    and paired variables hold equal values."""
    if set(old.local) != set(ren.old_names()) or set(new.local) != set(ren.new_names()):
        return False
    return all(old.local[o] == new.local[n] for o, n in ren.pairs)


def funinfo_renamevar(old: FunInfo, new: FunInfo) -> None:
    """Check that two function bodies are related by a variable renaming
    seeded from their parameter pairs.  Raises RenameError."""
    if len(old.inputs) != len(new.inputs) or len(old.outputs) != len(new.outputs):
        raise RenameError(RenameKind.ARITY_MISMATCH, "function arities differ")
    ren = EMPTY_RENAMING
    for po, pn in zip(old.inputs + old.outputs, new.inputs + new.outputs):
        ren = add_var_to_renaming(ren, po.text, pn.text)
    _WALKER.block(old.body, new.body, ren, None)


def funenv_renamevar(old: FunEnv, new: FunEnv) -> bool:
    """Same stack shape, same function names and arities per scope, and each
    pair of bodies related by an independent variable renaming."""
    if len(old) != len(new):
        return False
    for scope_old, scope_new in zip(old, new):
        if set(scope_old) != set(scope_new):
            return False
        for name in scope_old:
            try:
                funinfo_renamevar(scope_old[name], scope_new[name])
            except RenameError:
                return False
    return True


def soutcome_renamevar(old: SOutcome, new: SOutcome, ren: Renaming) -> bool:
    return old.mode is new.mode and cstate_renamevar(old.cstate, new.cstate, ren)


def soutcome_result_renamevar(
    old: Union[SOutcome, EvalError], new: Union[SOutcome, EvalError], ren: Renaming
) -> bool:
    """Both outcomes related under the renaming, or both errors."""
    if isinstance(old, SOutcome) and isinstance(new, SOutcome):
        return soutcome_renamevar(old, new, ren)
    return isinstance(old, EvalError) and isinstance(new, EvalError)
