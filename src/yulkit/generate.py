"""Generation of well-scoped Yul programs.

The generator mirrors the static checker's symbol-table threading, so every
program it emits is statically safe by construction — no generate-and-filter
bias toward trivial programs.  Loop bodies usually follow a bounded-counter
pattern so that a useful fraction of programs terminates within small fuel,
keeping the LimitError/success boundary interesting.
"""

from __future__ import annotations

import random
from bisect import bisect_right
from dataclasses import dataclass
from itertools import accumulate
from typing import Dict, FrozenSet, List, Mapping, Optional, Sequence, Set, Tuple

from .ast import (
    AssignMulti, AssignSingle, Block, BlockStmt, Break, Continue, DecNumber, Expression,
    FalseLit, For, FunCall, FunCallExpr, FunCallStmt, FunDef, FunDefStmt, HexNumber,
    HexString, Identifier, If, Leave, Literal, LiteralExpr, Path, PathExpr, PlainString,
    RawChar, Statement, SwCase, Switch, TrueLit, VariableMulti, VariableSingle, lexed_literal,
)
from .dynamics import EVM_PURE, MASK

_DEFAULT_WEIGHTS: Mapping[str, int] = {
    "let": 5,
    "let-multi": 1,
    "assign": 5,
    "assign-multi": 1,
    "funcall": 2,
    "if": 3,
    "switch": 2,
    "for": 2,
    "block": 1,
    "break": 2,
    "continue": 1,
    "leave": 2,
}

_VAR_POOL: Tuple[str, ...] = tuple("abcdemnst") + tuple(
    f"{c}{d}" for c in "abcde" for d in "0123456789"
)
_FUN_POOL: Tuple[str, ...] = tuple("fghpqruvw") + tuple(
    f"{c}{d}" for c in "fgh" for d in "0123456789"
)
# Shared by every generated tree (see _Gen): built once, never grown.
_IDENTS: Mapping[str, Identifier] = {
    name: Identifier(name) for name in (*_VAR_POOL, *_FUN_POOL, *EVM_PURE.builtins)
}
_VAR_PATHS: Mapping[str, Path] = {name: Path((_IDENTS[name],)) for name in _VAR_POOL}


@dataclass(frozen=True)
class GenConfig:
    """Knobs for gen_program.  The same seed and config always produce the
    same program."""

    seed: int
    max_depth: int = 4
    max_stmts_per_block: int = 5
    allow_fundefs: bool = True
    allow_loops: bool = True
    nested_fundefs: bool = True
    weights: Optional[Mapping[str, int]] = None
    extra_funs: Optional[Mapping[str, Tuple[int, int]]] = None

    def __post_init__(self) -> None:
        if self.max_depth < 1:
            raise ValueError("max_depth must be at least 1")
        if self.max_stmts_per_block < 1:
            raise ValueError("max_stmts_per_block must be at least 1")
        for name, (n_in, n_out) in (self.extra_funs or {}).items():
            try:
                Identifier(name)
            except ValueError as exc:
                raise ValueError(f"extra_funs: {exc}") from None
            # the generator calls some builtins with their own arity (`lt`
            # and `add` in loop headers), so an override breaks safety
            if name in EVM_PURE.builtins:
                raise ValueError(f"extra_funs: {name!r} is a builtin")
            if n_in < 0 or n_out < 0:
                raise ValueError(f"extra_funs: {name!r} has a negative argument or result count")
        if self.weights is not None:
            unknown = sorted(set(self.weights) - set(_DEFAULT_WEIGHTS))
            if unknown:
                raise ValueError(f"weights: unknown statement kind(s) {', '.join(unknown)}")
            if any(w < 0 for w in self.weights.values()):
                raise ValueError("weights must be nonnegative")
            merged = dict(_DEFAULT_WEIGHTS)
            merged.update(self.weights)
            if not any(merged.values()):
                raise ValueError("weights must not all be zero")


class _Scope:
    """A scope's function table, final once built, with its names sorted by
    output count: the candidates for an expression, a multi-variable
    declaration or assignment, and a call statement.  `least_multi` is the
    least output count of a multi-output function (infinite if there is
    none): a multi-variable assignment needs at least that many variables."""

    __slots__ = ("funs", "single", "multi", "void", "least_multi")

    def __init__(self, funs: Mapping[str, Tuple[int, int]]):
        self.funs = funs
        self.single = sorted(f for f, (_, m) in funs.items() if m == 1)
        self.multi = sorted(f for f, (_, m) in funs.items() if m >= 2)
        self.void = sorted(f for f, (_, m) in funs.items() if m == 0)
        self.least_multi = min((funs[f][1] for f in self.multi), default=float("inf"))


class _Gen:
    """One program's generator.

    Every draw goes through the private `Random._randbelow`, exactly as
    `choice` (`s[below(len(s))]`), `randrange(a, b)` (`a + below(b - a)`) and
    `randint(a, b)` (`a + below(b - a + 1)`) make it in CPython, without their
    argument checks; `random()` and `sample()` are called as they are.
    `below(0)` loops forever where `choice` would raise, so each draw from a
    list sits behind a check that the list is not empty.  The draw oracle
    (`tests/test_draw_oracle.py --check`) shows the programs unchanged on each
    Python version it is run on.

    Names are shared: one `Identifier` per pool, builtin or extra function
    name and one `Path` per variable serve every position and every tree.
    Every variable, parameter included, is drawn from `_VAR_POOL`, so
    `statement` counts the free names instead of asking `_fresh` whether one
    is left; it still makes the draw `_fresh` would make, which keeps every
    later draw where it was.  Numerals and hex strings, well formed as
    written, are made by `lexed_literal` without the constructors' checks.
    Expressions, literals, blocks and statements are made fresh per position,
    because `statics.Judgments` and `_SoundnessTracer` key those by `id()`: a
    shared node would let one position's judgment vouch for another's.
    """

    def __init__(self, cfg: GenConfig):
        self.cfg = cfg
        self.rng = random.Random(cfg.seed)
        self.below = self.rng._randbelow
        self.random = self.rng.random
        base_funs = EVM_PURE.funtable()
        if cfg.extra_funs:
            base_funs.update(cfg.extra_funs)
        self.base = _Scope(base_funs)
        self.fun_idents = dict(_IDENTS)
        self.fun_idents.update((name, Identifier(name)) for name in cfg.extra_funs or ())
        self.weights = dict(_DEFAULT_WEIGHTS)
        if cfg.weights:
            self.weights.update(cfg.weights)
        # the statement kinds on offer and their cumulative weights, keyed by
        # what decides the offer (see `statement`); at most 2**8 entries
        self.kind_tables: Dict[Tuple[bool, ...], Tuple[Tuple[str, ...], Tuple[int, ...]]] = {}

    # -- helpers

    def _fresh(self, pool: Sequence[str], taken) -> Optional[str]:
        free = []
        for name in pool:
            if name not in taken:
                free.append(name)
                if len(free) == 4:
                    break
        if not free:
            return None
        return free[self.below(len(free))]

    def _var(self, vars: Set[str]) -> Path:
        names = sorted(vars)
        return _VAR_PATHS[names[self.below(len(names))]]

    def literal(self) -> Literal:
        below = self.below
        r = self.random()
        if r < 0.40:
            return lexed_literal(DecNumber, str(below(100)))
        if r < 0.60:
            return lexed_literal(HexNumber, format(1 + below(255), "x"))
        if r < 0.70:
            return TrueLit() if self.random() < 0.5 else FalseLit()
        if r < 0.80:
            return lexed_literal(DecNumber, str(MASK // 2 + below(MASK + 1 - MASK // 2)))
        if r < 0.92:
            chars = "".join("abcxyz!? "[below(9)] for _ in range(below(7)))
            return PlainString(tuple(RawChar(c) for c in chars))
        return lexed_literal(HexString, "".join("0123456789abcdef"[below(16)] for _ in range(2 * below(5))))

    def expression(self, vars: Set[str], scope: _Scope, depth: int = 2) -> Expression:
        if depth > 0 and self.random() < 0.55:
            single = scope.single
            if single:
                name = single[self.below(len(single))]
                n, _ = scope.funs[name]
                args = []
                for _ in range(n):
                    args.append(self.expression(vars, scope, depth - 1))
                return FunCallExpr(FunCall(self.fun_idents[name], tuple(args)))
        if vars and self.random() < 0.6:
            return PathExpr(self._var(vars))
        return LiteralExpr(self.literal())

    # -- statements

    def block(
        self,
        vars: FrozenSet[str],
        scope: _Scope,
        depth: int,
        in_function: bool,
        in_loop: bool,
        at_top: bool = False,
    ) -> Block:
        below = self.below
        fundefs: List[FunDef] = []
        if (
            self.cfg.allow_fundefs
            and (at_top or self.cfg.nested_fundefs)
            and depth < self.cfg.max_depth
        ):
            n_defs = bisect_right((5, 9), below(11))  # 0, 1 or 2 at weights 5, 4, 2
            funs = dict(scope.funs)
            sigs: List[Tuple[str, int, int]] = []
            for _ in range(n_defs):
                name = self._fresh(_FUN_POOL, funs)
                if name is None:
                    break
                sig = (name, below(3), below(3))
                funs[name] = sig[1:]
                sigs.append(sig)
            if sigs:
                scope = _Scope(funs)
            # all signatures are visible before any body is generated, so
            # mutual recursion comes out naturally
            for name, n_in, n_out in sigs:
                fundefs.append(self.fundef(name, n_in, n_out, scope, depth + 1))

        stmts: List[Statement] = []
        local_vars = set(vars)
        least = 0 if depth else 1
        budget = least + below(self.cfg.max_stmts_per_block - least + 1)
        while budget > 0:
            budget -= 1
            stmt = self.statement(local_vars, scope, depth, in_function, in_loop)
            if stmt is None:
                continue
            stmts.append(stmt)
            if isinstance(stmt, (Break, Continue, Leave)):
                if self.random() < 0.4:
                    for _ in range(1 + below(2)):
                        dead = self.statement(local_vars, scope, depth, in_function, in_loop)
                        if dead is not None:
                            stmts.append(dead)
                break

        for fd in fundefs:
            stmts.insert(below(len(stmts) + 1), FunDefStmt(fd))
        return Block(tuple(stmts))

    def fundef(self, name: str, n_in: int, n_out: int, scope: _Scope, depth: int) -> FunDef:
        params: Set[str] = set()
        def fresh_param() -> Identifier:
            p = self._fresh(_VAR_POOL, params)
            assert p is not None, "parameter pool exhausted"
            params.add(p)
            return _IDENTS[p]

        inputs = tuple(fresh_param() for _ in range(n_in))
        outputs = tuple(fresh_param() for _ in range(n_out))
        body = self.block(frozenset(params), scope, depth, in_function=True, in_loop=False)
        return FunDef(self.fun_idents[name], inputs, outputs, body)

    def _kind_table(
        self,
        can_let: bool,
        let_multi: bool,
        has_vars: bool,
        assign_multi: bool,
        funcall: bool,
        nest: bool,
        in_loop: bool,
        in_function: bool,
    ) -> Tuple[Tuple[str, ...], Tuple[int, ...]]:
        """The kinds on offer with a positive weight, in a fixed order, and
        their cumulative weights."""
        offered: List[str] = []
        if can_let:
            offered.append("let")
            if let_multi:
                offered.append("let-multi")
        if has_vars:
            offered.append("assign")
            if assign_multi:
                offered.append("assign-multi")
        if funcall:
            offered.append("funcall")
        if nest:
            offered += ("if", "switch", "block")
            if self.cfg.allow_loops:
                offered.append("for")
        if in_loop:
            offered += ("break", "continue")
        if in_function:
            offered.append("leave")
        kinds = tuple(k for k in offered if self.weights[k] > 0)
        return kinds, tuple(accumulate(self.weights[k] for k in kinds))

    def statement(
        self,
        vars: Set[str],
        scope: _Scope,
        depth: int,
        in_function: bool,
        in_loop: bool,
    ) -> Optional[Statement]:
        funs, multi = scope.funs, scope.multi
        # Every variable is a pool name (see the class docstring).
        free = len(_VAR_POOL) - len(vars)
        if free > 0:
            self.below(min(free, 4))  # the draw `_fresh` would make
        key = (
            free > 0,
            bool(multi),
            bool(vars),
            # some multi-output function is assignable; each needs at least
            # two variables, so none is without variables
            scope.least_multi <= len(vars),
            bool(scope.void),
            depth < self.cfg.max_depth,
            in_loop,
            in_function,
        )
        table = self.kind_tables.get(key)
        if table is None:
            table = self.kind_tables[key] = self._kind_table(*key)
        kinds, cum = table
        if not kinds:
            return None
        # the first kind whose cumulative weight exceeds the draw
        kind = kinds[bisect_right(cum, self.below(cum[-1]))]

        if kind == "let":
            name = self._fresh(_VAR_POOL, vars)
            init = self.expression(vars, scope) if self.random() < 0.8 else None
            vars.add(name)
            return VariableSingle(_IDENTS[name], init)
        if kind == "let-multi":
            fname = multi[self.below(len(multi))]
            n, m = funs[fname]
            names: List[str] = []
            scratch = set(vars)
            for _ in range(m):
                fresh = self._fresh(_VAR_POOL, scratch)
                if fresh is None:
                    return None
                scratch.add(fresh)
                names.append(fresh)
            init = None
            if self.random() < 0.9:
                args = tuple(self.expression(vars, scope, 1) for _ in range(n))
                init = FunCall(self.fun_idents[fname], args)
            vars.update(names)
            return VariableMulti(tuple(_IDENTS[name] for name in names), init)
        if kind == "assign":
            return AssignSingle(self._var(vars), self.expression(vars, scope))
        if kind == "assign-multi":
            assignable = [f for f in multi if funs[f][1] <= len(vars)]
            fname = assignable[self.below(len(assignable))]
            n, m = funs[fname]
            targets = tuple(_VAR_PATHS[t] for t in self.rng.sample(sorted(vars), m))
            args = tuple(self.expression(vars, scope, 1) for _ in range(n))
            return AssignMulti(targets, FunCall(self.fun_idents[fname], args))
        if kind == "funcall":
            void = scope.void
            fname = void[self.below(len(void))]
            n, _ = funs[fname]
            args = tuple(self.expression(vars, scope, 1) for _ in range(n))
            return FunCallStmt(FunCall(self.fun_idents[fname], args))
        if kind == "if":
            test = self.expression(vars, scope)
            body = self.block(frozenset(vars), scope, depth + 1, in_function, in_loop)
            return If(test, body)
        if kind == "switch":
            return self._switch(vars, scope, depth, in_function, in_loop)
        if kind == "block":
            return BlockStmt(self.block(frozenset(vars), scope, depth + 1, in_function, in_loop))
        if kind == "for":
            return self._for(vars, scope, depth, in_function)
        if kind == "break":
            return Break()
        if kind == "continue":
            return Continue()
        if kind == "leave":
            return Leave()
        raise AssertionError(f"unhandled kind {kind}")

    def _switch(
        self,
        vars: Set[str],
        scope: _Scope,
        depth: int,
        in_function: bool,
        in_loop: bool,
    ) -> Switch:
        target = self.expression(vars, scope)
        cases: List[SwCase] = []
        used_values: Set[int] = set()
        for _ in range(1 + self.below(3)):
            value = self.below(8)
            if value in used_values:
                continue
            used_values.add(value)
            lit: Literal = (
                lexed_literal(DecNumber, str(value))
                if self.random() < 0.7
                else lexed_literal(HexNumber, format(value, "x"))
            )
            cases.append(
                SwCase(lit, self.block(frozenset(vars), scope, depth + 1, in_function, in_loop))
            )
        default = None
        if not cases or self.random() < 0.6:
            default = self.block(frozenset(vars), scope, depth + 1, in_function, in_loop)
        return Switch(target, tuple(cases), default)

    def _for(self, vars: Set[str], scope: _Scope, depth: int, in_function: bool) -> For:
        # Mostly bounded counters, so small fuels still see loops finish.
        loop_vars = set(vars)
        if self.random() < 0.85:
            counter = self._fresh(_VAR_POOL, loop_vars)
            assert counter is not None  # guarded by the caller's fresh check
            loop_vars.add(counter)
            counter_path = _VAR_PATHS[counter]
            init_stmts: List[Statement] = [
                VariableSingle(_IDENTS[counter], LiteralExpr(lexed_literal(DecNumber, "0")))
            ]
            self._extra_loop_var(0.3, loop_vars, scope, init_stmts)
            bound = 1 + self.below(4)
            test: Expression = FunCallExpr(
                FunCall(
                    _IDENTS["lt"],
                    (PathExpr(counter_path), LiteralExpr(lexed_literal(DecNumber, str(bound)))),
                )
            )
            update = Block(
                (
                    AssignSingle(
                        counter_path,
                        FunCallExpr(
                            FunCall(
                                _IDENTS["add"],
                                (PathExpr(counter_path), LiteralExpr(lexed_literal(DecNumber, "1"))),
                            )
                        ),
                    ),
                )
            )
            body = self.block(frozenset(loop_vars), scope, depth + 1, in_function, in_loop=True)
            return For(Block(tuple(init_stmts)), test, update, body)

        init_stmts = []
        self._extra_loop_var(0.5, loop_vars, scope, init_stmts)
        test = LiteralExpr(TrueLit() if self.random() < 0.5 else lexed_literal(DecNumber, "1"))
        body = self.block(frozenset(loop_vars), scope, depth + 1, in_function, in_loop=True)
        if self.random() < 0.6:
            body = Block(body.statements + (Break(),))
        return For(Block(tuple(init_stmts)), test, Block(()), body)

    def _extra_loop_var(self, chance: float, loop_vars: Set[str], scope: _Scope, init_stmts: List[Statement]) -> None:
        """With probability `chance`, declare one more loop variable in the
        initializer, from an expression over the loop variables so far."""
        if self.random() < chance:
            extra = self._fresh(_VAR_POOL, loop_vars)
            if extra is not None:
                init_expr = self.expression(loop_vars, scope, 1)
                loop_vars.add(extra)
                init_stmts.append(VariableSingle(_IDENTS[extra], init_expr))


def gen_program(cfg: GenConfig) -> Block:
    """Generate a statically safe program, deterministically per seed.  With
    cfg.extra_funs the program may call those extra signatures, in which case
    it is safe relative to a function table extended with them (callers must
    execute it under a matching function environment)."""
    gen = _Gen(cfg)
    return gen.block(
        frozenset(), gen.base, depth=0, in_function=False, in_loop=False, at_top=True
    )
