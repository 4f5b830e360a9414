"""Two code transformations and the shape restrictions tied to them.

`for_loop_init_rewrite` hoists every loop's initializer in front of the loop,
wrapped in a fresh block, leaving all loops with empty initializers; this is
the precondition under which dead-code elimination preserves static safety.
`dead_code_eliminate` removes the statements of a block that follow a literal
break/continue/leave.  Both rebuild trees structurally, never rename, and
preserve the lexical form of literals.

Correctness of dead-code elimination additionally needs `nofun` on the code
being transformed (a function defined after a terminator is still callable
before it — deleting the definition changes behavior), which is why the
predicates live here alongside the transformations.
"""

from __future__ import annotations

from typing import Union

from ._stack import ensure_recursion_headroom
from .ast import (
    Block,
    BlockStmt,
    Break,
    Continue,
    For,
    FunDefStmt,
    Leave,
    Statement,
    map_blocks,
    walk_statements,
)
from .dynamics import EvalError, FunEnv, FunInfo, SOutcome

_TERMINATORS = (Break, Continue, Leave)


# --- loop-initializer hoisting ---------------------------------------------------

def statement_loop_init(stmt: Statement) -> Statement:
    """Statement-level loop-initializer rewrite."""
    if not isinstance(stmt, For):
        return map_blocks(stmt, for_loop_init_rewrite)
    loop = For(
        Block(()),
        stmt.test,
        for_loop_init_rewrite(stmt.update),
        for_loop_init_rewrite(stmt.body),
    )
    if not stmt.init.statements:
        return loop
    moved = tuple(statement_loop_init(s) for s in stmt.init.statements)
    return BlockStmt(Block(moved + (loop,)))


def for_loop_init_rewrite(block: Block) -> Block:
    """Rewrite every `for { init } test { upd } { body }` in the block into
    `{ init for { } test { upd } { body } }`; loops with empty initializers
    are left unwrapped, so the rewrite is idempotent."""
    ensure_recursion_headroom()
    return Block(tuple(statement_loop_init(s) for s in block.statements))


# --- dead-code elimination --------------------------------------------------------

def statement_dead(stmt: Statement) -> Statement:
    """Statement-level dead-code elimination."""
    return map_blocks(stmt, dead_code_eliminate)


def dead_code_eliminate(block: Block) -> Block:
    """Cut each statement list just after its first break/continue/leave; the
    dropped suffix is discarded wholesale, the kept statements are transformed
    recursively."""
    ensure_recursion_headroom()
    kept = []
    for stmt in block.statements:
        kept.append(statement_dead(stmt))
        if isinstance(stmt, _TERMINATORS):
            break
    return Block(tuple(kept))


# --- restrictions -------------------------------------------------------------------

def nofun(block: Block) -> bool:
    """True iff no function definition occurs anywhere in the block."""
    return not any(isinstance(s, FunDefStmt) for s in walk_statements(block))


def noloopinit(block: Block) -> bool:
    """True iff every for loop in the block has an empty initializer block."""
    return all(not s.init.statements for s in walk_statements(block) if isinstance(s, For))


# --- environment lifts and outcome equivalence ----------------------------------------

def funenv_dead(funenv: FunEnv) -> FunEnv:
    """Apply dead-code elimination to every function body in an environment."""
    return tuple(
        {name: FunInfo(info.inputs, info.outputs, dead_code_eliminate(info.body))
         for name, info in scope.items()}
        for scope in funenv
    )


def funenv_nofun(funenv: FunEnv) -> bool:
    """True iff every function body in the environment satisfies nofun."""
    return all(nofun(info.body) for scope in funenv for info in scope.values())


def okeq(a: Union[SOutcome, EvalError], b: Union[SOutcome, EvalError]) -> bool:
    """Outcome equivalence used by the preservation properties: equal
    outcomes, or two errors of any kinds."""
    if isinstance(a, SOutcome) and isinstance(b, SOutcome):
        return a == b
    return isinstance(a, EvalError) and isinstance(b, EvalError)
