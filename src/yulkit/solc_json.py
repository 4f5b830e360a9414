"""Conversion from the Solidity compiler's Yul AST JSON export to `ast` trees.

The compiler can be asked to dump the Yul AST of a compilation stage as JSON
(one object per node, discriminated by `nodeType`).  This module maps those
objects onto our tree so the result of a compiler transformation can be
checked against an independent implementation of the same transformation.

Only a fixed set of keys is consumed — `nodeType`, `statements`, `body`,
`condition`, `expression`, `value`, `variables`, `variableNames`,
`functionName`, `arguments`, `parameters`, `returnVariables`, `cases`,
`pre`, `post`, `kind`, `name`, plus the `type` annotation (accepted empty,
rejected otherwise) — everything else (`src`, `nativeSrc`, documentation
fields) is ignored, since the surrounding schema varies across compiler
versions.  Errors carry a `/`-separated path into the JSON tree.

There is no JSON emitter here: our own serialization is Yul text.
"""

from __future__ import annotations

from typing import Any, Callable, List, Optional

from ._stack import ensure_recursion_headroom
from .ast import (
    AssignMulti,
    AssignSingle,
    Block,
    BlockStmt,
    Break,
    Continue,
    DecNumber,
    Expression,
    FalseLit,
    For,
    FunCall,
    FunCallExpr,
    FunCallStmt,
    FunDef,
    FunDefStmt,
    HexEscape,
    HexNumber,
    Identifier,
    If,
    Leave,
    Literal,
    LiteralExpr,
    Path,
    PathExpr,
    PlainString,
    RawChar,
    SimpleEscape,
    Statement,
    SwCase,
    Switch,
    TrueLit,
    VariableMulti,
    VariableSingle,
)
from .syntax import MAX_NESTING

_ESCAPE_FOR = {"\\": "\\", '"': '"', "\n": "n", "\r": "r", "\t": "t"}


class ConvertError(Exception):
    """A JSON tree that does not describe a Yul program."""

    def __init__(self, path: str, reason: str):
        super().__init__(f"{path}: {reason}")
        self.path = path
        self.reason = reason


def _joined(path: List[str]) -> str:
    return "/" + "/".join(path)


def _fail(path: List[str], reason: str) -> "ConvertError":
    return ConvertError(_joined(path), reason)


def _obj(node: Any, path: List[str]) -> dict:
    if not isinstance(node, dict):
        raise _fail(path, f"expected an object, got {type(node).__name__}")
    return node


def _get(obj: dict, key: str, path: List[str]) -> Any:
    if key not in obj:
        raise _fail(path, f"missing {key}")
    return obj[key]

def _get_list(obj: dict, key: str, path: List[str]) -> list:
    value = _get(obj, key, path)
    if not isinstance(value, list):
        raise _fail(path + [key], "expected an array")
    return value


def _children(obj: dict, key: str, path: List[str], convert: Callable[..., Any], *args: Any) -> tuple:
    """`convert` applied to each node of the array under `key`, at
    `path/key/i`, with `args` after the path."""
    nodes = _get_list(obj, key, path)
    return tuple(convert(node, path + [key, str(i)], *args) for i, node in enumerate(nodes))


def _nested(depth: int, path: List[str]) -> int:
    """The nesting of a block or an expression directly inside one at
    `depth`, counted as the parser counts it and refused past its cap."""
    if depth >= MAX_NESTING:
        raise _fail(path, f"nesting deeper than {MAX_NESTING}")
    return depth + 1


def _get_str(obj: dict, key: str, path: List[str]) -> str:
    value = _get(obj, key, path)
    if not isinstance(value, str):
        raise _fail(path + [key], "expected a string")
    return value


def _node_type(node: Any, path: List[str]) -> str:
    return _get_str(_obj(node, path), "nodeType", path)


def _expect(node: Any, path: List[str], node_type: str, reason: str) -> dict:
    """`node` as an object of nodeType `node_type`; otherwise fail with
    `reason`, where `{got}` stands for the nodeType found."""
    nt = _node_type(node, path)
    if nt != node_type:
        raise _fail(path, reason.format(got=nt))
    return node


def _check_type_annotation(obj: dict, path: List[str]) -> None:
    # Typed Yul is legacy; an empty type annotation is tolerated, a real one
    # is not something this grammar can represent.
    t = obj.get("type", "")
    if t not in ("", None):
        raise _fail(path + ["type"], f"typed declarations are not supported: {t!r}")


def _identifier(text: str, path: List[str]) -> Identifier:
    try:
        return Identifier(text)
    except ValueError as exc:
        raise _fail(path, str(exc)) from None


def _function_name(text: str, path: List[str]) -> Identifier:
    if "." in text:
        raise _fail(path, f"dotted function name {text!r}")
    return _identifier(text, path)


def _name_path(text: str, path: List[str]) -> Path:
    # Dotted names become multi-part paths, exactly as the text parser reads
    # them (the static checker rejects them later; conversion is structural).
    parts = text.split(".")
    if not all(parts):
        raise _fail(path, f"malformed identifier {text!r}")
    return Path(tuple(_identifier(p, path) for p in parts))


def _typed_name(node: Any, path: List[str]) -> Identifier:
    obj = _expect(node, path, "YulTypedName", "expected YulTypedName, got {got}")
    _check_type_annotation(obj, path)
    return _identifier(_get_str(obj, "name", path), path + ["name"])


def _literal(obj: dict, path: List[str]) -> Literal:
    _check_type_annotation(obj, path)
    kind = _get_str(obj, "kind", path)
    value = _get_str(obj, "value", path)
    if kind == "number":
        try:
            return HexNumber(value[2:]) if value.startswith("0x") else DecNumber(value)
        except ValueError:
            raise _fail(path + ["value"], f"malformed numeral {value!r}") from None
    if kind == "bool":
        if value == "true":
            return TrueLit()
        if value == "false":
            return FalseLit()
        raise _fail(path + ["value"], f"malformed boolean {value!r}")
    if kind == "string":
        # The JSON carries the decoded string; re-encode it with the
        # canonical escapes so the result prints as a parseable literal.
        elements = []
        for ch in value:
            if ch in _ESCAPE_FOR:
                elements.append(SimpleEscape(_ESCAPE_FOR[ch]))
            elif 0x20 <= ord(ch) <= 0x7E:
                elements.append(RawChar(ch))
            else:
                for byte in ch.encode("utf-8"):
                    elements.append(HexEscape(f"{byte:02x}"))
        return PlainString(tuple(elements))
    raise _fail(path + ["kind"], f"unknown literal kind {kind!r}")


def _expression(node: Any, path: List[str], depth: int) -> Expression:
    depth = _nested(depth, path)
    obj = _obj(node, path)
    nt = _node_type(node, path)
    if nt == "YulIdentifier":
        return PathExpr(_name_path(_get_str(obj, "name", path), path + ["name"]))
    if nt == "YulLiteral":
        return LiteralExpr(_literal(obj, path))
    if nt == "YulFunctionCall":
        return FunCallExpr(_funcall(obj, path, depth))
    raise _fail(path, f"unknown expression nodeType {nt!r}")


def _funcall(obj: dict, path: List[str], depth: int) -> FunCall:
    """The call `obj` at nesting `depth`; its arguments are one deeper."""
    fn_path = path + ["functionName"]
    fn = _expect(_get(obj, "functionName", path), fn_path, "YulIdentifier", "expected YulIdentifier")
    name = _function_name(_get_str(fn, "name", fn_path), fn_path + ["name"])
    return FunCall(name, _children(obj, "arguments", path, _expression, depth))


def _target_path(node: Any, path: List[str]) -> Path:
    obj = _expect(node, path, "YulIdentifier", "assignment target must be a YulIdentifier")
    return _name_path(_get_str(obj, "name", path), path + ["name"])


def _statement(node: Any, path: List[str], depth: int) -> Statement:
    """The statement `node` in a block at nesting `depth`."""
    obj = _obj(node, path)
    nt = _node_type(node, path)

    if nt == "YulBlock":
        return BlockStmt(_block_of(obj, path, depth))
    if nt == "YulVariableDeclaration":
        names = _children(obj, "variables", path, _typed_name)
        if not names:
            raise _fail(path + ["variables"], "no variables declared")
        init = obj.get("value")
        if len(names) == 1:
            expr = None if init is None else _expression(init, path + ["value"], depth)
            return VariableSingle(names[0], expr)
        if init is None:
            return VariableMulti(names, None)
        init_obj = _expect(
            init, path + ["value"], "YulFunctionCall",
            "multi-variable initializer must be a function call",
        )
        return VariableMulti(names, _funcall(init_obj, path + ["value"], _nested(depth, path + ["value"])))
    if nt == "YulAssignment":
        targets = _children(obj, "variableNames", path, _target_path)
        if not targets:
            raise _fail(path + ["variableNames"], "no assignment targets")
        value = _get(obj, "value", path)
        if len(targets) == 1:
            return AssignSingle(targets[0], _expression(value, path + ["value"], depth))
        value_obj = _expect(
            value, path + ["value"], "YulFunctionCall",
            "multi-assignment value must be a function call",
        )
        return AssignMulti(targets, _funcall(value_obj, path + ["value"], _nested(depth, path + ["value"])))
    if nt == "YulExpressionStatement":
        inner_obj = _expect(
            _get(obj, "expression", path), path + ["expression"], "YulFunctionCall",
            "only function calls can stand as statements",
        )
        return FunCallStmt(_funcall(inner_obj, path + ["expression"], depth))
    if nt == "YulIf":
        test = _expression(_get(obj, "condition", path), path + ["condition"], depth)
        body = _block(_get(obj, "body", path), path + ["body"], depth)
        return If(test, body)
    if nt == "YulSwitch":
        target = _expression(_get(obj, "expression", path), path + ["expression"], depth)
        cases: List[SwCase] = []
        default: Optional[Block] = None
        for i, case_node in enumerate(_get_list(obj, "cases", path)):
            cpath = path + ["cases", str(i)]
            cobj = _expect(case_node, cpath, "YulCase", "expected YulCase")
            body = _block(_get(cobj, "body", cpath), cpath + ["body"], depth)
            value = _get(cobj, "value", cpath)
            if value == "default":
                if default is not None:
                    raise _fail(cpath, "second default case")
                default = body
            else:
                vobj = _expect(
                    value, cpath + ["value"], "YulLiteral", "case value must be a literal"
                )
                cases.append(SwCase(_literal(vobj, cpath + ["value"]), body))
        if not cases and default is None:
            raise _fail(path + ["cases"], "switch needs a case or a default")
        return Switch(target, tuple(cases), default)
    if nt == "YulForLoop":
        return For(
            _block(_get(obj, "pre", path), path + ["pre"], depth),
            _expression(_get(obj, "condition", path), path + ["condition"], depth),
            _block(_get(obj, "post", path), path + ["post"], depth),
            _block(_get(obj, "body", path), path + ["body"], depth),
        )
    if nt == "YulFunctionDefinition":
        name = _function_name(_get_str(obj, "name", path), path + ["name"])
        inputs = _children(obj, "parameters", path, _typed_name) if "parameters" in obj else ()
        outputs = (
            _children(obj, "returnVariables", path, _typed_name) if "returnVariables" in obj else ()
        )
        body = _block(_get(obj, "body", path), path + ["body"], depth)
        try:
            fundef = FunDef(name, inputs, outputs, body)
        except ValueError as exc:
            raise _fail(path, str(exc)) from None
        return FunDefStmt(fundef)
    if nt == "YulBreak":
        return Break()
    if nt == "YulContinue":
        return Continue()
    if nt == "YulLeave":
        return Leave()
    raise _fail(path, f"unknown statement nodeType {nt!r}")


def _block(node: Any, path: List[str], depth: int) -> Block:
    return _block_of(_expect(node, path, "YulBlock", "expected YulBlock, got {got}"), path, depth)


def _block_of(obj: dict, path: List[str], depth: int) -> Block:
    """The block `obj` inside a block at nesting `depth`."""
    return Block(_children(obj, "statements", path, _statement, _nested(depth, path)))


def convert(json_node: Any) -> Block:
    """Convert a parsed solc Yul AST JSON tree (root must be a YulBlock) to a
    Block.  Raises ConvertError with a path into the JSON on malformed input,
    or on nesting deeper than the parser admits (`syntax.MAX_NESTING`)."""
    ensure_recursion_headroom()
    return _block(json_node, [], 0)

