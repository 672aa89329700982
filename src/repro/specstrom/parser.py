"""Recursive-descent parser for Specstrom.

Operator precedence, loosest first::

    ==>   (right associative)
    ||
    &&
    until / release   (right associative, optional {n} subscript)
    in  ==  !=  <  <=  >  >=
    +  -
    *  /  %
    unary:  !  -  not  always{n}  eventually{n}  next  wnext  snext
    postfix: call, member access, indexing

Blocks ``{ let x = e; ...; result }`` are expressions, as are
``if c { a } else { b }``.  Object literals ``{ key: value }`` are
disambiguated from blocks by one token of lookahead.  The subscript
syntax ``always{400} p`` is disambiguated from a block body
(``always { let ... }``) by checking for a number directly inside the
braces.
"""

from __future__ import annotations

from typing import List, Optional

from .ast_nodes import (
    ActionDef,
    ArrayLit,
    Binary,
    Binding,
    Block,
    Call,
    CheckDef,
    Expr,
    IfExpr,
    Index,
    LetDef,
    Lit,
    Member,
    Module,
    ObjectLit,
    Param,
    SelectorLit,
    TemporalBinary,
    TemporalUnary,
    Unary,
    Var,
)
from .errors import SpecSyntaxError
from .lexer import tokenize
from .tokens import Token

__all__ = ["parse_module", "parse_expression"]

_COMPARISON_OPS = {"==", "!=", "<", "<=", ">", ">="}
_ADDITIVE_OPS = {"+", "-"}
_MULTIPLICATIVE_OPS = {"*", "/", "%"}


def _at(node: Expr, where) -> Expr:
    """Give ``node`` the source position of ``where`` (a token or an
    expression)."""
    node.line = where.line
    node.column = where.column
    return node


def parse_module(source: str) -> Module:
    """Parse a complete Specstrom specification file."""
    return _Parser(tokenize(source)).module()


def parse_expression(source: str) -> Expr:
    """Parse a single Specstrom expression (testing convenience)."""
    parser = _Parser(tokenize(source))
    expr = parser.expression()
    parser.expect_eof()
    return expr


class _Parser:
    def __init__(self, tokens: List[Token]) -> None:
        self._tokens = tokens
        self._pos = 0

    # ------------------------------------------------------------------
    # Token plumbing
    # ------------------------------------------------------------------

    def peek(self, offset: int = 0) -> Token:
        index = min(self._pos + offset, len(self._tokens) - 1)
        return self._tokens[index]

    def advance(self) -> Token:
        token = self.peek()
        if not token.is_eof:
            self._pos += 1
        return token

    def check(self, kind: str, value: object = None) -> bool:
        token = self.peek()
        if token.kind != kind:
            return False
        return value is None or token.value == value

    def accept(self, kind: str, value: object = None) -> Optional[Token]:
        if self.check(kind, value):
            return self.advance()
        return None

    def expect(self, kind: str, value: object = None) -> Token:
        token = self.peek()
        if not self.check(kind, value):
            wanted = value if value is not None else kind
            raise SpecSyntaxError(
                f"expected {wanted!r}, found {token.describe()}",
                token.line,
                token.column,
            )
        return self.advance()

    def expect_eof(self) -> None:
        token = self.peek()
        if not token.is_eof:
            raise SpecSyntaxError(
                f"unexpected trailing {token.describe()}", token.line, token.column
            )

    def error(self, message: str) -> SpecSyntaxError:
        token = self.peek()
        return SpecSyntaxError(message, token.line, token.column)

    # ------------------------------------------------------------------
    # Top level
    # ------------------------------------------------------------------

    def module(self) -> Module:
        lets: List[LetDef] = []
        actions: List[ActionDef] = []
        checks: List[CheckDef] = []
        while not self.peek().is_eof:
            if self.check("keyword", "let"):
                lets.append(self.let_def())
            elif self.check("keyword", "action"):
                actions.append(self.action_def())
            elif self.check("keyword", "check"):
                checks.append(self.check_def())
            else:
                raise self.error(
                    f"expected a definition, found {self.peek().describe()}"
                )
        return Module(lets, actions, checks)

    def let_def(self) -> LetDef:
        keyword = self.expect("keyword", "let")
        lazy = self.accept("punct", "~") is not None
        name_token = self.expect("ident")
        name = name_token.value
        params: Optional[List[Param]] = None
        if self.accept("punct", "("):
            params = self.param_list()
        if self.accept("punct", "="):
            body = self.expression()
            self.expect("punct", ";")
        elif self.check("punct", "{"):
            # Paper-style block form: ``let ~ticking { ... }``.
            body = self.block()
            self.accept("punct", ";")  # optional terminator
        else:
            raise self.error("expected '=' or '{' in let definition")
        return LetDef(
            name, lazy, params, body, line=keyword.line, column=keyword.column
        )

    def param_list(self) -> List[Param]:
        params: List[Param] = []
        if self.accept("punct", ")"):
            return params
        while True:
            lazy = self.accept("punct", "~") is not None
            token = self.expect("ident")
            params.append(Param(token.value, lazy))
            if self.accept("punct", ")"):
                return params
            self.expect("punct", ",")

    def action_def(self) -> ActionDef:
        keyword = self.expect("keyword", "action")
        name_token = self.expect("ident")
        name = name_token.value
        if not (name.endswith("!") or name.endswith("?")):
            raise SpecSyntaxError(
                f"action names end in '!' (user action) or '?' (event): {name!r}",
                name_token.line,
                name_token.column,
            )
        self.expect("punct", "=")
        body = self.expression(stop_keywords=("timeout", "when"))
        timeout = None
        if self.accept("keyword", "timeout"):
            timeout = self.expression(stop_keywords=("when",))
        guard = None
        if self.accept("keyword", "when"):
            guard = self.expression()
        self.expect("punct", ";")
        return ActionDef(
            name, body, guard, timeout, line=keyword.line, column=keyword.column
        )

    def check_def(self) -> CheckDef:
        keyword = self.expect("keyword", "check")
        properties = [self.expression(stop_keywords=("with",))]
        while not self.check("punct", ";") and not self.check("keyword", "with"):
            self.accept("punct", ",")
            if self.check("punct", ";") or self.check("keyword", "with"):
                break
            properties.append(self.expression(stop_keywords=("with",)))
        with_actions: Optional[List[str]] = None
        if self.accept("keyword", "with"):
            with_actions = []
            while True:
                token = self.expect("ident")
                with_actions.append(token.value)
                if not self.accept("punct", ","):
                    break
        self.expect("punct", ";")
        return CheckDef(
            properties, with_actions, line=keyword.line, column=keyword.column
        )

    # ------------------------------------------------------------------
    # Expressions
    # ------------------------------------------------------------------

    def expression(self, stop_keywords=()) -> Expr:
        self._stop_keywords = stop_keywords
        return self.implication()

    def implication(self) -> Expr:
        left = self.disjunction()
        if self.accept("punct", "==>"):
            right = self.implication()  # right associative
            return _at(Binary("==>", left, right), left)
        return left

    def disjunction(self) -> Expr:
        left = self.conjunction()
        while self.accept("punct", "||"):
            right = self.conjunction()
            left = _at(Binary("||", left, right), left)
        return left

    def conjunction(self) -> Expr:
        left = self.until_release()
        while self.accept("punct", "&&"):
            right = self.until_release()
            left = _at(Binary("&&", left, right), left)
        return left

    def until_release(self) -> Expr:
        left = self.comparison()
        for op in ("until", "release"):
            if self.check("keyword", op):
                self.advance()
                subscript = self.optional_subscript()
                right = self.until_release()  # right associative
                return _at(TemporalBinary(op, subscript, left, right), left)
        return left

    def comparison(self) -> Expr:
        left = self.additive()
        while True:
            if self.check("keyword", "in") and "in" not in getattr(
                self, "_stop_keywords", ()
            ):
                self.advance()
                right = self.additive()
                left = _at(Binary("in", left, right), left)
                continue
            token = self.peek()
            if token.kind == "punct" and token.value in _COMPARISON_OPS:
                self.advance()
                right = self.additive()
                left = _at(Binary(token.value, left, right), left)
                continue
            return left

    def additive(self) -> Expr:
        left = self.multiplicative()
        while True:
            token = self.peek()
            if token.kind == "punct" and token.value in _ADDITIVE_OPS:
                self.advance()
                right = self.multiplicative()
                left = _at(Binary(token.value, left, right), left)
            else:
                return left

    def multiplicative(self) -> Expr:
        left = self.unary()
        while True:
            token = self.peek()
            if token.kind == "punct" and token.value in _MULTIPLICATIVE_OPS:
                self.advance()
                right = self.unary()
                left = _at(Binary(token.value, left, right), left)
            else:
                return left

    def unary(self) -> Expr:
        token = self.peek()
        if token.kind == "punct" and token.value == "!":
            self.advance()
            return _at(Unary("!", self.unary()), token)
        if token.kind == "keyword" and token.value == "not":
            self.advance()
            return _at(Unary("!", self.unary()), token)
        if token.kind == "punct" and token.value == "-":
            self.advance()
            return _at(Unary("-", self.unary()), token)
        if token.kind == "keyword" and token.value in ("always", "eventually"):
            self.advance()
            subscript = self.optional_subscript()
            body = self.unary()
            return _at(TemporalUnary(token.value, subscript, body), token)
        if token.kind == "keyword" and token.value in ("next", "wnext", "snext"):
            self.advance()
            body = self.unary()
            return _at(TemporalUnary(token.value, None, body), token)
        return self.postfix()

    def optional_subscript(self) -> Optional[int]:
        """``{n}`` directly after a temporal keyword, if present."""
        if (
            self.check("punct", "{")
            and self.peek(1).kind == "number"
            and self.peek(2).kind == "punct"
            and self.peek(2).value == "}"
        ):
            self.advance()
            number = self.advance().value
            self.advance()
            if not isinstance(number, int):
                raise self.error("temporal subscripts must be integers")
            return number
        return None

    def postfix(self) -> Expr:
        expr = self.primary()
        while True:
            if self.accept("punct", "."):
                name_token = self.peek()
                if name_token.kind not in ("ident", "keyword"):
                    raise self.error("expected property name after '.'")
                self.advance()
                expr = _at(Member(expr, str(name_token.value)), expr)
            elif self.check("punct", "("):
                self.advance()
                args: List[Expr] = []
                if not self.accept("punct", ")"):
                    while True:
                        args.append(self.expression(getattr(self, "_stop_keywords", ())))
                        if self.accept("punct", ")"):
                            break
                        self.expect("punct", ",")
                expr = _at(Call(expr, args), expr)
            elif self.check("punct", "["):
                self.advance()
                index = self.expression(getattr(self, "_stop_keywords", ()))
                self.expect("punct", "]")
                expr = _at(Index(expr, index), expr)
            else:
                return expr

    def primary(self) -> Expr:
        token = self.peek()
        if token.kind == "number" or token.kind == "string":
            self.advance()
            return _at(Lit(token.value), token)
        if token.kind == "selector":
            self.advance()
            return _at(SelectorLit(token.value), token)
        if token.kind == "keyword" and token.value in ("true", "false"):
            self.advance()
            return _at(Lit(token.value == "true"), token)
        if token.kind == "keyword" and token.value == "null":
            self.advance()
            return _at(Lit(None), token)
        if token.kind == "keyword" and token.value == "if":
            return self.if_expression()
        if token.kind == "ident":
            self.advance()
            return _at(Var(token.value), token)
        if token.kind == "punct" and token.value == "(":
            self.advance()
            inner = self.expression(getattr(self, "_stop_keywords", ()))
            self.expect("punct", ")")
            return inner
        if token.kind == "punct" and token.value == "[":
            return self.array_literal()
        if token.kind == "punct" and token.value == "{":
            if self.looks_like_object_literal():
                return self.object_literal()
            return self.block()
        raise self.error(f"expected an expression, found {token.describe()}")

    def if_expression(self) -> Expr:
        token = self.expect("keyword", "if")
        cond = self.expression(getattr(self, "_stop_keywords", ()))
        then = self.block()
        self.expect("keyword", "else")
        if self.check("keyword", "if"):
            orelse: Expr = self.if_expression()
        else:
            orelse = self.block()
        return _at(IfExpr(cond, then, orelse), token)

    def looks_like_object_literal(self) -> bool:
        """After ``{``: an ident/string followed by ``:`` means object."""
        first = self.peek(1)
        second = self.peek(2)
        if first.kind == "punct" and first.value == "}":
            return True  # empty object
        return (
            first.kind in ("ident", "string")
            and second.kind == "punct"
            and second.value == ":"
        )

    def object_literal(self) -> Expr:
        token = self.expect("punct", "{")
        pairs = []
        if not self.accept("punct", "}"):
            while True:
                key_token = self.peek()
                if key_token.kind not in ("ident", "string"):
                    raise self.error("expected object key")
                self.advance()
                self.expect("punct", ":")
                value = self.expression(getattr(self, "_stop_keywords", ()))
                pairs.append((str(key_token.value), value))
                if self.accept("punct", "}"):
                    break
                self.expect("punct", ",")
        return _at(ObjectLit(pairs), token)

    def array_literal(self) -> Expr:
        token = self.expect("punct", "[")
        items: List[Expr] = []
        if not self.accept("punct", "]"):
            while True:
                items.append(self.expression(getattr(self, "_stop_keywords", ())))
                if self.accept("punct", "]"):
                    break
                self.expect("punct", ",")
        return _at(ArrayLit(items), token)

    def block(self) -> Expr:
        """``{ let [~]x = e; ...; result }``"""
        token = self.expect("punct", "{")
        bindings: List[Binding] = []
        while self.check("keyword", "let"):
            let_token = self.advance()
            lazy = self.accept("punct", "~") is not None
            name = self.expect("ident").value
            self.expect("punct", "=")
            expr = self.expression(getattr(self, "_stop_keywords", ()))
            self.expect("punct", ";")
            bindings.append(
                Binding(name, lazy, expr, line=let_token.line, column=let_token.column)
            )
        result = self.expression(getattr(self, "_stop_keywords", ()))
        self.expect("punct", "}")
        return _at(Block(bindings, result), token)
