"""Recursive-descent parser for the PLDL.

Grammar sketch (NL = newline)::

    program    := (entity | statement NL)*
    entity     := 'ENT' IDENT '(' params? ')' NL statement* ('END' NL)?
    params     := param (',' param)*
    param      := IDENT | '<' IDENT '>'
    statement  := assign | if | for | alt | expr
    assign     := IDENT '=' expr
    if         := 'IF' expr NL body ('ELSE' NL body)? 'ENDIF'
    for        := 'FOR' IDENT '=' expr 'TO' expr ('STEP' expr)? NL body 'ENDFOR'
    alt        := 'ALT' NL body ('ELSEALT' NL body)* 'ENDALT'   (entity bodies only)
    expr       := or-expr with the usual precedence; postfix '.' and calls

Entity bodies end at ``END`` or at the next ``ENT`` / end of file, so the
paper's END-less listings (Figs. 2 and 7) parse verbatim.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from . import ast_nodes as ast
from .errors import ParseError
from .tokens import KEYWORDS, Token, TokenKind, tokenize

#: Statement keywords that terminate an open body without consuming.
_BODY_TERMINATORS = frozenset({"END", "ENT", "ELSE", "ENDIF", "ENDFOR", "ELSEALT", "ENDALT"})


class Parser:
    """Single-pass recursive-descent parser over a token list."""

    def __init__(self, tokens: List[Token]) -> None:
        self._tokens = tokens
        self._pos = 0
        #: ALT rolls back an entity structure, so only entity bodies have it.
        self._in_entity = False

    # ------------------------------------------------------------------
    # token plumbing
    # ------------------------------------------------------------------
    @property
    def _current(self) -> Token:
        return self._tokens[self._pos]

    def _advance(self) -> Token:
        token = self._current
        if token.kind is not TokenKind.EOF:
            self._pos += 1
        return token

    def _expect(self, kind: TokenKind, what: str) -> Token:
        token = self._current
        if token.kind is not kind:
            raise ParseError(f"expected {what}, found {token.value!r}", token.line)
        return self._advance()

    def _accept(self, kind: TokenKind) -> Optional[Token]:
        if self._current.kind is kind:
            return self._advance()
        return None

    def _accept_keyword(self, word: str) -> Optional[Token]:
        if self._current.is_keyword(word):
            return self._advance()
        return None

    def _skip_newlines(self) -> None:
        while self._current.kind is TokenKind.NEWLINE:
            self._advance()

    def _end_statement(self) -> None:
        if self._current.kind is TokenKind.EOF:
            return
        self._expect(TokenKind.NEWLINE, "end of statement")

    # ------------------------------------------------------------------
    # program structure
    # ------------------------------------------------------------------
    def parse_program(self) -> ast.Program:
        """Parse a whole source file."""
        program = ast.Program(line=1)
        self._skip_newlines()
        while self._current.kind is not TokenKind.EOF:
            if self._current.is_keyword("ENT"):
                program.entities.append(self._parse_entity())
            else:
                program.statements.append(self._parse_statement())
                self._end_statement()
            self._skip_newlines()
        return program

    def _parse_entity(self) -> ast.Entity:
        header = self._advance()  # ENT
        name = self._expect(TokenKind.IDENT, "entity name")
        if name.value in KEYWORDS:
            raise ParseError(f"{name.value!r} is a reserved word", name.line)
        entity = ast.Entity(line=header.line, name=name.value)
        self._expect(TokenKind.LPAREN, "'('")
        if self._current.kind is not TokenKind.RPAREN:
            entity.params.append(self._parse_param())
            while self._accept(TokenKind.COMMA):
                entity.params.append(self._parse_param())
        self._expect(TokenKind.RPAREN, "')'")
        self._end_statement()
        self._in_entity = True
        entity.body = self._parse_body()
        self._in_entity = False
        self._accept_keyword("END")
        return entity

    def _parse_param(self) -> ast.Param:
        if self._accept(TokenKind.LT):
            name = self._expect(TokenKind.IDENT, "parameter name")
            self._expect(TokenKind.GT, "'>'")
            return ast.Param(line=name.line, name=name.value, optional=True)
        name = self._expect(TokenKind.IDENT, "parameter name")
        return ast.Param(line=name.line, name=name.value, optional=False)

    def _parse_body(self) -> List[ast.Statement]:
        """Statements until a body terminator keyword (not consumed)."""
        body: List[ast.Statement] = []
        self._skip_newlines()
        while True:
            token = self._current
            if token.kind is TokenKind.EOF:
                return body
            if token.kind is TokenKind.IDENT and token.value in _BODY_TERMINATORS:
                return body
            body.append(self._parse_statement())
            self._end_statement()
            self._skip_newlines()

    # ------------------------------------------------------------------
    # statements
    # ------------------------------------------------------------------
    def _parse_statement(self) -> ast.Statement:
        token = self._current
        if token.is_keyword("IF"):
            return self._parse_if()
        if token.is_keyword("FOR"):
            return self._parse_for()
        if token.is_keyword("ALT"):
            return self._parse_alt()
        if (
            token.kind is TokenKind.IDENT
            and token.value not in KEYWORDS
            and self._tokens[self._pos + 1].kind is TokenKind.ASSIGN
        ):
            self._advance()
            self._advance()
            value = self._parse_expr()
            return ast.Assign(line=token.line, target=token.value, value=value)
        value = self._parse_expr()
        return ast.ExprStatement(line=token.line, value=value)

    def _parse_if(self) -> ast.If:
        header = self._advance()  # IF
        condition = self._parse_expr()
        self._end_statement()
        node = ast.If(line=header.line, condition=condition)
        node.then_body = self._parse_body()
        if self._accept_keyword("ELSE"):
            self._end_statement()
            node.else_body = self._parse_body()
        closing = self._current
        if not self._accept_keyword("ENDIF"):
            raise ParseError("expected ENDIF", closing.line)
        return node

    def _parse_for(self) -> ast.For:
        header = self._advance()  # FOR
        var = self._expect(TokenKind.IDENT, "loop variable")
        self._expect(TokenKind.ASSIGN, "'='")
        start = self._parse_expr()
        if not self._accept_keyword("TO"):
            raise ParseError("expected TO", self._current.line)
        stop = self._parse_expr()
        step: Optional[ast.Expr] = None
        if self._accept_keyword("STEP"):
            step = self._parse_expr()
        self._end_statement()
        node = ast.For(line=header.line, var=var.value, start=start, stop=stop, step=step)
        node.body = self._parse_body()
        if not self._accept_keyword("ENDFOR"):
            raise ParseError("expected ENDFOR", self._current.line)
        return node

    def _parse_alt(self) -> ast.Alt:
        header = self._advance()  # ALT
        if not self._in_entity:
            raise ParseError("ALT is only allowed inside an entity body", header.line)
        self._end_statement()
        node = ast.Alt(line=header.line)
        node.branches.append(self._parse_body())
        while self._accept_keyword("ELSEALT"):
            self._end_statement()
            node.branches.append(self._parse_body())
        if not self._accept_keyword("ENDALT"):
            raise ParseError("expected ENDALT", self._current.line)
        return node

    # ------------------------------------------------------------------
    # expressions (precedence climbing)
    # ------------------------------------------------------------------
    def _parse_expr(self) -> ast.Expr:
        return self._parse_or()

    def _parse_or(self) -> ast.Expr:
        left = self._parse_and()
        while self._current.is_keyword("OR"):
            op = self._advance()
            right = self._parse_and()
            left = ast.Binary(line=op.line, op="OR", left=left, right=right)
        return left

    def _parse_and(self) -> ast.Expr:
        left = self._parse_not()
        while self._current.is_keyword("AND"):
            op = self._advance()
            right = self._parse_not()
            left = ast.Binary(line=op.line, op="AND", left=left, right=right)
        return left

    def _parse_not(self) -> ast.Expr:
        if self._current.is_keyword("NOT"):
            op = self._advance()
            operand = self._parse_not()
            return ast.Unary(line=op.line, op="NOT", operand=operand)
        return self._parse_comparison()

    _COMPARISONS = {
        TokenKind.EQ: "==",
        TokenKind.NE: "!=",
        TokenKind.LT: "<",
        TokenKind.GT: ">",
        TokenKind.LE: "<=",
        TokenKind.GE: ">=",
    }

    def _parse_comparison(self) -> ast.Expr:
        left = self._parse_additive()
        kind = self._current.kind
        if kind in self._COMPARISONS:
            op = self._advance()
            right = self._parse_additive()
            return ast.Binary(
                line=op.line, op=self._COMPARISONS[kind], left=left, right=right
            )
        return left

    def _parse_additive(self) -> ast.Expr:
        left = self._parse_multiplicative()
        while self._current.kind in (TokenKind.PLUS, TokenKind.MINUS):
            op = self._advance()
            right = self._parse_multiplicative()
            left = ast.Binary(line=op.line, op=op.value, left=left, right=right)
        return left

    def _parse_multiplicative(self) -> ast.Expr:
        left = self._parse_unary()
        while self._current.kind in (TokenKind.STAR, TokenKind.SLASH):
            op = self._advance()
            right = self._parse_unary()
            left = ast.Binary(line=op.line, op=op.value, left=left, right=right)
        return left

    def _parse_unary(self) -> ast.Expr:
        if self._current.kind is TokenKind.MINUS:
            op = self._advance()
            operand = self._parse_unary()
            return ast.Unary(line=op.line, op="-", operand=operand)
        return self._parse_postfix()

    def _parse_postfix(self) -> ast.Expr:
        node = self._parse_atom()
        while self._accept(TokenKind.DOT):
            attr = self._expect(TokenKind.IDENT, "attribute name")
            node = ast.Attribute(line=attr.line, value=node, attr=attr.value)
        return node

    def _parse_atom(self) -> ast.Expr:
        token = self._current
        if token.kind is TokenKind.NUMBER:
            self._advance()
            return ast.Number(line=token.line, value=float(token.value))
        if token.kind is TokenKind.STRING:
            self._advance()
            return ast.String(line=token.line, value=token.value)
        if token.kind is TokenKind.LPAREN:
            self._advance()
            inner = self._parse_expr()
            self._expect(TokenKind.RPAREN, "')'")
            return inner
        if token.kind is TokenKind.IDENT:
            if token.value == "TRUE":
                self._advance()
                return ast.Boolean(line=token.line, value=True)
            if token.value == "FALSE":
                self._advance()
                return ast.Boolean(line=token.line, value=False)
            if token.value == "NIL":
                self._advance()
                return ast.Nil(line=token.line)
            if token.value in KEYWORDS:
                raise ParseError(f"unexpected keyword {token.value!r}", token.line)
            self._advance()
            if self._current.kind is TokenKind.LPAREN:
                return self._parse_call(token)
            return ast.Name(line=token.line, ident=token.value)
        raise ParseError(f"unexpected token {token.value!r}", token.line)

    def _parse_call(self, name: Token) -> ast.Call:
        self._expect(TokenKind.LPAREN, "'('")
        call = ast.Call(line=name.line, func=name.value)
        if self._current.kind is not TokenKind.RPAREN:
            self._parse_argument(call)
            while self._accept(TokenKind.COMMA):
                self._parse_argument(call)
        self._expect(TokenKind.RPAREN, "')'")
        return call

    def _parse_argument(self, call: ast.Call) -> None:
        token = self._current
        if (
            token.kind is TokenKind.IDENT
            and token.value not in KEYWORDS
            and self._tokens[self._pos + 1].kind is TokenKind.ASSIGN
        ):
            self._advance()
            self._advance()
            value = self._parse_expr()
            if any(key == token.value for key, _ in call.kwargs):
                raise ParseError(f"duplicate keyword argument {token.value!r}", token.line)
            call.kwargs.append((token.value, value))
            return
        if call.kwargs:
            raise ParseError("positional argument after keyword argument", token.line)
        call.args.append(self._parse_expr())


def parse(source: str) -> ast.Program:
    """Parse PLDL source text into a :class:`~repro.lang.ast_nodes.Program`."""
    return Parser(tokenize(source)).parse_program()
