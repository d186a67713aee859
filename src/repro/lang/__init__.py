"""The procedural layout description language (Sec. 2.1)."""

from .ast_nodes import Alt, Assign, Call, Entity, ExprStatement, For, If, Program
from .errors import EvalError, LexError, ParseError, PldlError
from .interpreter import Interpreter
from .parser import parse
from .runtime import BUILTIN_NAMES, Runtime
from .tokens import Token, TokenKind, tokenize
from .translate import translate, translate_program

__all__ = [
    "Alt",
    "Assign",
    "Call",
    "Entity",
    "ExprStatement",
    "For",
    "If",
    "Program",
    "EvalError",
    "LexError",
    "ParseError",
    "PldlError",
    "BUILTIN_NAMES",
    "Interpreter",
    "parse",
    "Runtime",
    "Token",
    "TokenKind",
    "tokenize",
    "translate",
    "translate_program",
]
