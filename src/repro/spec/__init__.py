"""Specification-language front end (the CM-task compiler's DSL)."""

from .ast_nodes import Program
from .build import BuildResult, GraphBuilder, TaskCost, build_program
from .lexer import LexError, Token, tokenize
from .parser import ParseError, parse

__all__ = [
    "tokenize",
    "Token",
    "LexError",
    "parse",
    "ParseError",
    "Program",
    "GraphBuilder",
    "TaskCost",
    "BuildResult",
    "build_program",
]
