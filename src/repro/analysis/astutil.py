"""Small AST helpers shared by the rules."""

from __future__ import annotations

import ast
from typing import Iterator, Optional, Tuple


def dotted_name(node: ast.AST) -> Optional[str]:
    """``os.path.join`` for a Name/Attribute chain, else None."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def string_literal(node: ast.AST) -> Optional[str]:
    """The value of a plain string constant, else None."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    return None


def int_literal(node: ast.AST) -> Optional[int]:
    """The value of a plain int constant, else None."""
    if (
        isinstance(node, ast.Constant)
        and isinstance(node.value, int)
        and not isinstance(node.value, bool)
    ):
        return node.value
    return None


def walk_functions(
    tree: ast.AST,
) -> Iterator[Tuple[Optional[str], ast.AST]]:
    """Yield ``(enclosing_class_name, function_node)`` for every
    function/method in the tree (class name is None at module level)."""
    stack: list = [(None, tree)]
    while stack:
        class_name, node = stack.pop()
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                stack.append((child.name, child))
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield class_name, child
                stack.append((class_name, child))
            else:
                stack.append((class_name, child))
