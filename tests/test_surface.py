"""The package's count of optional settable values and of lines may not grow unseen.

An optional settable value is a parameter with a default (of any
function, method or lambda) or a dataclass field with a default, counted
over the AST of every module of the package.  A change that adds one must
raise ``LIMIT`` in its own diff; a change that adds lines to the package's
modules must raise ``LINES`` in its own diff.
"""

import ast
import pathlib

import cflimits

MODULES = sorted(pathlib.Path(cflimits.__file__).parent.glob("*.py"))

LIMIT = 61
LINES = 3335


def _is_dataclass(node: ast.ClassDef) -> bool:
    for decorator in node.decorator_list:
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        if isinstance(target, ast.Name) and target.id == "dataclass":
            return True
    return False


def optional_settable_values(source: str) -> int:
    count = 0
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            count += len(node.args.defaults) + sum(d is not None for d in node.args.kw_defaults)
        elif isinstance(node, ast.ClassDef) and _is_dataclass(node):
            count += sum(isinstance(s, ast.AnnAssign) and s.value is not None for s in node.body)
    return count


def test_counter_sees_each_kind_of_default():
    source = '''
@dataclass(frozen=True)
class A:
    x: int
    y: int = 0
    z = 1

class B:
    w: int = 2

def f(a, b=1, *, c, d=2):
    g = lambda h=3: h
'''
    assert optional_settable_values(source) == 4


def test_optional_settable_values_do_not_grow():
    total = sum(optional_settable_values(path.read_text()) for path in MODULES)
    assert total <= LIMIT


def test_src_lines_do_not_grow():
    # The count ``wc -l`` gives: newline characters.
    total = sum(path.read_text().count("\n") for path in MODULES)
    assert total <= LINES
