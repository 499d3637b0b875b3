"""The names the benchmark's tracer wraps and reads must still exist in the package.

``perfbench/tracing.py`` wraps every callable in its ``SPANS``; its
boundary hooks bind some of their parameters by name and read some fields
of their results, and ``cli.main`` gets one span per command of
``CLI_COMMANDS``.  A rename or deletion in cflimits would break
``perfbench/run.py --trace 1`` while every other test passed, so this
module reads that contract from the tracer's source with ``ast`` (nothing
under ``perfbench/`` is imported) and checks it against the package.
"""

import ast
import dataclasses
import importlib
import inspect
import pathlib
import typing

import pytest

from cflimits import cli

TREE = ast.parse((pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py").read_text())


def assigned(name: str):
    """The literal assigned to the tracer's module-level ``name``."""
    for node in TREE.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == name for t in node.targets):
            return ast.literal_eval(node.value)
    raise LookupError(name)


def hook_reads() -> dict[str, tuple[set, set]]:
    """{span label: (parameter names bound, result fields read)} from ``Tracer._hooks``.

    Each hook is ``hook(args, result)``: ``args["name"]`` binds a parameter
    and ``result.field`` reads a field of the traced call's result.
    """
    hooks = next(n for n in ast.walk(TREE) if isinstance(n, ast.FunctionDef) and n.name == "_hooks")
    reads = {}
    for fn in hooks.body:
        if not isinstance(fn, ast.FunctionDef):
            continue
        args, result = (a.arg for a in fn.args.args)
        params, fields = set(), set()
        for node in ast.walk(fn):
            if isinstance(node, ast.Subscript) and getattr(node.value, "id", None) == args:
                params.add(ast.literal_eval(node.slice))
            elif isinstance(node, ast.Attribute) and getattr(node.value, "id", None) == result:
                fields.add(node.attr)
        reads[fn.name] = (params, fields)
    table = next(n for n in hooks.body if isinstance(n, ast.Return)).value
    return {ast.literal_eval(key): reads[value.id] for key, value in zip(table.keys, table.values)}


SPANS = assigned("SPANS")
HOOKS = hook_reads()


def resolve(label: str):
    """The callable the tracer wraps for "module.attr" or "module.Class.method"."""
    module, *path = label.split(".")
    target = importlib.import_module(f"cflimits.{module}")
    if len(path) == 2:  # the tracer replaces the method in the class's own namespace
        return vars(getattr(target, path[0]))[path[1]]
    return getattr(target, path[0])


def test_reader_sees_the_contract():
    assert len(SPANS) >= 20
    params = set().union(*(p for p, _ in HOOKS.values()))
    fields = set().union(*(f for _, f in HOOKS.values()))
    assert {"spec", "tol", "pair", "tail_bound", "order"} <= params
    assert {"n_terms", "n_blocks"} <= fields
    assert set(HOOKS) <= {f"{module}.{attr}" for module, attr in SPANS}


@pytest.mark.parametrize("module, attr", SPANS, ids=[f"{m}.{a}" for m, a in SPANS])
def test_each_span_resolves(module, attr):
    assert callable(resolve(f"{module}.{attr}"))


@pytest.mark.parametrize("label", sorted(HOOKS))
def test_hooked_functions_keep_parameters_and_result_fields(label):
    params, fields = HOOKS[label]
    fn = resolve(label)
    assert params <= set(inspect.signature(fn).parameters)
    if fields:
        result_type = typing.get_type_hints(fn)["return"]
        assert fields <= {f.name for f in dataclasses.fields(result_type)}


def test_traced_cli_commands_exist():
    assert set(assigned("CLI_COMMANDS")) <= set(cli.COMMANDS)
