"""Lowering: turn a typechecked model into an executable CausalModel."""

from __future__ import annotations

from ..engine import CausalModel, Law
from ..errors import CmlError
from .parser import parse
from .typecheck import TypedModel, typecheck


def lower(typed: TypedModel, default_timestep: float = 1.0) -> CausalModel:
    """Package a typechecked model for the engine, laws in declaration order;
    constructing it compiles the init block, and the rest is compiled on
    first use (see ``engine``)."""
    ast = typed.ast
    laws = tuple(Law(name=law.name, guard=law.guard, transition=law.body)
                 for law in ast.laws)
    init = tuple((a.target.id, a.value) for a in ast.init)
    return CausalModel(name=typed.name, schema=typed.schema, laws=laws,
                       init=init, halt=ast.halt,
                       default_timestep=default_timestep)


def compile_model(source: str, default_timestep: float = 1.0,
                  params: dict | None = None):
    """parse + typecheck + lower. Returns (CausalModel | None, diagnostics);
    ``params`` sets `param` values (see ``typecheck``)."""
    ast, diags = parse(source)
    if ast is None:
        return None, diags
    # a parse that gives an AST gives no diagnostics
    typed, diags = typecheck(ast, params)
    if typed is None:
        return None, diags
    return lower(typed, default_timestep), diags


def load_model(source: str, default_timestep: float = 1.0,
               params: dict | None = None) -> CausalModel:
    """Compile CML source, raising CmlError with diagnostics on failure."""
    model, diags = compile_model(source, default_timestep, params)
    if model is None:
        raise CmlError([d for d in diags if d.severity == "error"])
    return model
