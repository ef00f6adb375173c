"""The emitted test of a written composite root against the walk
(``state.check_value``): for every composite field type of the bundled
models and of the fixtures, a valid value passes without the walk, and
each single mutation of it fails with exactly the text the walk gives.

The texts are pinned in ``fixtures/check_texts.json``; it holds
``walk_texts()`` as the walk gave it, dumped with ``indent=1`` and
sorted keys."""

from __future__ import annotations

import json

import numpy as np
import pytest

from causalkit import (
    RunConfig,
    branch_run,
    engine,
    load_model,
    run,
    run_ensemble,
)
from causalkit.bundled import build_bundled_model, list_bundled_models
from causalkit.engine import CausalModel, Law
from causalkit.errors import TypeMismatchError
from causalkit.frontend.ast_nodes import Assign, Lit, Loc, Name
from causalkit.pw import PwCollection
from causalkit.state import (
    PAYLOAD_TYPES,
    StateSchema,
    SystemState,
    TypeDesc,
    VCGrid,
    VRecord,
    VVector,
    check_value,
)

from conftest import FIXTURES

# lists nested past the 20 blocks Python allows statically in one function
DEEP = StateSchema(fields={"deep": TypeDesc.list_of(
    TypeDesc.list_of(TypeDesc.list_of(TypeDesc.int_())))})
for _ in range(22):
    DEEP = StateSchema(fields={"deep": TypeDesc.list_of(DEEP.fields["deep"])})


def spell(td: TypeDesc, records: dict) -> str:
    """``td`` with each record it reaches spelled out (a list's bound,
    which no check reads, left out)."""
    if td.kind == "list":
        return f"list({spell(td.element, records)})"
    if td.kind == "record":
        members = ", ".join(f"{n}: {spell(f, records)}"
                            for n, f in records[td.record])
        return f"{td.record} {{{members}}}"
    return str(td)


def composite_types() -> dict:
    """spelling -> (schema, field) for the first field of each composite
    type, over the bundled models, the fixtures and ``DEEP``."""
    schemas = [build_bundled_model(name)[0].schema
               for name in list_bundled_models()]
    schemas += [load_model(path.read_text(encoding="utf-8")).schema
                for path in sorted(FIXTURES.glob("*.cml"))]
    out: dict = {}
    for schema in [*schemas, DEEP]:
        for name, td in schema.fields.items():
            if td.kind not in PAYLOAD_TYPES:
                out.setdefault(spell(td, schema.records), (schema, name))
    return out


def valid(td: TypeDesc, records: dict):
    kind = td.kind
    if kind in PAYLOAD_TYPES:
        return PAYLOAD_TYPES[kind](1)
    if kind == "vector":
        return VVector(np.zeros(td.length))
    if kind == "cgrid":
        return VCGrid(np.zeros(td.length), td.dx)
    if kind == "list":
        return (valid(td.element, records),)
    if kind == "record":
        return VRecord(td.record, {n: valid(f, records)
                                   for n, f in records[td.record]})
    return _pw(tuple((n, t.kind) for n, t in td.attrs))


def _pw(decls) -> PwCollection:
    return PwCollection(decls, [1.0],
                        {n: [[PAYLOAD_TYPES[k](0)]] for n, k in decls})


# a payload of a near type for each scalar kind
_NEAR = {"int": True, "real": 1, "bool": 1, "complex": 1.0}


def mutations(td: TypeDesc, records: dict) -> list:
    """(label, a valid value of ``td`` with one part of it wrong) pairs."""
    kind = td.kind
    if kind in PAYLOAD_TYPES:
        return [(f"{_NEAR[kind]!r} for {kind}", _NEAR[kind])]
    # a whole vector or cgrid written is checked finite before its type,
    # so each of them is mutated into the other, which that check takes
    if kind == "vector":
        return [("length", VVector(np.zeros(td.length + 1))),
                ("a cgrid", VCGrid(np.zeros(td.length), 1.0))]
    if kind == "cgrid":
        return [("length", VCGrid(np.zeros(td.length + 1), td.dx)),
                ("dx", VCGrid(np.zeros(td.length), td.dx * 2)),
                ("a vector", VVector(np.zeros(td.length)))]
    if kind == "pwcollection":
        decls = [(n, t.kind) for n, t in td.attrs]
        renamed = [(decls[0][0] + "_", decls[0][1]), *decls[1:]]
        return [("declarations", _pw(tuple(renamed))),
                ("a vector", VVector([0.0]))]
    if kind == "list":
        item = valid(td.element, records)
        return [("a vector", VVector([0.0])), *(
            (f"item: {label}", (item, bad))
            for label, bad in mutations(td.element, records))]
    members = valid(td, records).fields
    names = list(members)
    other = {"P": "Q"}.get(td.record, "P")
    out = [("record name", VRecord(other, members)),
           ("missing member", VRecord(td.record, {n: members[n]
                                                  for n in names[:-1]})),
           ("extra member", VRecord(td.record, {**members, "extra": 0}))]
    if len(names) > 1:
        # the walk names the first wrong member in the value's order
        order = names[::-1]
        decl = dict(records[td.record])
        wrong = {n: mutations(decl[n], records)[0][1] for n in order[:2]}
        out.append(("members in another order, two wrong", VRecord(
            td.record, {n: wrong.get(n, members[n]) for n in order})))
    for name, member_td in records[td.record]:
        for label, bad in mutations(member_td, records):
            out.append((f"{name}: {label}",
                        VRecord(td.record, {**members, name: bad})))
    return out


def walk_texts() -> dict:
    """spelling -> mutation label -> the walk's TypeMismatchError text."""
    out = {}
    for spelling, (schema, name) in composite_types().items():
        td, texts = schema.fields[name], {}
        for label, value in mutations(td, schema.records):
            with pytest.raises(TypeMismatchError) as exc:
                check_value(value, td, schema, where=name)
            texts[label] = str(exc.value)
        out[spelling] = texts
    return out


PINNED = json.loads((FIXTURES / "check_texts.json").read_text(
    encoding="utf-8"))
TYPES = composite_types()


def writer(schema: StateSchema, name: str):
    """value -> the post-state of a law ``name = name;``, from a pre-state
    that holds ``value`` as ``name`` (built without a check)."""
    td, loc = schema.fields[name], Loc(1, 1)
    law = Law("W", Lit(loc, ty=TypeDesc.bool_(), value=True, kind="bool"),
              [Assign(loc, Name(loc, ty=td, id=name),
                      Name(loc, ty=td, id=name))])
    apply = CausalModel("writes", schema, (law,)).transitions[0]
    return lambda value: apply(SystemState(schema, 0.0, {name: value}),
                               1.0, None, 1.0)


def test_every_composite_type_is_pinned():
    assert sorted(TYPES) == sorted(PINNED)
    assert walk_texts() == PINNED


@pytest.mark.parametrize("spelling", sorted(PINNED))
def test_the_emitted_check_matches_the_walk(spelling, monkeypatch):
    schema, name = TYPES[spelling]
    td = schema.fields[name]
    walks = []

    def counting(value, td, schema, where):
        walks.append(where)
        check_value(value, td, schema, where)

    # apply<i> binds the walk through engine's name, as tracing hooks it
    monkeypatch.setattr(engine, "check_value", counting)
    write = writer(schema, name)
    value = valid(td, schema.records)
    assert write(value).values[name] is value
    if td.kind == "record":   # the walk takes members in any order
        reordered = VRecord(td.record, dict(reversed(value.fields.items())))
        assert write(reordered).values[name] is reordered
    assert walks == []   # a valid value is passed by the emitted test alone
    cases = mutations(td, schema.records)
    labels = [label for label, _ in cases]
    assert len(set(labels)) == len(labels)
    assert sorted(labels) == sorted(PINNED[spelling])
    for label, bad in cases:
        with pytest.raises(TypeMismatchError) as exc:
            write(bad)
        assert str(exc.value) == PINNED[spelling][label], label
    assert walks == [name] * len(cases)


@pytest.mark.parametrize("td, message", [
    (TypeDesc.vector(2), "field 'v': expected vector(2), got list"),
    (TypeDesc.cgrid(2, 0.5), "field 'v': expected cgrid(2, 0.5), got list"),
    (TypeDesc.real(), "field 'v': expected real, got list"),
])
def test_a_raw_start_state_is_checked_before_any_step(td, message):
    # a SystemState built directly checks only its time; the entry points
    # check its values, so the law's write never sees a wrong type
    model = load_model(f"model keep {{ state {{ v: {td}; }} init {{ }} "
                       "law Keep { when true; then { v = v; } } }")
    init = SystemState(model.schema, 0.0, {"v": (1.0, 2.0)})
    cfg = RunConfig(dt=1.0, max_steps=3)
    for enter in (lambda: run(model, init, cfg),
                  lambda: branch_run(model, init, cfg, 4, 4),
                  lambda: list(run_ensemble(model, init, cfg, 2))):
        with pytest.raises(TypeMismatchError) as exc:
            enter()
        assert str(exc.value) == message
