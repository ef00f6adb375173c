"""`world_tree_text` writes exactly the text of `json.dumps` on the tree's
JSON form, here built by the dict oracle below."""

import json
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from causalkit import RunConfig, branch_run, build_initial_state, load_model
from causalkit.interpreter import (
    Termination,
    WorldNode,
    WorldTree,
    termination_to_json,
    world_tree_text,
)
from causalkit.jsontext import dumps_indented
from causalkit.state import (
    StateSchema,
    SystemState,
    TypeDesc,
    VVector,
    state_to_json,
)


def world_tree_to_json(tree: WorldTree) -> dict:
    """The tree as the dict whose indented JSON ``world_tree_text`` writes."""
    def node_json(node: WorldNode) -> dict:
        out: dict = {"weight": node.weight}
        if node.outcome is not None:
            out["outcome"] = node.outcome
        if node.pruned:
            out["pruned"] = True
        if node.termination is not None and not node.pruned:
            out["termination"] = termination_to_json(node.termination)
        if node.snapshot is not None and not node.children:
            out["state"] = state_to_json(node.snapshot)
        if node.children:
            out["children"] = []
            todo.append((node, out["children"]))
        return out

    todo: list = []
    root = node_json(tree.root)
    while todo:
        node, children = todo.pop()
        children.extend(node_json(c) for c in node.children)
    return {"prunedMass": tree.pruned_mass, "root": root}


SCHEMA = StateSchema({"v": TypeDesc.real(), "u": TypeDesc.real(),
                      "w": TypeDesc.vector(2)})

# payloads that compare equal but print apart: 0.0 and -0.0, 1 and True,
# 0 and False, and complex zeros of every sign
PAYLOADS = st.sampled_from([
    0.0, -0.0, 1.0, 0, 1, True, False, 0j, -0j, complex(-0.0, 0.0),
    complex(-0.0, -0.0), 1.5, float("nan"), float("inf")])

# the same values again and again, as fresh objects: equal leaves that the
# writer must tell apart only by what they print
TIMES = [0.0, -0.0, 1.0, 2.5]
SCALAR_STATES = st.builds(
    lambda t, v, u: SystemState(SCHEMA, t, {"v": v, "u": u}),
    st.sampled_from(TIMES), PAYLOADS, PAYLOADS)
# a vector payload: keyed by identity
VECTOR_STATES = st.builds(
    lambda t, w: SystemState(SCHEMA, t, {"v": 0.0, "w": VVector(w)}),
    st.sampled_from([0.0, 1.0]),
    st.lists(st.sampled_from([0.0, -0.0, 0.5]), min_size=2, max_size=2))
STATES = SCALAR_STATES | VECTOR_STATES

# labels that need escaping: quotes, backslashes, control characters and
# non-ASCII text
OUTCOMES = [None, "-1", "1", "True", '"', "\\", "a\nb", "\x00\x1f", "é",
            "\U0001f600"]
# weights that compare equal but print apart (0.0 and -0.0; 1, 1.0 and
# True) and ones that do not compare equal to themselves (NaN)
WEIGHTS = [1.0, 0.5, 0.25, 0.0, -0.0, 1, True, 1e-320, 0.1 + 0.2,
           float("nan"), float("inf")]


def weight(rnd):
    """A weight from WEIGHTS, or an equal float built afresh."""
    if rnd.random() < 0.2:
        return float(str(rnd.choice([0.5, 0.25, 0.1 + 0.2])))
    return rnd.choice(WEIGHTS)


@st.composite
def trees(draw):
    """Up to 40 nodes with random fan-out (each picks its parent among the
    nodes before it). Nodes pick states and terminations from small
    pools, so both equal and identical leaves repeat."""
    states = draw(st.lists(STATES, min_size=1, max_size=5))
    witness = st.sampled_from(states)
    terms = draw(st.lists(st.one_of(
        st.builds(Termination,
                  st.sampled_from(["halted", "max-steps", "depth-bound",
                                   "eval-error", "pruned"]),
                  st.sampled_from(["", "boom", 'say "hi"\n'])),
        # witness-carrying multiple-applicable leaves
        st.builds(lambda w, laws: Termination(
            "multiple-applicable", "2 laws apply", witness=w, laws=laws),
            witness, st.sampled_from([("A", "B"), ("A", 'q"', "C")])),
        st.builds(lambda w: Termination("no-applicable-law", "none apply",
                                        witness=w), witness)),
        min_size=1, max_size=4))
    rnd = draw(st.randoms(use_true_random=False))
    # the same values again, as fresh objects and at any time
    states += [SystemState(SCHEMA, rnd.choice(TIMES), dict(s.values))
               for s in states]
    # one termination and one snapshot shared by nodes at any depth, as
    # branch_run's pruned stubs share theirs
    stub = (Termination("pruned"), rnd.choice(states))
    nodes = []
    for i in range(rnd.randint(1, 40)):
        if rnd.random() < 0.3:
            termination, snapshot = stub
        else:
            termination = rnd.choice([None] + terms)
            snapshot = rnd.choice([None] + states)
        node = WorldNode(weight(rnd), rnd.choice(OUTCOMES), snapshot,
                         termination=termination, pruned=rnd.random() < 0.2)
        if nodes:
            nodes[rnd.randrange(i)].children.append(node)
        nodes.append(node)
    return WorldTree(nodes[0], weight(rnd))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(trees())
def test_matches_json_dumps_of_the_dict_form(tree):
    assert world_tree_text(tree) == json.dumps(world_tree_to_json(tree),
                                               indent=2)


def test_repeated_leaves_share_text_but_not_across_calls():
    def tree(x):
        state = SystemState(SCHEMA, 1.0, {"v": x})
        leaves = [WorldNode(0.5, str(i), state, [], Termination("halted"))
                  for i in range(2)]
        return WorldTree(WorldNode(1.0, children=leaves), 0.0)

    for x in (0.0, -0.0, 0.0, False, 0):
        t = tree(x)
        assert world_tree_text(t) == json.dumps(world_tree_to_json(t),
                                                indent=2)


@pytest.mark.parametrize("tree", [
    WorldTree(WorldNode(1), 0.0),
    WorldTree(WorldNode(1.0), 0),
    WorldTree(WorldNode(True), False),
    WorldTree(WorldNode(1.0, children=[WorldNode(1), WorldNode(True),
                                       WorldNode(0.0), WorldNode(-0.0)]),
              -0.0),
], ids=["int weight", "int mass", "bools", "equal weights"])
def test_weights_of_any_json_number_type(tree):
    assert world_tree_text(tree) == json.dumps(world_tree_to_json(tree),
                                               indent=2)


def test_pruned_stubs_share_one_termination():
    source = (Path(__file__).parent / "fixtures" / "walk.cml").read_text()
    model = load_model(source)
    tree = branch_run(model, build_initial_state(model),
                      RunConfig(dt=1.0, max_steps=9), depth_bound=8,
                      width_bound=4)
    stubs, stack = [], [tree.root]
    while stack:
        node = stack.pop()
        stack.extend(node.children)
        if node.pruned:
            stubs.append(node)
    assert stubs and tree.pruned_mass > 0.0
    assert len({id(n.termination) for n in stubs}) == 1
    t = stubs[0].termination
    assert (t.kind, t.message, t.witness) == ("pruned", "", None)
    assert world_tree_text(tree) == json.dumps(world_tree_to_json(tree),
                                               indent=2)


def test_terminations_that_differ_only_by_witness():
    leaves = [WorldNode(0.25, termination=Termination(
        "no-applicable-law", "none apply",
        witness=SystemState(SCHEMA, 0.0, {"v": x})))
        for x in (0.0, -0.0, 1.0, 0.0)]
    tree = WorldTree(WorldNode(1.0, children=leaves), 0.0)
    assert world_tree_text(tree) == json.dumps(world_tree_to_json(tree),
                                               indent=2)


def test_depth_is_not_bounded_by_the_recursion_limit():
    state = SystemState(SCHEMA, 0.0, {"v": -0.0})
    node = WorldNode(0.5, "x", state, [], Termination("halted"))
    for i in range(sys.getrecursionlimit() + 50):
        node = WorldNode(1.0, None if i % 2 else "y", children=[node])
    tree = WorldTree(node, 0.0)
    assert world_tree_text(tree) == dumps_indented(world_tree_to_json(tree))


def test_leaves_of_a_tree_deeper_than_the_recursion_limit():
    from pathlib import Path

    from causalkit import RunConfig, branch_run, build_initial_state, load_model

    source = (Path(__file__).parent / "fixtures" / "walk.cml").read_text()
    model = load_model(source)
    depth = sys.getrecursionlimit() + 100
    tree = branch_run(model, build_initial_state(model),
                      RunConfig(dt=1.0, max_steps=depth), depth_bound=depth,
                      width_bound=1)
    leaves = tree.leaves()
    # one lineage survives each round; the last one ends at max-steps
    assert [l.termination.kind for l in leaves] == ["max-steps"]
    assert tree.leaf_weight_total() == 0.5 ** depth
    assert tree.leaf_weight_total() + tree.pruned_mass == 1.0


def test_leaves_are_listed_before_the_leaves_below_them():
    leaf = WorldNode(0.25, "b", termination=Termination("halted"))
    pruned = WorldNode(0.25, "c", pruned=True,
                       termination=Termination("pruned"))
    inner = WorldNode(0.5, "a", children=[leaf, pruned],
                      termination=Termination("depth-bound"))
    last = WorldNode(0.5, "d", termination=Termination("max-steps"))
    tree = WorldTree(WorldNode(1.0, children=[inner, last]), 0.25)
    assert tree.leaves() == [inner, leaf, last]
