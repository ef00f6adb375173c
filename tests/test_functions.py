"""The function table: static diagnostics of every built-in and kit
intrinsic, the runtime error messages of function calls, and the rule that
a failing function call ends the run instead of escaping it."""

import re
from pathlib import Path

import pytest

from causalkit import (
    RunConfig,
    branch_run,
    build_initial_state,
    compile_model,
    load_model,
    run,
    run_ensemble,
)
from causalkit.cli import main
from causalkit.intrinsics import registered_names

# state fields of every argument kind a function accepts or rejects
_TEMPLATE = """model calls {{
  state {{
    k: int; r: real; z: complex; b: bool;
    v: vector(8); g: cgrid(8, 0.5); li: list(int);
    pw: pwcollection(position: real, velocity: real);
  }}
  init {{ }}
  law L {{
    when true;
    then {{ k = {call}; }}
  }}
}}
"""

# name -> (a call with the wrong number of arguments,
#          a call with an argument of the wrong kind)
CALLS = {
    "abs": ("abs(r, r)", "abs(b)"),
    "abs2": ("abs2()", "abs2(v)"),
    "re": ("re(z, z)", "re(r)"),
    "im": ("im()", "im(k)"),
    "conj": ("conj(z, r)", "conj(b)"),
    "exp": ("exp(r, r)", "exp(v)"),
    "cos": ("cos()", "cos(z)"),
    "sin": ("sin(r, r)", "sin(b)"),
    "sqrt": ("sqrt(r, r)", "sqrt(z)"),
    "sum": ("sum(v, v)", "sum(r)"),
    "len": ("len()", "len(k)"),
    "laplacian": ("laplacian(g, g)", "laplacian(v)"),
    "complex": ("complex(r)", "complex(z, r)"),
    "schrodinger_step": ("schrodinger_step(g, v, dt, 1.0)",
                         "schrodinger_step(v, v, dt, 1.0, 1.0)"),
    "pw_propagate": ("pw_propagate(pw)", "pw_propagate(pw, b)"),
    "pw_interact": ("pw_interact(pw, pw)", "pw_interact(k)"),
    "pw_detect": ("pw_detect(pw, 4, -1.0, 1.0)",
                  "pw_detect(pw, 4, -1.0, 1.0, 1)"),
    "ca_step": ("ca_step()", "ca_step(k)"),
    "gauss_packet": ("gauss_packet(8, 0.5, 0.0, 1.0)",
                     "gauss_packet(8.0, 0.5, 0.0, 1.0, 0.0)"),
    "fill": ("fill(8)", "fill(8, z)"),
    "two_slit": ("two_slit(8, r, r, r)", "two_slit(8, r, r, r, b)"),
    "pw_spins": ("pw_spins()", "pw_spins(li)"),
    "pw_spin": ("pw_spin(pw)", "pw_spin(pw, 0)"),
    "ca_world": ("ca_world(8)", "ca_world(8, b)"),
}


def _errors(call: str) -> list:
    model, diags = compile_model(_TEMPLATE.format(call=call))
    assert model is None
    return [d for d in diags if d.severity == "error"]


def test_table_covers_every_registered_function():
    assert sorted(CALLS) == registered_names()


def test_language_reference_lists_every_registered_function():
    doc = (Path(__file__).parent.parent / "docs" / "cml.md").read_text(
        encoding="utf-8")
    section = doc.split("\n## Functions\n", 1)[1].split("\n## ", 1)[0]
    listed = re.findall(r"^\| `(\w+)\(", section, flags=re.MULTILINE)
    assert sorted(listed) == registered_names()


@pytest.mark.parametrize("name", sorted(CALLS))
def test_wrong_arity_is_bad_arity(name):
    (diag,) = _errors(CALLS[name][0])
    assert diag.code == "bad-arity"
    assert diag.message.startswith(f"{name} takes ")


@pytest.mark.parametrize("name", sorted(CALLS))
def test_wrong_argument_kind_is_type_mismatch(name):
    (diag,) = _errors(CALLS[name][1])
    assert diag.code == "type-mismatch"
    assert diag.message.startswith(f"{name}: ")


@pytest.mark.parametrize("name", sorted(CALLS))
def test_unknown_name_is_unknown_intrinsic(name):
    call = CALLS[name][1].replace(f"{name}(", f"{name}_x(", 1)
    (diag,) = _errors(call)
    assert diag.code == "unknown-intrinsic"
    assert diag.message == f"unknown function '{name}_x'"


def _scalar_model(init: str, body: str) -> str:
    return ("model m {\n"
            "  state { x: real; y: real; }\n"
            f"  init {{ x = {init}; y = 0.0; }}\n"
            "  law S {\n"
            "    when true;\n"
            f"    then {{ {body} }}\n"
            "  }\n"
            "}\n")


def _run(src: str, steps: int = 5):
    model = load_model(src)
    return run(model, build_initial_state(model),
               RunConfig(dt=1.0, max_steps=steps))


@pytest.mark.parametrize("init, body, message", [
    ("-1.0", "y = sqrt(x);", "law 'S': sqrt of a negative number at 6:16"),
    ("1000.0", "y = exp(x);", "law 'S': exp overflow at 6:16"),
    ("1000.0", "y = re(exp(complex(x, 0)));",
     "law 'S': exp overflow at 6:19"),
])
def test_runtime_messages(init, body, message):
    term = _run(_scalar_model(init, body)).termination
    assert (term.kind, term.message) == ("eval-error", message)


# a function call that raises inside its implementation: abs2 of 1e300
# overflows the square; cos fails on the inf that x * 1e300 overflows to
# (a state cannot hold inf: a non-finite write is an eval error itself)
FAILING = {
    "abs2-overflow": (_scalar_model("1e300", "y = abs2(x);"),
                      r"law 'S': abs2: .* at 6:16"),
    "cos-of-inf": (_scalar_model("1e300", "y = cos(x * 1e300);"),
                   r"law 'S': cos: math domain error at 6:16"),
}


@pytest.mark.parametrize("case", sorted(FAILING))
def test_function_error_ends_run(case):
    src, message = FAILING[case]
    term = _run(src).termination
    assert term.kind == "eval-error"
    assert re.fullmatch(message, term.message)


@pytest.mark.parametrize("case", sorted(FAILING))
def test_function_error_ends_branch(case):
    src, message = FAILING[case]
    model = load_model(src)
    tree = branch_run(model, build_initial_state(model),
                      RunConfig(dt=1.0, max_steps=5), depth_bound=4,
                      width_bound=4)
    (leaf,) = tree.leaves()
    assert leaf.termination.kind == "eval-error"
    assert re.fullmatch(message, leaf.termination.message)


@pytest.mark.parametrize("case", sorted(FAILING))
def test_function_error_ends_ensemble_trials(case):
    src, message = FAILING[case]
    model = load_model(src)
    results = list(run_ensemble(model, build_initial_state(model),
                                RunConfig(dt=1.0, max_steps=5), 3))
    assert len(results) == 3
    for term, _ in results:
        assert term.kind == "eval-error"
        assert re.fullmatch(message, term.message)


@pytest.mark.parametrize("case", sorted(FAILING))
def test_function_error_exits_1(case, tmp_path: Path, capsys):
    src, message = FAILING[case]
    path = tmp_path / "m.cml"
    path.write_text(src, encoding="utf-8")
    assert main(["run", str(path), "--steps", "5"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("terminated: eval-error: law 'S': ")
