#!/usr/bin/env python3
"""Author a small causal model in CML, run it, and inspect the trace.

Also shows what strict mode does when guards overlap or leave a gap:
the run terminates with the offending state as a witness instead of
silently picking a law.
"""

from causalkit import RunConfig, build_initial_state, load_model, run

BOUNCER = """
model bouncer {
  const top: real = 4.0;
  state {
    x: real in [0.0, 4.0];
    up: bool;
  }
  init {
    x = 0.0;
    up = true;
  }
  law Rise {
    when up;
    then {
      x = x + 1.0 * dt;
      if x + 1.0 * dt >= top {
        up = false;
      }
    }
  }
  law Fall {
    when !up;
    then {
      x = x - 1.0 * dt;
      if x - 1.0 * dt <= 0.0 {
        up = true;
      }
    }
  }
}
"""

GAPPY = """
model gappy {
  state {
    x: real in [-5.0, 5.0];
  }
  init {
    x = 2.0;
  }
  law OnlyNegative {
    when x < 0.0;
    then {
      x = x + 1.0;
    }
  }
}
"""


def main():
    model = load_model(BOUNCER)
    state = build_initial_state(model)
    # a trace row holds what the run observed: here the two fields printed
    trace = run(model, state, RunConfig(dt=1.0, max_steps=12, observables=(
        ("x", lambda s: s.values["x"]), ("up", lambda s: s.values["up"]))))
    print("bouncer trajectory (x, up):")
    for row in trace.rows:
        x, up = row.values
        bar = "#" * int(x)
        print(f"  step {row.step:2d}  x={x:4.1f} up={str(up):5s} |{bar}")
    print(f"termination: {trace.termination.kind}")
    print()

    gappy = load_model(GAPPY)
    trace = run(gappy, build_initial_state(gappy),
                RunConfig(dt=1.0, max_steps=10))
    t = trace.termination
    print(f"gappy model terminated with '{t.kind}'")
    print(f"witness state: x = {t.witness.values['x']}")
    print("(no guard covers x = 2.0, so the run stops with a completeness "
          "witness)")


if __name__ == "__main__":
    main()
