#!/usr/bin/env python3
"""Joint collapse of an entangled pair.

The two spins live in one path collection whose two paths are (+1, -1)
and (-1, +1) with equal amplitudes. A measurement draws one path with
Born weights and fixes both spins jointly, so they always come out
opposite, while each side alone is a fair coin.
"""

from causalkit import RunConfig, build_bundled_model, run


def main():
    model, state = build_bundled_model("entangled_pair")
    n = 2000
    ups = 0
    opposite = 0
    for seed in range(n):
        trace = run(model, state, RunConfig(dt=1.0, max_steps=5, seed=seed))
        s1 = trace.final_state.values["s1"]
        s2 = trace.final_state.values["s2"]
        ups += s1 == 1
        opposite += s1 == -s2
    print(f"{n} measurements of the entangled pair:")
    print(f"  spin 1 came up +1 in {ups / n:.3f} of runs (expect ~0.5)")
    print(f"  spins anti-correlated in {opposite / n:.3f} of runs (expect 1.0)")


if __name__ == "__main__":
    main()
