#!/usr/bin/env python3
"""Toy cellular automaton: diffusing field plus colliding particles.

Two particles approach head-on on a ring; when they land in the same
cell they exchange velocities (an elastic toy interaction), conserving
total momentum exactly.
"""

from causalkit import RunConfig, build_bundled_model, run


def render(world_value, cells):
    occupied = {}
    for p in world_value.fields["particles"]:
        pos = p.fields["pos"]
        vel = p.fields["vel"]
        occupied[pos] = ">" if vel > 0 else ("<" if vel < 0 else "o")
    return "".join(occupied.get(i, ".") for i in range(cells))


def main():
    model, state = build_bundled_model("qftca_toy")
    cells = len(state.values["world"].fields["phi"].values)
    trace = run(model, state, RunConfig(dt=1.0, max_steps=12, observables=(
        ("world", lambda s: s.values["world"]),)))
    print("ring evolution ('>' right-mover, '<' left-mover):")
    for row in trace.rows:
        world, = row.values
        momentum = sum(p.fields["vel"]
                       for p in world.fields["particles"])
        print(f"  step {row.step:2d}  {render(world, cells)}  "
              f"total momentum {momentum:+d}")


if __name__ == "__main__":
    main()
