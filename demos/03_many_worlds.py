#!/usr/bin/env python3
"""Branching execution: every categorical draw forks one weighted world.

A Born-weighted draw with amplitudes (0.6, 0.8i) splits the run into two
worlds of weight 0.36 and 0.64; two fair coins give four worlds of 0.25.
Monte Carlo frequencies over ordinary seeded runs match the weights.
"""

from causalkit import (
    RunConfig,
    branch_run,
    build_initial_state,
    load_model,
    run,
)

PSI_DRAW = """
model psi_draw {
  state {
    outcome: int in {-1, 0, 1};
  }
  init {
    outcome = -1;
  }
  halt when outcome >= 0;
  law Draw {
    when outcome < 0;
    then {
      outcome = random({0, 1}, PSI(0.6, 0.8i));
    }
  }
}
"""


def show_tree(node, depth=0):
    label = f"--[{node.outcome}]--> " if node.outcome is not None else "root "
    term = f" ({node.termination.kind})" if node.termination else ""
    print("  " * depth + f"{label}weight={node.weight:.4f}{term}")
    for child in node.children:
        show_tree(child, depth + 1)


def main():
    model = load_model(PSI_DRAW)
    state = build_initial_state(model)
    cfg = RunConfig(dt=1.0, max_steps=10)

    tree = branch_run(model, state, cfg, depth_bound=8, width_bound=64)
    print("world tree of one Born draw:")
    show_tree(tree.root)
    print(f"leaf weights sum to {tree.leaf_weight_total():.12f} "
          f"(pruned mass {tree.pruned_mass})\n")

    n = 5000
    counts = {0: 0, 1: 0}
    for seed in range(n):
        trace = run(model, state, RunConfig(dt=1.0, max_steps=10, seed=seed))
        counts[trace.final_state.values["outcome"]] += 1
    print(f"Monte Carlo over {n} seeded runs:")
    for outcome, count in sorted(counts.items()):
        print(f"  outcome {outcome}: frequency {count / n:.4f}")
    print("  (compare with leaf weights 0.36 / 0.64)")


if __name__ == "__main__":
    main()
