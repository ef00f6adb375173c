#!/usr/bin/env python3
"""Double-slit detection histograms: interference on vs which-path marking.

With the which-path detector off, the two alternatives per screen bin are
indistinguishable and their amplitudes add (|A1 + A2|^2): fringes appear.
With the detector on, the path is marked before detection and the
probabilities add (|A1|^2 + |A2|^2): the fringes wash out.
"""

import numpy as np

from causalkit import RunConfig, build_bundled_model, run_ensemble

TRIALS = 20_000
BINS = 64


def histogram(detector: str) -> np.ndarray:
    model, state = build_bundled_model("double_slit", {"detector": detector})
    counts = np.zeros(BINS)
    cfg = RunConfig(dt=1.0, max_steps=5, seed=7)
    for _, final in run_ensemble(model, state, cfg, TRIALS):
        counts[final.values["detected"]] += 1
    return counts


def ascii_plot(counts: np.ndarray, title: str):
    print(title)
    peak = counts.max()
    for b in range(0, BINS, 2):
        level = (counts[b] + counts[b + 1]) / 2
        bar = "#" * int(40 * level / peak)
        print(f"  bin {b:2d} {bar}")
    central = counts[BINS // 4: 3 * BINS // 4]
    vis = (central.max() - central.min()) / (central.max() + central.min())
    print(f"  fringe visibility (central half): {vis:.3f}\n")


def main():
    ascii_plot(histogram("off"), f"detector off, {TRIALS} trials:")
    ascii_plot(histogram("on"), f"detector on, {TRIALS} trials:")


if __name__ == "__main__":
    main()
