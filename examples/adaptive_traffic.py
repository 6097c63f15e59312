#!/usr/bin/env python3
"""Adaptivity under dynamic traffic: GreenNFV vs. a static configuration.

The paper's motivation for learning over heuristics is that "network
flows can be highly dynamic".  This example declares an
Energy-Efficiency scenario on bursty MMPP traffic — the ``mmpp`` entry
of the traffic registry, straight from the spec — runs it through the
scenario facade, and compares the learned controller against a
statically tuned peak-provisioned configuration: the adaptive policy
retunes its knobs as the load swings, saving energy in the troughs
without giving up throughput at the peaks.

Run:  python examples/adaptive_traffic.py
"""

import numpy as np

from repro import ScenarioSpec, run
from repro.core.env import NFVEnv
from repro.core.sla import EnergyEfficiencySLA, RewardScales
from repro.nfv.knobs import KnobSettings
from repro.traffic.generators import MMPPGenerator
from repro.utils.tables import render_table
from repro.utils.units import line_rate_pps

LINE_PPS = line_rate_pps(10.0, 1518)

#: A 2-state MMPP flow swinging between 15% and 90% of line rate.
BURSTY = dict(
    low_rate_pps=0.15 * LINE_PPS,
    high_rate_pps=0.9 * LINE_PPS,
    p_low_to_high=0.15,
    p_high_to_low=0.15,
)

#: Seconds of bursty traffic each controller faces, and the training budget.
DURATION_S = 60
EPISODES = 70
TEST_EVERY = 35


def run_static(duration_s: int, seed: int) -> tuple[float, float]:
    """A fixed, peak-provisioned configuration (no adaptation)."""
    env = NFVEnv(
        EnergyEfficiencySLA(RewardScales(energy_j=81.5)),
        generators=[MMPPGenerator(**BURSTY)],
        episode_len=duration_s,
        rng=seed,
    )
    knobs = KnobSettings(
        cpu_share=1.5, cpu_freq_ghz=2.1, llc_fraction=0.9, dma_mb=16, batch_size=192
    )
    env.reset(knobs=knobs)
    action = env.knob_space.to_action(knobs)
    ts, es = [], []
    for _ in range(duration_s):
        r = env.step(action)
        ts.append(r.sample.throughput_gbps)
        es.append(r.sample.energy_j)
    return float(np.mean(ts)), float(np.sum(es))


def main() -> None:
    duration = DURATION_S
    spec = ScenarioSpec(
        name="adaptive-mmpp",
        sla="energy_efficiency",
        sla_params={"scales": {"throughput_gbps": 10.0, "energy_j": 81.5}},
        traffic="mmpp",
        traffic_params=BURSTY,
        controller="ddpg",
        episodes=EPISODES,
        test_every=TEST_EVERY,
        episode_len=16,
        intervals=duration,
        seed=5,
    )

    print("Training the Energy-Efficiency policy on bursty MMPP traffic...")
    result = run(spec)
    t_adaptive = float(np.mean(result.series("throughput_gbps")))
    e_adaptive = float(np.sum(result.series("energy_j")))
    t_static, e_static = run_static(duration, seed=99)

    print()
    print(
        render_table(
            ["controller", "mean T (Gbps)", "energy (J)", "T/E (Gbps/kJ)"],
            [
                ["GreenNFV (adaptive)", t_adaptive, e_adaptive, t_adaptive / (e_adaptive / 1e3)],
                ["static peak-provisioned", t_static, e_static, t_static / (e_static / 1e3)],
            ],
            title=f"{duration} s of bursty traffic",
        )
    )

    print("\nKnob trajectory of the adaptive controller (every 10 s):")
    rows = []
    for p in result.timeline[::10]:
        rows.append(
            [
                f"{p['t_s']:.0f}",
                p["throughput_gbps"],
                p["energy_j"],
                p["knobs"]["cpu_freq_ghz"],
                p["knobs"]["cpu_share"],
                p["knobs"]["batch_size"],
            ]
        )
    print(
        render_table(
            ["t (s)", "T (Gbps)", "E (J)", "freq (GHz)", "cores/NF", "batch"], rows
        )
    )


if __name__ == "__main__":
    main()
