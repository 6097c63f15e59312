#!/usr/bin/env python3
"""Joint scheduling of two competing chains: learning Fig. 1's lesson.

Two chains share one socket: C1 carries a heavy 8 Mpps flow through a
cache-hungry monitor chain; C2 carries a light 1 Mpps flow.  Fig. 1 of
the paper shows by micro-benchmark that the LLC must be split roughly
proportionally to the flows.  Here a single DDPG agent controls *both*
chains' knobs jointly (the paper's full state space X = {X1..Xn}) and
has to discover that partitioning itself.

Run:  python examples/multi_chain_scheduling.py
"""

import numpy as np

from repro.core.env import NFVEnv
from repro.core.sla import MaxThroughputSLA, RewardScales
from repro.core.training import train_ddpg
from repro.experiments.microbench import fig1_chains
from repro.traffic.generators import ConstantRateGenerator
from repro.traffic.packet import SMALL_PACKETS
from repro.utils.tables import render_table

#: Training budget: episodes, the periodic-test spacing and episode length.
EPISODES = 60
TEST_EVERY = 15
EPISODE_LEN = 12


def make_env(rng):
    c1, c2 = fig1_chains()
    return NFVEnv(
        MaxThroughputSLA(60.0, RewardScales(energy_j=81.5)),
        chains=[c1, c2],
        generators=[
            ConstantRateGenerator(8e6, SMALL_PACKETS),
            ConstantRateGenerator(1e6, SMALL_PACKETS),
        ],
        episode_len=EPISODE_LEN,
        rng=rng,
    )


def main() -> None:
    print("Training one agent over both chains (10-dim action space)...")
    agent, history = train_ddpg(
        make_env(1), make_env(2), episodes=EPISODES, test_every=TEST_EVERY, rng=9
    )
    rows = [
        [r.episode, r.throughput_gbps, r.energy_j, r.sla_satisfied_frac]
        for r in history.records
    ]
    print(
        render_table(
            ["episode", "aggregate T (Gbps)", "E/episode (J)", "SLA ok"],
            rows,
            title="Joint training progress",
        )
    )

    # Inspect the learned allocation.
    env = make_env(3)
    results = env.run_policy_episode(agent)
    last = results[-1]
    k1 = last.per_chain_knobs["C1"]
    k2 = last.per_chain_knobs["C2"]
    s1 = last.samples["C1"]
    s2 = last.samples["C2"]
    print("\nLearned per-chain allocation:")
    print(
        render_table(
            ["chain", "flow (Mpps)", "LLC share", "cores/NF", "batch", "T (Gbps)"],
            [
                ["C1 (heavy)", 8.0, f"{k1.llc_fraction:.0%}", k1.cpu_share, k1.batch_size, s1.throughput_gbps],
                ["C2 (light)", 1.0, f"{k2.llc_fraction:.0%}", k2.cpu_share, k2.batch_size, s2.throughput_gbps],
            ],
        )
    )
    if k1.llc_fraction > k2.llc_fraction:
        print(
            "\nThe agent gives the cache-hungry heavy chain the larger LLC "
            "share - Fig. 1's flow-proportional allocation, learned rather "
            "than hard-coded."
        )
    else:
        print(
            "\n(The agent found a different balance on this seed; the "
            "aggregate-throughput objective is what it optimizes.)"
        )


if __name__ == "__main__":
    main()
