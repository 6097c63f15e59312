#!/usr/bin/env python3
"""SLA comparison: which contract should a telco offer for this chain?

Builds the paper's Fig. 9 line-up — Baseline, Heuristics, EE-Pstate,
Q-Learning and the three GreenNFV SLA policies — as declarative
scenario specs and executes them with the parallel ``SweepRunner``,
one worker process per controller.  A TSP deciding what to promise a
customer runs exactly this: one workload, many controllers/SLAs, one
comparable result table (plus a JSON artifact per scenario if
``out_dir`` is set).

Run:  python examples/sla_comparison.py
"""

from repro import SweepRunner
from repro.experiments.comparison import comparison_specs
from repro.utils.tables import render_table

#: Deployment length, training budgets and sweep worker processes.
INTERVALS = 30
TRAIN_EPISODES = 60
QLEARNING_EPISODES = 120
PROCESSES = 4


def main() -> None:
    specs = comparison_specs(
        intervals=INTERVALS,
        train_episodes=TRAIN_EPISODES,
        qlearning_episodes=QLEARNING_EPISODES,
        seed=11,
    )
    print(
        f"Running the {len(specs)}-way comparison as a parallel sweep "
        "(this trains four policies)..."
    )
    runner = SweepRunner(specs, processes=PROCESSES)
    results = runner.run()

    print()
    print(
        render_table(
            ["scenario", "controller", "T (Gbps)", "E (J)", "T/E (Gbps/kJ)", "SLA"],
            runner.summary_rows(),
            title="Fig. 9 — performance comparison of the models",
        )
    )

    base = next(r for r in results if r.spec.name == "Baseline")
    print("\nHeadline multiples vs. the untuned Baseline:")
    for r in results:
        if r.spec.name == "Baseline":
            continue
        t_ratio = r.mean_throughput_gbps / base.mean_throughput_gbps
        e_ratio = r.total_energy_j / base.total_energy_j
        print(
            f"  {r.spec.name:16s} {t_ratio:4.1f}x throughput at "
            f"{1 - e_ratio:4.0%} less energy"
        )
    print(
        "\nPaper reference points: MaxT ~4.4x with ~33% less energy; "
        "MinE ~3x with ~50-60% less; Heuristics/EE-Pstate/Q-Learning ~2x."
    )


if __name__ == "__main__":
    main()
