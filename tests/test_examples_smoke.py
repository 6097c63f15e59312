"""Smoke tests: every example must run end-to-end.

Examples are user-facing documentation; a broken one is a broken promise.
Each runs in-process with its ``main()`` (faster than subprocesses and
failures point at real lines).  The heavy ones are trimmed via their
module constants where possible; all complete in seconds.
"""

import importlib
import sys
from pathlib import Path

import pytest

EXAMPLES_DIR = Path(__file__).resolve().parent.parent / "examples"


def run_example(name: str, **constants) -> None:
    """Import an example, override its module ``constants``, run ``main()``."""
    sys.path.insert(0, str(EXAMPLES_DIR))
    try:
        module = importlib.import_module(name)
        for key, value in constants.items():
            assert hasattr(module, key), f"{name} has no constant {key}"
            setattr(module, key, value)
        module.main()
    finally:
        sys.path.remove(str(EXAMPLES_DIR))
        sys.modules.pop(name, None)


class TestExamplesRun:
    def test_quickstart(self, capsys):
        run_example("quickstart")
        out = capsys.readouterr().out
        assert "Converged" in out
        assert "Online recommendation" in out

    def test_custom_chain(self, capsys):
        run_example("custom_chain")
        out = capsys.readouterr().out
        assert "tunnel_gw" in out
        assert "Best batch" in out

    def test_power_calibration(self, capsys):
        import re

        run_example("power_calibration")
        out = capsys.readouterr().out
        match = re.search(r"fitted h = ([0-9.]+)", out)
        assert match is not None
        assert abs(float(match.group(1)) - 1.4) < 0.05

    def test_sdn_flow_steering(self, capsys):
        run_example("sdn_flow_steering")
        out = capsys.readouterr().out
        assert "overload-relief" in out
        assert "migrations" in out

    def test_multi_chain_scheduling(self, capsys):
        run_example("multi_chain_scheduling", EPISODES=8, TEST_EVERY=4, EPISODE_LEN=4)
        out = capsys.readouterr().out
        assert "Joint training progress" in out
        assert "Learned per-chain allocation" in out
        assert "C1 (heavy)" in out and "C2 (light)" in out

    def test_adaptive_traffic(self, capsys):
        run_example("adaptive_traffic", DURATION_S=10, EPISODES=4, TEST_EVERY=2)
        out = capsys.readouterr().out
        assert "10 s of bursty traffic" in out
        assert "GreenNFV (adaptive)" in out
        assert "static peak-provisioned" in out
        assert "Knob trajectory" in out

    def test_sla_comparison(self, capsys):
        run_example(
            "sla_comparison",
            INTERVALS=4,
            TRAIN_EPISODES=2,
            QLEARNING_EPISODES=2,
            PROCESSES=2,
        )
        out = capsys.readouterr().out
        assert "Fig. 9" in out
        assert "Headline multiples vs. the untuned Baseline" in out
        for name in ("Heuristics", "EE-Pstate", "Q-Learning", "GreenNFV(MaxT)"):
            assert f"  {name}" in out

    @pytest.mark.slow
    def test_distributed_training(self, capsys):
        run_example("distributed_training")
        out = capsys.readouterr().out
        assert "Ape-X final" in out
