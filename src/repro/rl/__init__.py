"""Reinforcement learning from scratch: MLPs, DDPG, PER, Q-learning, Ape-X."""

from repro.rl.apex import ApexActor, ApexConfig, ApexCoordinator, ApexLearner, ApexStats
from repro.rl.checkpoint import load_agent, save_agent
from repro.rl.ddpg import DDPGAgent, DDPGConfig, UpdateMetrics
from repro.rl.nn import MLP, Adam, DenseLayer
from repro.rl.noise import GaussianNoise, OUNoise
from repro.rl.per import PrioritizedReplayBuffer
from repro.rl.qlearning import QLearningAgent, QLearningConfig
from repro.rl.replay import ReplayBuffer, Transition, TransitionBatch
from repro.rl.sumtree import SumTree

__all__ = [
    "ApexActor",
    "ApexConfig",
    "ApexCoordinator",
    "ApexLearner",
    "ApexStats",
    "load_agent",
    "save_agent",
    "DDPGAgent",
    "DDPGConfig",
    "UpdateMetrics",
    "MLP",
    "Adam",
    "DenseLayer",
    "GaussianNoise",
    "OUNoise",
    "PrioritizedReplayBuffer",
    "QLearningAgent",
    "QLearningConfig",
    "ReplayBuffer",
    "Transition",
    "TransitionBatch",
    "SumTree",
]
