"""Deep Deterministic Policy Gradient (Lillicrap et al. 2016).

The paper "translate[s] the resource scheduling problem into [the] deep
deterministic policy gradient (DDPG) algorithm, a value-based
actor-critic reinforcement learning algorithm, which is very effective
for continuous (real-valued) and high-dimensional action space".

This is a faithful numpy implementation of the paper's Algorithm 2:

1. select ``a_t = mu_theta(x_t) + N_t`` (exploration noise),
2. store transitions in a replay buffer,
3. sample a minibatch, form targets
   ``y_i = r_i + gamma * Q'(x_{i+1}, mu'(x_{i+1}))``,
4. update the critic on the (importance-weighted) squared TD error,
5. update the actor with the sampled policy gradient
   ``grad_theta J = E[ grad_a Q(x, a)|_{a=mu(x)} * grad_theta mu(x) ]``,
6. soft-update both target networks with rate ``tau``.

Actions live in ``[-1, 1]^action_dim`` (the actor's tanh output);
knob-space scaling happens outside the agent.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.rl.nn import MLP, Adam, forward_many
from repro.rl.noise import OUNoise
from repro.rl.replay import TransitionBatch
from repro.utils.rng import RngLike, as_generator, spawn


@dataclass(frozen=True)
class DDPGConfig:
    """Hyper-parameters of the DDPG agent.

    Defaults follow the original DDPG paper scaled down to the small
    4-state/5-action NFV problem: two hidden layers, slow target tracking.
    """

    hidden: tuple[int, ...] = (64, 64)
    #: Discount: knob control under quasi-stationary traffic is close to a
    #: contextual bandit (each interval's reward fully reflects the SLA
    #: objective for that interval), so a short horizon both matches the
    #: problem and stops bootstrap bias from next-state throughput
    #: correlations dragging the policy into saturated corners.
    gamma: float = 0.45
    tau: float = 2e-2
    actor_lr: float = 5e-4
    critic_lr: float = 2e-3
    batch_size: int = 64
    #: Volatility of the Ornstein-Uhlenbeck exploration noise.
    noise_sigma: float = 0.25
    grad_clip: float = 10.0
    #: Exploration steps acted uniformly at random before the policy takes
    #: over.  Without this the critic only ever sees actions near the
    #: initial policy and extrapolates monotonically, which traps
    #: constrained SLAs (MinEnergy) in saturated corners of knob space.
    random_warmup_steps: int = 300

    def __post_init__(self) -> None:
        if not 0.0 < self.gamma < 1.0:
            raise ValueError("gamma must be in (0, 1)")
        if not 0.0 < self.tau <= 1.0:
            raise ValueError("tau must be in (0, 1]")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")


@dataclass
class UpdateMetrics:
    """Diagnostics from one learner step."""

    critic_loss: float
    actor_objective: float
    mean_q: float
    td_errors: np.ndarray = field(repr=False, default_factory=lambda: np.empty(0))


class DDPGAgent:
    """Actor-critic agent over continuous states and actions."""

    def __init__(
        self,
        state_dim: int,
        action_dim: int,
        config: DDPGConfig | None = None,
        *,
        rng: RngLike = None,
    ):
        if state_dim < 1 or action_dim < 1:
            raise ValueError("state and action dims must be >= 1")
        self.state_dim = state_dim
        self.action_dim = action_dim
        self.config = config or DDPGConfig()
        gen = as_generator(rng)
        r_actor, r_critic, r_noise = spawn(gen, 3)

        h = list(self.config.hidden)
        self.actor = MLP(
            [state_dim, *h, action_dim], ["relu"] * len(h) + ["tanh"], rng=r_actor
        )
        self.critic = MLP([state_dim + action_dim, *h, 1], rng=r_critic)
        self.target_actor = self.actor.clone()
        self.target_critic = self.critic.clone()
        self.actor_opt = Adam(
            self.actor, self.config.actor_lr, grad_clip=self.config.grad_clip
        )
        self.critic_opt = Adam(
            self.critic, self.config.critic_lr, grad_clip=self.config.grad_clip
        )
        self.noise = OUNoise(action_dim, sigma=self.config.noise_sigma, rng=r_noise)
        self._warmup_rng = as_generator(spawn(gen, 1)[0])
        self._explore_calls = 0
        self.updates_done = 0

    # -- acting ----------------------------------------------------------------

    def act(self, state: np.ndarray, *, explore: bool = True) -> np.ndarray:
        """Policy action for one state, optionally with exploration noise.

        The first ``random_warmup_steps`` exploratory calls act uniformly
        at random so the replay buffer covers the whole knob space before
        the deterministic policy concentrates it.
        """
        if explore and self._explore_calls < self.config.random_warmup_steps:
            self._explore_calls += 1
            return self._warmup_rng.uniform(-1.0, 1.0, size=self.action_dim)
        state = np.asarray(state, dtype=np.float64).reshape(1, -1)
        action = self.actor.forward(state, cache=False)[0]
        if explore:
            self._explore_calls += 1
            action = action + self.noise.sample()
        return np.clip(action, -1.0, 1.0)

    def reset_noise(self) -> None:
        """Reset the exploration process (episode boundary)."""
        self.noise.reset()

    # -- values ------------------------------------------------------------------

    def q_values(self, states: np.ndarray, actions: np.ndarray) -> np.ndarray:
        """Critic evaluation Q(s, a) for a batch."""
        states = np.atleast_2d(states)
        actions = np.atleast_2d(actions)
        return self.critic.forward(
            np.concatenate([states, actions], axis=1), cache=False
        )[:, 0]

    def td_errors(self, batch: TransitionBatch) -> np.ndarray:
        """TD errors under the *current* networks (for initial priorities)."""
        y = self._targets(batch)
        q = self.q_values(batch.states, batch.actions)
        return y - q

    def _targets(self, batch: TransitionBatch) -> np.ndarray:
        next_actions = self.target_actor.forward(batch.next_states, cache=False)
        next_q = self.target_critic.forward(
            np.concatenate([batch.next_states, next_actions], axis=1), cache=False
        )[:, 0]
        return batch.rewards + self.config.gamma * (1.0 - batch.dones) * next_q

    # -- learning ------------------------------------------------------------------

    def update(self, batch: TransitionBatch) -> UpdateMetrics:
        """One Algorithm 2 learner step on a minibatch.

        Returns metrics including per-sample TD errors, which the caller
        feeds back into the prioritized replay buffer.
        """
        n = len(batch)
        y = self._targets(batch)

        # Critic: minimize weighted MSE  L = 1/N sum w_i (y_i - Q_i)^2.
        sa = np.concatenate([batch.states, batch.actions], axis=1)
        q = self.critic.forward(sa, cache=True)[:, 0]
        td = y - q
        grad_q = (-2.0 * batch.weights * td / n).reshape(-1, 1)
        critic_grads, _ = self.critic.backward(grad_q)
        self.critic_opt.step(critic_grads)
        critic_loss = float(np.mean(batch.weights * td**2))

        # Actor: ascend  J = 1/N sum Q(s, mu(s)).
        mu = self.actor.forward(batch.states, cache=True)
        sa_mu = np.concatenate([batch.states, mu], axis=1)
        q_mu = self.critic.forward(sa_mu, cache=True)
        _, grad_sa = self.critic.backward(np.full_like(q_mu, 1.0 / n))
        dq_da = grad_sa[:, self.state_dim :]
        actor_grads, _ = self.actor.backward(-dq_da)  # minimize -J
        self.actor_opt.step(actor_grads)

        # Soft target updates (Algorithm 2 lines 9-10).
        self.target_critic.soft_update_from(self.critic, self.config.tau)
        self.target_actor.soft_update_from(self.actor, self.config.tau)
        self.updates_done += 1
        return UpdateMetrics(
            critic_loss=critic_loss,
            actor_objective=float(np.mean(q_mu)),
            mean_q=float(np.mean(q)),
            td_errors=td,
        )

    # -- parameter sync (Ape-X) ---------------------------------------------------

    def get_policy_params(self) -> list[np.ndarray]:
        """Copy of the actor parameters (learner -> actor sync payload)."""
        return self.actor.copy_params()

    def set_policy_params(self, params: list[np.ndarray]) -> None:
        """Install actor parameters received from the central learner."""
        self.actor.set_params(params)

    def get_all_params(self) -> dict[str, list[np.ndarray]]:
        """Full checkpoint of all four networks."""
        return {
            "actor": self.actor.copy_params(),
            "critic": self.critic.copy_params(),
            "target_actor": self.target_actor.copy_params(),
            "target_critic": self.target_critic.copy_params(),
        }

    def set_all_params(self, params: dict[str, list[np.ndarray]]) -> None:
        """Restore a checkpoint produced by :meth:`get_all_params`."""
        self.actor.set_params(params["actor"])
        self.critic.set_params(params["critic"])
        self.target_actor.set_params(params["target_actor"])
        self.target_critic.set_params(params["target_critic"])


def act_batch(
    agents: list[DDPGAgent], states, *, explore: bool = True
) -> list[np.ndarray]:
    """One policy action per agent, with all actor forwards batched.

    Equivalent to ``[agent.act(state, explore=explore) for ...]`` — the
    same warmup draws, the same exploration-noise samples from each
    agent's own process, the same clipping — but the non-warmup agents'
    actor networks evaluate in a single
    :func:`~repro.rl.nn.forward_many` pass, which is bit-identical to
    the per-agent forwards.  This is the Ape-X fleet's per-step fast
    path: N actors cost one stacked inference instead of N.
    """
    if len(agents) != len(states):
        raise ValueError("need one state per agent")
    actions: list[np.ndarray | None] = [None] * len(agents)
    policy_idx: list[int] = []
    for i, agent in enumerate(agents):
        if explore and agent._explore_calls < agent.config.random_warmup_steps:
            agent._explore_calls += 1
            actions[i] = agent._warmup_rng.uniform(
                -1.0, 1.0, size=agent.action_dim
            )
        else:
            policy_idx.append(i)
    if policy_idx:
        xs = np.stack(
            [
                np.asarray(states[i], dtype=np.float64).reshape(-1)
                for i in policy_idx
            ]
        )
        outs = forward_many([agents[i].actor for i in policy_idx], xs)
        for row, i in enumerate(policy_idx):
            agent = agents[i]
            action = outs[row]
            if explore:
                agent._explore_calls += 1
                action = action + agent.noise.sample()
            actions[i] = np.clip(action, -1.0, 1.0)
    return actions  # type: ignore[return-value]
