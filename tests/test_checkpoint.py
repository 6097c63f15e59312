"""Policy checkpoint save/load tests."""

import numpy as np
import pytest

from repro.rl.checkpoint import FORMAT_VERSION, load_agent, save_agent
from repro.rl.ddpg import DDPGAgent, DDPGConfig


class TestRoundtrip:
    def test_policy_identical_after_reload(self, tmp_path):
        agent = DDPGAgent(4, 5, DDPGConfig(hidden=(16, 16)), rng=0)
        agent.updates_done = 123
        path = save_agent(agent, tmp_path / "policy")
        assert path.suffix == ".npz"
        loaded = load_agent(path)
        s = np.random.default_rng(0).normal(size=4)
        assert np.allclose(
            agent.act(s, explore=False), loaded.act(s, explore=False)
        )
        assert loaded.updates_done == 123

    def test_all_four_networks_restored(self, tmp_path):
        agent = DDPGAgent(3, 2, DDPGConfig(hidden=(8,)), rng=1)
        path = save_agent(agent, tmp_path / "p.npz")
        loaded = load_agent(path)
        orig = agent.get_all_params()
        rest = loaded.get_all_params()
        for net in ("actor", "critic", "target_actor", "target_critic"):
            for a, b in zip(orig[net], rest[net]):
                assert np.array_equal(a, b)

    def test_config_restored(self, tmp_path):
        cfg = DDPGConfig(hidden=(24, 12), gamma=0.5, tau=0.03, critic_lr=1e-3)
        agent = DDPGAgent(4, 5, cfg, rng=0)
        loaded = load_agent(save_agent(agent, tmp_path / "c"))
        assert loaded.config.hidden == (24, 12)
        assert loaded.config.gamma == 0.5
        assert loaded.config.tau == 0.03
        assert loaded.config.critic_lr == 1e-3

    def test_every_config_field_restored(self, tmp_path):
        cfg = DDPGConfig(
            hidden=(16, 8),
            noise_sigma=0.1,
            batch_size=16,
            actor_lr=1e-3,
            random_warmup_steps=7,
        )
        agent = DDPGAgent(4, 5, cfg, rng=0)
        loaded = load_agent(save_agent(agent, tmp_path / "full"))
        assert loaded.config == agent.config

    def test_four_key_checkpoint_loads_with_defaults(self, tmp_path):
        # The layout written before every config field was stored.
        import json

        cfg = DDPGConfig(hidden=(8,), gamma=0.5, tau=0.03)
        agent = DDPGAgent(3, 2, DDPGConfig(hidden=(8,), batch_size=16), rng=0)
        path = save_agent(agent, tmp_path / "old")
        with np.load(path) as data:
            arrays = {k: data[k] for k in data.files}
        meta = json.loads(bytes(arrays["__meta__"].tobytes()).decode())
        old = {k: meta[k] for k in ("format_version", "state_dim", "action_dim")}
        old.update(hidden=[8], gamma=0.5, tau=0.03, noise_type="ou")
        arrays["__meta__"] = np.frombuffer(json.dumps(old).encode(), dtype=np.uint8)
        np.savez(path, **arrays)
        loaded = load_agent(path)
        assert loaded.config == cfg
        assert loaded.updates_done == 0

    def test_gaussian_noise_checkpoint_is_refused(self, tmp_path):
        # Only Ornstein-Uhlenbeck noise exists: a checkpoint trained with
        # Gaussian noise must not resume with OU noise unannounced.
        import json

        agent = DDPGAgent(3, 2, DDPGConfig(hidden=(8,)), rng=0)
        path = save_agent(agent, tmp_path / "gauss")
        with np.load(path) as data:
            arrays = {k: data[k] for k in data.files}
        meta = json.loads(bytes(arrays["__meta__"].tobytes()).decode())
        meta.update(noise_type="gaussian", noise_sigma_min=0.03, noise_decay=0.9995)
        arrays["__meta__"] = np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8)
        np.savez(path, **arrays)
        with pytest.raises(ValueError, match="noise_type='gaussian'"):
            load_agent(path)

    def test_ou_checkpoint_with_dropped_noise_fields_loads(self, tmp_path):
        # Checkpoints written while the config still had noise_type,
        # noise_sigma_min and noise_decay store all three; with OU noise
        # they resume as before, the dropped fields ignored.
        import json

        cfg = DDPGConfig(hidden=(8,), noise_sigma=0.1, batch_size=16)
        agent = DDPGAgent(3, 2, cfg, rng=0)
        agent.updates_done = 7
        path = save_agent(agent, tmp_path / "ou")
        with np.load(path) as data:
            arrays = {k: data[k] for k in data.files}
        meta = json.loads(bytes(arrays["__meta__"].tobytes()).decode())
        meta.update(noise_type="ou", noise_sigma_min=0.03, noise_decay=0.9995)
        arrays["__meta__"] = np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8)
        np.savez(path, **arrays)
        loaded = load_agent(path)
        assert loaded.config == cfg
        assert loaded.updates_done == 7
        for net, params in agent.get_all_params().items():
            for a, b in zip(params, loaded.get_all_params()[net]):
                assert np.array_equal(a, b), net

    def test_loaded_agent_can_keep_training(self, tmp_path):
        from repro.rl.replay import Transition, TransitionBatch

        agent = DDPGAgent(3, 2, DDPGConfig(hidden=(8,), batch_size=4), rng=0)
        loaded = load_agent(save_agent(agent, tmp_path / "t"))
        rng = np.random.default_rng(0)
        batch = TransitionBatch(
            states=rng.normal(size=(4, 3)),
            actions=rng.uniform(-1, 1, (4, 2)),
            rewards=rng.normal(size=4),
            next_states=rng.normal(size=(4, 3)),
            dones=np.zeros(4),
            indices=np.arange(4),
            weights=np.ones(4),
        )
        metrics = loaded.update(batch)
        assert np.isfinite(metrics.critic_loss)


class TestErrors:
    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_agent(tmp_path / "nope.npz")

    def test_not_a_checkpoint(self, tmp_path):
        path = tmp_path / "junk.npz"
        np.savez(path, a=np.zeros(3))
        with pytest.raises(ValueError, match="not a GreenNFV checkpoint"):
            load_agent(path)

    def test_version_check(self, tmp_path):
        import json

        agent = DDPGAgent(3, 2, DDPGConfig(hidden=(8,)), rng=0)
        path = save_agent(agent, tmp_path / "v")
        with np.load(path) as data:
            arrays = {k: data[k] for k in data.files}
        meta = json.loads(bytes(arrays["__meta__"].tobytes()).decode())
        meta["format_version"] = FORMAT_VERSION + 1
        arrays["__meta__"] = np.frombuffer(
            json.dumps(meta).encode(), dtype=np.uint8
        ).copy()
        np.savez(path, **arrays)
        with pytest.raises(ValueError, match="unsupported checkpoint version"):
            load_agent(path)

    def test_creates_parent_dirs(self, tmp_path):
        agent = DDPGAgent(3, 2, DDPGConfig(hidden=(8,)), rng=0)
        path = save_agent(agent, tmp_path / "deep" / "nested" / "p")
        assert path.exists()
