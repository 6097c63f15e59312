"""Policy checkpointing.

"The GreenNFV model needs to be trained only once before deployment and
is run many times during the decision-making process" — which requires
persisting the trained networks.  Checkpoints are plain ``.npz`` archives
(no pickle, no framework): each parameter array is stored under
``<network>/<index>`` keys plus a small metadata header, so a checkpoint
written by one version of the library loads anywhere numpy does.
"""

from __future__ import annotations

import json
from dataclasses import asdict, fields
from pathlib import Path

import numpy as np

from repro.rl.ddpg import DDPGAgent, DDPGConfig

#: Checkpoint format version; bump on layout changes.
FORMAT_VERSION = 1

_NETWORKS = ("actor", "critic", "target_actor", "target_critic")


def save_agent(agent: DDPGAgent, path: str | Path) -> Path:
    """Write a DDPG agent's networks + every config field to a ``.npz``
    checkpoint, so a reloaded agent that keeps training explores and
    learns as the saved one did.

    Returns the path written (with ``.npz`` appended if missing).
    """
    path = Path(path)
    if path.suffix != ".npz":
        path = path.with_suffix(path.suffix + ".npz")
    arrays: dict[str, np.ndarray] = {}
    params = agent.get_all_params()
    for net in _NETWORKS:
        for i, arr in enumerate(params[net]):
            arrays[f"{net}/{i}"] = arr
    meta = {
        "format_version": FORMAT_VERSION,
        "state_dim": agent.state_dim,
        "action_dim": agent.action_dim,
        **asdict(agent.config),
        "updates_done": agent.updates_done,
    }
    arrays["__meta__"] = np.frombuffer(
        json.dumps(meta).encode("utf-8"), dtype=np.uint8
    ).copy()
    path.parent.mkdir(parents=True, exist_ok=True)
    np.savez(path, **arrays)
    return path


def load_agent(path: str | Path, *, rng=0) -> DDPGAgent:
    """Rebuild a DDPG agent from a checkpoint written by :func:`save_agent`.

    Config fields the checkpoint does not hold (it was written before
    every field was stored) take their defaults.  A checkpoint that
    selected exploration noise other than the Ornstein-Uhlenbeck process
    (``noise_type``, a field older checkpoints store) is refused rather
    than resumed with different noise.
    """
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"no checkpoint at {path}")
    with np.load(path) as data:
        if "__meta__" not in data:
            raise ValueError(f"{path} is not a GreenNFV checkpoint (missing metadata)")
        meta = json.loads(bytes(data["__meta__"].tobytes()).decode("utf-8"))
        if meta.get("format_version") != FORMAT_VERSION:
            raise ValueError(
                f"unsupported checkpoint version {meta.get('format_version')!r}"
            )
        if meta.get("noise_type", "ou") != "ou":
            raise ValueError(
                f"{path} was trained with noise_type={meta['noise_type']!r}; "
                "only Ornstein-Uhlenbeck ('ou') exploration noise is supported"
            )
        saved = {f.name: meta[f.name] for f in fields(DDPGConfig) if f.name in meta}
        config = DDPGConfig(**{**saved, "hidden": tuple(meta["hidden"])})
        agent = DDPGAgent(meta["state_dim"], meta["action_dim"], config, rng=rng)
        params: dict[str, list[np.ndarray]] = {}
        for net in _NETWORKS:
            keys = sorted(
                (k for k in data.files if k.startswith(f"{net}/")),
                key=lambda k: int(k.split("/")[1]),
            )
            if not keys:
                raise ValueError(f"checkpoint missing network {net!r}")
            params[net] = [data[k] for k in keys]
        agent.set_all_params(params)
        agent.updates_done = int(meta.get("updates_done", 0))
    return agent
