"""Minimal dense neural networks in pure numpy.

The paper trains its DDPG actor/critic with TensorFlow 1.x; this offline
reproduction implements the same two-hidden-layer MLPs with manual
backpropagation and Adam.  The implementation is deliberately small but
complete for DDPG's needs:

* forward passes over batches,
* gradients w.r.t. parameters (critic loss, actor policy gradient),
* gradients w.r.t. *inputs* (the actor update needs dQ/da through the
  critic),
* Adam optimizer state per network,
* soft target-network updates theta' <- tau*theta + (1-tau)*theta',
* parameter (de)serialization for the Ape-X learner->actor sync.

All math is float64 and vectorized over the batch dimension, per the
numpy-first performance guidance for this codebase.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.utils.rng import RngLike, as_generator
from repro.utils.stats import left_sum

_ACTIVATIONS = ("relu", "tanh", "linear")


def _act(name: str, z: np.ndarray) -> np.ndarray:
    if name == "relu":
        return np.maximum(z, 0.0)
    if name == "tanh":
        return np.tanh(z)
    if name == "linear":
        return z
    raise ValueError(f"unknown activation {name!r}; options: {_ACTIVATIONS}")


def _act_grad(name: str, z: np.ndarray, a: np.ndarray) -> np.ndarray:
    """d activation / d pre-activation, given pre-activation z and output a.

    The relu gradient comes back as a boolean mask — multiplying a float
    array by it is numerically identical to multiplying by 0.0/1.0.
    """
    if name == "relu":
        return z > 0.0
    if name == "tanh":
        return 1.0 - a * a
    if name == "linear":
        return np.ones_like(z)
    raise ValueError(f"unknown activation {name!r}")


@dataclass
class DenseLayer:
    """One fully-connected layer with weights, bias and activation."""

    weights: np.ndarray
    bias: np.ndarray
    activation: str

    @property
    def in_dim(self) -> int:
        """Input feature count."""
        return self.weights.shape[0]

    @property
    def out_dim(self) -> int:
        """Output feature count."""
        return self.weights.shape[1]


class MLP:
    """A feed-forward network with explicit backprop.

    Parameters
    ----------
    layer_sizes:
        ``[in, h1, ..., out]`` — at least one layer.
    activations:
        One name per layer (``len(layer_sizes) - 1`` entries); defaults to
        relu hidden layers and a linear output.
    final_init_scale:
        DDPG initializes the output layer with small uniform weights
        (3e-3 in the original paper) so initial actions/values are near
        zero; hidden layers use fan-in scaling.
    """

    def __init__(
        self,
        layer_sizes: list[int],
        activations: list[str] | None = None,
        *,
        rng: RngLike = None,
        final_init_scale: float = 3e-3,
    ):
        if len(layer_sizes) < 2:
            raise ValueError("need at least an input and an output size")
        if any(s <= 0 for s in layer_sizes):
            raise ValueError("layer sizes must be positive")
        n_layers = len(layer_sizes) - 1
        if activations is None:
            activations = ["relu"] * (n_layers - 1) + ["linear"]
        if len(activations) != n_layers:
            raise ValueError(
                f"need {n_layers} activations, got {len(activations)}"
            )
        for a in activations:
            if a not in _ACTIVATIONS:
                raise ValueError(f"unknown activation {a!r}")
        gen = as_generator(rng)
        # All parameters live in one contiguous buffer; layers hold
        # reshaped views into it.  Optimizers and soft target updates can
        # then run whole-network elementwise ops instead of a Python loop
        # per parameter array.
        shapes = []
        for i in range(n_layers):
            shapes.append((layer_sizes[i], layer_sizes[i + 1]))
            shapes.append((layer_sizes[i + 1],))
        self._param_shapes: list[tuple[int, ...]] = shapes
        sizes = [int(np.prod(s)) for s in shapes]
        offsets = np.concatenate([[0], np.cumsum(sizes)]).tolist()
        self._param_slices: list[tuple[int, int, tuple[int, ...]]] = [
            (offsets[i], offsets[i + 1], shapes[i]) for i in range(len(shapes))
        ]
        self._flat = np.empty(offsets[-1], dtype=np.float64)
        views = self._flat_views(self._flat)
        self.layers = []
        for i in range(n_layers):
            fan_in = layer_sizes[i]
            if i == n_layers - 1:
                bound = final_init_scale
            else:
                bound = 1.0 / np.sqrt(fan_in)
            w_view, b_view = views[2 * i], views[2 * i + 1]
            w_view[...] = gen.uniform(-bound, bound, size=w_view.shape)
            b_view[...] = gen.uniform(-bound, bound, size=b_view.shape)
            self.layers.append(DenseLayer(w_view, b_view, activations[i]))
        self._cache: list[tuple[np.ndarray, np.ndarray, np.ndarray]] | None = None

    def _flat_views(self, flat: np.ndarray) -> list[np.ndarray]:
        """Per-parameter reshaped views into a flat buffer."""
        return [flat[a:b].reshape(shape) for a, b, shape in self._param_slices]

    @property
    def flat_params(self) -> np.ndarray:
        """The contiguous parameter buffer (mutating it mutates the net)."""
        return self._flat

    # -- shapes --------------------------------------------------------------

    @property
    def in_dim(self) -> int:
        """Input feature count."""
        return self.layers[0].in_dim

    @property
    def out_dim(self) -> int:
        """Output feature count."""
        return self.layers[-1].out_dim

    # -- forward / backward ----------------------------------------------------

    def forward(self, x: np.ndarray, *, cache: bool = True) -> np.ndarray:
        """Batched forward pass; ``x`` is (batch, in_dim) or (in_dim,).

        With ``cache=True`` the intermediate activations are retained for
        a subsequent :meth:`backward` call.
        """
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 2:
            x = np.atleast_2d(x)
        if x.shape[1] != self.in_dim:
            raise ValueError(f"expected input dim {self.in_dim}, got {x.shape[1]}")
        if cache:
            cache_list: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []
            a = x
            for layer in self.layers:
                z = a @ layer.weights
                z += layer.bias
                out = _act(layer.activation, z)
                cache_list.append((a, z, out))
                a = out
            self._cache = cache_list
        else:
            a = x
            for layer in self.layers:
                z = a @ layer.weights
                z += layer.bias
                a = _act(layer.activation, z)
            self._cache = None
        return a

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return self.forward(x)

    def backward(
        self, grad_out: np.ndarray
    ) -> tuple[list[tuple[np.ndarray, np.ndarray]], np.ndarray]:
        """Backprop ``dL/d output`` through the cached forward pass.

        Returns ``(param_grads, grad_input)`` where ``param_grads`` is a
        list of (dW, db) per layer and ``grad_input`` is dL/dx — the
        latter is what the DDPG actor update chains through the critic.
        Gradients are averaged the way the caller shaped ``grad_out``
        (i.e. no implicit 1/batch here).
        """
        if self._cache is None:
            raise RuntimeError("forward(cache=True) must run before backward()")
        grad = np.atleast_2d(np.asarray(grad_out, dtype=np.float64))
        if grad.shape[1] != self.out_dim:
            raise ValueError(f"expected grad dim {self.out_dim}, got {grad.shape[1]}")
        # Gradients are written straight into one fresh flat buffer laid
        # out like the parameters, so optimizers can consume the whole
        # network in single elementwise operations.
        flat = np.empty_like(self._flat)
        views = self._flat_views(flat)
        param_grads: list[tuple[np.ndarray, np.ndarray]] = [None] * len(self.layers)  # type: ignore[list-item]
        for i in reversed(range(len(self.layers))):
            layer = self.layers[i]
            a_in, z, a_out = self._cache[i]
            if layer.activation == "linear":
                dz = grad  # identity gradient; dz is never mutated below
            else:
                dz = grad * _act_grad(layer.activation, z, a_out)
            dw, db = views[2 * i], views[2 * i + 1]
            np.matmul(a_in.T, dz, out=dw)
            np.add.reduce(dz, axis=0, out=db)
            grad = dz @ layer.weights.T
            param_grads[i] = (dw, db)
        return param_grads, grad

    # -- parameter plumbing ------------------------------------------------------

    def get_params(self) -> list[np.ndarray]:
        """Flat list of parameter arrays (views, not copies)."""
        out: list[np.ndarray] = []
        for layer in self.layers:
            out.append(layer.weights)
            out.append(layer.bias)
        return out

    def set_params(self, params: list[np.ndarray]) -> None:
        """Overwrite parameters from a list shaped like :meth:`get_params`."""
        expected = 2 * len(self.layers)
        if len(params) != expected:
            raise ValueError(f"expected {expected} arrays, got {len(params)}")
        for i, layer in enumerate(self.layers):
            w, b = params[2 * i], params[2 * i + 1]
            if w.shape != layer.weights.shape or b.shape != layer.bias.shape:
                raise ValueError(f"shape mismatch at layer {i}")
            layer.weights[...] = w
            layer.bias[...] = b

    def copy_params(self) -> list[np.ndarray]:
        """Deep copy of the parameters (for target nets / param sync)."""
        return [p.copy() for p in self.get_params()]

    def soft_update_from(self, source: "MLP", tau: float) -> None:
        """theta <- tau * theta_source + (1 - tau) * theta (Algorithm 2)."""
        if not 0.0 <= tau <= 1.0:
            raise ValueError("tau must be in [0, 1]")
        if (
            isinstance(source, MLP)
            and source._param_shapes == self._param_shapes
        ):
            self._flat *= 1.0 - tau
            self._flat += tau * source._flat
            return
        for mine, theirs in zip(self.get_params(), source.get_params()):
            mine *= 1.0 - tau
            mine += tau * theirs

    def clone(self) -> "MLP":
        """Structural copy with identical parameters (target-net init)."""
        sizes = [self.in_dim] + [layer.out_dim for layer in self.layers]
        acts = [layer.activation for layer in self.layers]
        out = MLP(sizes, acts, rng=0)
        out.set_params(self.copy_params())
        return out


def forward_many(nets: list[MLP], xs: np.ndarray) -> np.ndarray:
    """One batched forward over N same-architecture MLPs, one input each.

    ``xs`` has shape ``(N, in_dim)``; row ``i`` runs through ``nets[i]``
    and the result has shape ``(N, out_dim)``.  This is the Ape-X
    actor-fleet fast path: instead of N Python-level ``forward`` calls
    per step, the whole fleet shares one stacked evaluation per layer.

    Bit-identity: each layer is evaluated as a stacked 3-D matmul whose
    slices are exactly the ``(1, in) @ (in, out)`` products the scalar
    ``forward`` performs, followed by the same elementwise bias add and
    activation — so row ``i`` equals ``nets[i].forward(xs[i])`` to the
    bit (asserted by the batched-inference tests).  When every net holds
    identical parameters (the synced-actor common case between
    parameter-churn points) the per-layer stack collapses to one shared
    weight matrix broadcast over the fleet, skipping the stacking copy.
    """
    if not nets:
        raise ValueError("need at least one network")
    first = nets[0]
    for net in nets[1:]:
        if net._param_shapes != first._param_shapes or [
            layer.activation for layer in net.layers
        ] != [layer.activation for layer in first.layers]:
            raise ValueError("forward_many needs same-architecture networks")
    xs = np.asarray(xs, dtype=np.float64)
    if xs.ndim != 2 or xs.shape != (len(nets), first.in_dim):
        raise ValueError(
            f"expected inputs of shape ({len(nets)}, {first.in_dim}), got {xs.shape}"
        )
    synced = all(np.array_equal(net._flat, first._flat) for net in nets[1:])
    a = xs[:, None, :]  # (N, 1, in)
    for i, layer in enumerate(first.layers):
        if synced:
            z = a @ layer.weights  # broadcast: N slices of (1,in)@(in,out)
            z += layer.bias
        else:
            w_stack = np.stack([net.layers[i].weights for net in nets])
            b_stack = np.stack([net.layers[i].bias for net in nets])[:, None, :]
            z = a @ w_stack
            z += b_stack
        a = _act(layer.activation, z)
    return a[:, 0, :]


class Adam:
    """Adam optimizer over an MLP's parameter list."""

    def __init__(
        self,
        net: MLP,
        lr: float = 1e-3,
        beta1: float = 0.9,
        beta2: float = 0.999,
        eps: float = 1e-8,
        *,
        grad_clip: float | None = 10.0,
    ):
        if lr <= 0:
            raise ValueError("learning rate must be positive")
        self.net = net
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.grad_clip = grad_clip
        self._m = np.zeros_like(net.flat_params)
        self._v = np.zeros_like(net.flat_params)
        self._s1 = np.empty_like(self._m)  # scratch, no per-step temporaries
        self._s2 = np.empty_like(self._m)
        self._t = 0

    def step(self, param_grads: list[tuple[np.ndarray, np.ndarray]]) -> None:
        """Apply one update from per-layer (dW, db) gradients.

        Gradients are packed into one flat vector so the moment and
        parameter updates are whole-network elementwise operations.
        """
        grads: list[np.ndarray] = []
        for dw, db in param_grads:
            grads.append(dw)
            grads.append(db)
        params = self.net.get_params()
        if len(grads) != len(params):
            raise ValueError("gradient list does not match parameter list")
        for g, p in zip(grads, params):
            if g.shape != p.shape:
                raise ValueError(
                    f"gradient shape {g.shape} does not match parameter {p.shape}"
                )
        flat_p = self.net.flat_params
        base = grads[0].base if grads else None
        if (
            base is not None
            and base.size == flat_p.size
            and base.dtype == np.float64
            and base.ndim == 1
            and all(g.base is base for g in grads)
            and left_sum(g.size for g in grads) == base.size
        ):
            # The gradients are MLP.backward's flat buffer in parameter
            # order — no repacking needed.
            flat_g = base
        else:
            flat_g = np.concatenate([g.ravel() for g in grads])
        if self.grad_clip is not None:
            # Cheap whole-vector screen first; the exact per-array partial
            # sums (numerically identical to the historical per-layer
            # loop) only run when the norm is anywhere near the clip
            # boundary.  The two reductions agree to ~1e-12 relative (all
            # terms are non-negative), far inside the 1e-9 guard band.
            fast_sq = float(np.dot(flat_g, flat_g))
            clip2 = self.grad_clip * self.grad_clip
            if fast_sq >= clip2 * (1.0 - 1e-9):
                sq = np.fromiter(
                    (np.sum(g * g) for g in grads), dtype=np.float64, count=len(grads)
                )
                norm = float(np.sqrt(np.sum(sq)))
                if norm > self.grad_clip:
                    flat_g = flat_g * (self.grad_clip / (norm + 1e-12))
        self._t += 1
        b1t = 1.0 - self.beta1**self._t
        b2t = 1.0 - self.beta2**self._t
        m, v, s1, s2 = self._m, self._v, self._s1, self._s2
        m *= self.beta1
        np.multiply(flat_g, 1 - self.beta1, out=s1)
        m += s1
        v *= self.beta2
        np.multiply(flat_g, flat_g, out=s2)
        np.multiply(s2, 1 - self.beta2, out=s2)
        v += s2
        np.divide(m, b1t, out=s1)
        np.multiply(s1, self.lr, out=s1)
        np.divide(v, b2t, out=s2)
        np.sqrt(s2, out=s2)
        s2 += self.eps
        np.divide(s1, s2, out=s1)
        flat_p -= s1
