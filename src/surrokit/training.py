"""RMSProp optimization and the desk-scale training loop.

The update rule per tensor is

    acc  <- decay * acc + (1 - decay) * g^2
    step <- lr * g / (sqrt(acc) + eps)
    vel  <- momentum * vel + step
    w    <- w - vel

with eps = 1e-10 added to the square root in the denominator. With zero
momentum (the default) vel reduces to the bare step.
"""

from dataclasses import dataclass, field, replace

import numpy as np

from .balance import Dataset
from .errors import InvalidInputError, NumericalError
from .network import (
    ArchitectureDescriptor,
    _check_roles,
    init_weights,
    loss_and_gradients,
    reference_architecture,
    validate_weights,
)
from .seeding import NS_BATCH, NS_DROPOUT, NS_INIT, spawn_rng

RMSPROP_EPS = 1e-10


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 0.0016
    rms_decay: float = 0.9
    momentum: float = 0.0
    batch_size: int = 128
    steps: int = 2000
    dropout_conv: float = 0.33
    dropout_dense: float = 0.015
    seed: int = 0

    def __post_init__(self):
        if not (self.learning_rate > 0 and np.isfinite(self.learning_rate)):
            raise InvalidInputError("learning rate must be positive and finite")
        if not 0.0 <= self.rms_decay < 1.0:
            raise InvalidInputError("rms_decay must lie in [0, 1)")
        if not 0.0 <= self.momentum < 1.0:
            raise InvalidInputError("momentum must lie in [0, 1)")
        if self.batch_size < 1:
            raise InvalidInputError("batch_size must be >= 1")
        if self.steps < 0:
            raise InvalidInputError("steps must be >= 0")
        for rate in (self.dropout_conv, self.dropout_dense):
            if not 0.0 <= rate < 1.0:
                raise InvalidInputError("dropout rates must lie in [0, 1)")


@dataclass
class RmspropState:
    accumulator: dict = field(default_factory=dict)
    velocity: dict = field(default_factory=dict)


def init_rmsprop_state(weights: dict) -> RmspropState:
    return RmspropState(
        accumulator={k: np.zeros_like(v) for k, v in weights.items()},
        velocity={k: np.zeros_like(v) for k, v in weights.items()},
    )


def rmsprop_step(weights: dict, grads: dict, state: RmspropState, config: TrainConfig):
    """One RMSProp update; returns new (weights, state), inputs untouched."""
    new_weights = {}
    new_acc = {}
    new_vel = {}
    for key, w in weights.items():
        g = grads.get(key)
        if g is None:
            g = np.zeros_like(w)
        if not np.all(np.isfinite(g)):
            raise NumericalError(f"non-finite gradient for {key!r}")
        with np.errstate(over="ignore"):
            acc = config.rms_decay * state.accumulator[key] + (1.0 - config.rms_decay) * g * g
        if not np.all(np.isfinite(acc)):
            # an infinite accumulator makes every later step 0: the weights freeze
            raise NumericalError(f"non-finite RMSProp accumulator for {key!r}")
        step = config.learning_rate * g / (np.sqrt(acc) + RMSPROP_EPS)
        vel = config.momentum * state.velocity[key] + step
        new_weights[key] = w - vel
        new_acc[key] = acc
        new_vel[key] = vel
    return new_weights, RmspropState(new_acc, new_vel)


@dataclass
class TrainResult:
    descriptor: ArchitectureDescriptor
    weights: dict
    losses: list


def train_network(
    descriptor: ArchitectureDescriptor,
    dataset: Dataset,
    config: TrainConfig,
    log=None,
) -> TrainResult:
    """Mini-batch RMSProp training of a descriptor-defined network.

    Batches are drawn uniformly with replacement; initialization, batch
    order and dropout masks all derive from the config seed, so a run is
    fully reproducible. ``log`` is an optional callable(step, loss).
    """
    if len(dataset) == 0:
        raise InvalidInputError("training dataset is empty")
    _check_roles(descriptor, dataset.channel_roles)
    x, y = dataset.x, dataset.labels
    weights = init_weights(descriptor, spawn_rng(config.seed, NS_INIT))
    validate_weights(descriptor, weights)
    state = init_rmsprop_state(weights)
    rng_batch = spawn_rng(config.seed, NS_BATCH)
    rng_dropout = spawn_rng(config.seed, NS_DROPOUT)

    losses = []
    for step in range(config.steps):
        idx = rng_batch.integers(0, len(dataset), size=config.batch_size)
        # a diverging step overflows inside the network; the checks below
        # and in rmsprop_step raise for it, so numpy need not warn first
        with np.errstate(over="ignore", invalid="ignore"):
            loss, grads = loss_and_gradients(
                descriptor, weights, x[idx], y[idx], training=True, rng=rng_dropout
            )
            if not np.isfinite(loss):
                raise NumericalError(f"training diverged at step {step}: loss={loss}")
            weights, state = rmsprop_step(weights, grads, state, config)
        losses.append(loss)
        if log is not None:
            log(step, loss)
    return TrainResult(descriptor, weights, losses)


def train_reference_classifier(dataset: Dataset, config: TrainConfig) -> TrainResult:
    """Train the width-reduced reference classifier on a dataset."""
    descriptor = reference_architecture(
        n_classes=len(dataset.label_vocabulary),
        input_len=dataset.n_samples,
        dropout_conv=config.dropout_conv,
        dropout_dense=config.dropout_dense,
    )
    roles = dataset.channel_roles
    if roles != descriptor.channel_roles:
        # non-standard channel layout: one parameter group per role
        descriptor = replace(
            descriptor,
            channel_roles=roles,
            parameter_sharing=tuple((role, role) for role in roles),
        )
    return train_network(descriptor, dataset, config)
