"""RMSProp optimization and the desk-scale training loop.

The update rule per tensor is

    acc <- 0.9 * acc + 0.1 * g^2
    w   <- w - lr * g / (sqrt(acc) + 1e-10)

with decay ``RMSPROP_DECAY`` and eps ``RMSPROP_EPS``.
"""

from dataclasses import dataclass, replace

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

RMSPROP_DECAY = 0.9
RMSPROP_EPS = 1e-10


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 0.0016
    batch_size: int = 128
    steps: int = 2000
    seed: int = 0

    def __post_init__(self):
        if not (self.learning_rate > 0 and np.isfinite(self.learning_rate)):
            raise InvalidInputError("learning rate must be positive and finite")
        if self.batch_size < 1:
            raise InvalidInputError("batch_size must be >= 1")
        if self.steps < 0:
            raise InvalidInputError("steps must be >= 0")


def rmsprop_step(weights: dict, grads: dict, accumulators: dict, learning_rate: float):
    """One RMSProp update; returns new (weights, accumulators), inputs untouched."""
    new_weights = {}
    new_acc = {}
    for key, w in weights.items():
        g = grads.get(key)
        if g is None:
            g = np.zeros_like(w)
        if not np.all(np.isfinite(g)):
            raise NumericalError(f"non-finite gradient for {key!r}")
        with np.errstate(over="ignore"):
            acc = RMSPROP_DECAY * accumulators[key] + (1.0 - RMSPROP_DECAY) * g * g
        if not np.all(np.isfinite(acc)):
            # an infinite accumulator makes every later step 0: the weights freeze
            raise NumericalError(f"non-finite RMSProp accumulator for {key!r}")
        new_weights[key] = w - learning_rate * g / (np.sqrt(acc) + RMSPROP_EPS)
        new_acc[key] = acc
    return new_weights, new_acc


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
    accumulators = {k: np.zeros_like(v) for k, v in weights.items()}
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
            weights, accumulators = rmsprop_step(
                weights, grads, accumulators, config.learning_rate
            )
        losses.append(loss)
        if log is not None:
            log(step, loss)
    return TrainResult(descriptor, weights, losses)


def train_reference_classifier(dataset: Dataset, config: TrainConfig) -> TrainResult:
    """Train the width-reduced reference classifier on a dataset."""
    descriptor = reference_architecture(
        n_classes=len(dataset.label_vocabulary), input_len=dataset.n_samples
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
