import dataclasses
import hashlib
import math
import sys
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from oracles import (
    conv1d_same_oracle,
    conv2d_valid_backward_oracle,
    conv2d_valid_oracle,
    maxpool_backward_oracle,
    maxpool_same_oracle,
)
from surrokit import network, parallel
from surrokit.balance import Dataset
from surrokit.classifiers import NetworkClassifier
from surrokit.dataio import descriptor_fingerprint
from surrokit.errors import InvalidInputError, ShapeError
from surrokit.network import (
    ArchitectureDescriptor,
    Conv1D,
    Conv2D,
    Dense,
    Dropout,
    MaxPool1D,
    Scale,
    _chunks,
    _conv1d_forward,
    _conv2d_backward,
    _conv2d_forward,
    _maxpool_backward,
    _maxpool_forward,
    _pipe_rows,
    _softmax,
    channel_activations,
    count_parameters,
    forward_batch,
    full_architecture,
    glorot_limit,
    infer_shapes,
    init_weights,
    loss_and_gradients,
    reference_architecture,
    spliced_forward,
    spliced_layers,
    weight_shapes,
)
from surrokit.training import TrainConfig, train_network

# rows per channel-pipe chunk of the reference network
PIPE_ROWS = 32

TABLE_CHANNEL_SHAPES = [
    ("scale", (960,)),
    ("conv1", (960, 16)),
    ("pool1", (480, 16)),
    ("conv2", (480, 19)),
    ("pool2", (240, 19)),
    ("conv3", (240, 23)),
    ("pool3", (120, 23)),
    ("conv4", (120, 27)),
    ("pool4", (60, 27)),
]
TABLE_JOINED_SHAPES = [
    ("conv2d", (41, 1, 10)),
    ("dense1", (85,)),
    ("dense2", (85,)),
    ("output", (6,)),
]


def tiny_descriptor(n_classes=3, input_len=24):
    """Every layer type, two channels sharing one parameter group."""
    return ArchitectureDescriptor(
        name="tiny",
        input_len=input_len,
        channel_roles=("X1", "X2"),
        parameter_sharing=(("X1", "shared"), ("X2", "shared")),
        channel_pipe=(
            Scale("scale", init=0.5),
            Conv1D("conv_a", width=3, filters=2),
            Dropout("drop_a", rate=0.25),
            MaxPool1D("pool_a", width=3, stride=2),
            Conv1D("conv_b", width=3, filters=3),
            MaxPool1D("pool_b", width=3, stride=2),
        ),
        joined_pipe=(
            Conv2D("conv2d", height=2, width=2, filters=2),
            Dense("dense_a", units=5),
            Dropout("drop_b", rate=0.25),
            Dense("output", units=n_classes, activation="softmax"),
        ),
    )


class TestShapes:
    def test_full_architecture_matches_published_table(self):
        report = infer_shapes(full_architecture())
        assert list(report.channel) == TABLE_CHANNEL_SHAPES
        assert report.joined_input == (60, 4, 27)
        assert list(report.joined) == TABLE_JOINED_SHAPES

    def test_conv1d_same_padding_preserves_length(self):
        for length in (320, 960, 961):
            desc = full_architecture(input_len=length)
            report = infer_shapes(desc)
            assert report.channel[1][1][0] == length
        for length in (7, 24, 63):
            report = infer_shapes(tiny_descriptor(input_len=length))
            assert report.channel[1][1][0] == length

    def test_oversized_conv2d_names_the_layer(self):
        desc = tiny_descriptor(input_len=4)  # channel pipe ends with length 1
        with pytest.raises(ShapeError, match="conv2d"):
            infer_shapes(desc)

    @pytest.mark.parametrize("rate", [1.0, 1.5, -0.5, float("nan"), float("inf"), True, "0.3"])
    def test_dropout_rate_outside_unit_interval_is_refused(self, rate):
        # a rate of 1 divided by zero in training; 1.5 and -0.5 trained silently
        with pytest.raises(InvalidInputError, match="dropout rate"):
            Dropout("drop", rate=rate)
        for build in (full_architecture, reference_architecture):
            with pytest.raises(InvalidInputError, match="drop1"):
                build(dropout_conv=rate)
            with pytest.raises(InvalidInputError, match="drop_conv2d"):
                build(dropout_dense=rate)

    def test_dropout_rate_zero_is_accepted(self):
        desc = reference_architecture(dropout_conv=0, dropout_dense=0.0)
        layers = desc.channel_pipe + desc.joined_pipe
        assert [l.rate for l in layers if isinstance(l, Dropout)] == [0] * 7


class TestParameterCounts:
    def test_published_counts(self):
        counts = count_parameters(full_architecture())
        assert counts.channel_pipe == 32_936
        assert counts.joined_pipe == 64_371
        assert counts.channel_groups == 3
        assert counts.total == 3 * 32_936 + 64_371 == 163_179

    def test_counts_match_initialized_tensors(self):
        desc = reference_architecture()
        weights = init_weights(desc, 0)
        total = sum(w.size for w in weights.values())
        counts = count_parameters(desc)
        assert total == counts.total

    def test_tiny_model_count_by_hand(self):
        # scale 1 + conv_a 3*1*2+2 + conv_b 3*2*3+3 = 30 per group
        # conv2d 2*2*3*2+2 = 26; dense_a 10*5+5 = 55; output 5*3+3 = 18
        counts = count_parameters(tiny_descriptor())
        assert counts.channel_pipe == 1 + 8 + 21
        assert counts.joined_pipe == 26 + 55 + 18
        assert counts.total == 1 * counts.channel_pipe + counts.joined_pipe


class TestInit:
    def test_glorot_bounds(self):
        weights = init_weights(full_architecture(), 1234)
        for key, tensor in weights.items():
            if key.endswith("/bias"):
                np.testing.assert_array_equal(tensor, 0.0)
            elif key.endswith("/scale"):
                np.testing.assert_array_equal(tensor, 0.05)
            else:
                if tensor.ndim == 3:
                    w, c, f = tensor.shape
                    limit = glorot_limit(w * c, w * f)
                elif tensor.ndim == 4:
                    kh, kw, c, f = tensor.shape
                    limit = glorot_limit(kh * kw * c, kh * kw * f)
                else:
                    limit = glorot_limit(*tensor.shape)
                assert np.max(np.abs(tensor)) <= limit

    def test_deterministic(self):
        a = init_weights(reference_architecture(), 7)
        b = init_weights(reference_architecture(), 7)
        assert sorted(a) == sorted(b)
        for key in a:
            np.testing.assert_array_equal(a[key], b[key])

    def test_shapes_match_contract(self):
        desc = tiny_descriptor()
        weights = init_weights(desc, 0)
        assert {k: v.shape for k, v in weights.items()} == weight_shapes(desc)

    def test_seeding_contract_is_pinned(self):
        # sha256 over key + tensor bytes in dict order; a change in draw
        # order, fan rule, key order or fingerprint moves these digests
        golden = {
            full_architecture: (
                "4790f87ba03d402d6a11baccd766b8f3514049d87b3e80b509856d6ff590b285",
                {
                    0: "24d001c69bc1b4fe5e6eb6779c65beb5184c8a55c1d500846423509e30f64571",
                    7: "b989dae8a3b79d372e1c68aa19a2059482cf2db7b428c5c10fb6fc07e56d928c",
                    1234: "f1b18fafe15591c7555c308e115f34fb21d9b720e39fa8d40b568155eaa03ade",
                },
            ),
            reference_architecture: (
                "5e06581c8d5b78cac7b623ee78b428292eb9a2f9c3dce7b0a642f46ea214b257",
                {
                    0: "6911225c8a1fe036f43c42e8fcf38daae1d3539f9c0b33b219c3672c91b94b98",
                    7: "6eb02d50acd2e605e371c930d683d881ef916a936204bfc000ef8d481afd14d7",
                    1234: "ff39271427611d2da83a776921e2d6d73e1f1eccfff673e1dd1a6476539efc64",
                },
            ),
        }
        for builder, (fingerprint, digests) in golden.items():
            desc = builder()
            assert descriptor_fingerprint(desc) == fingerprint
            for seed, expected in digests.items():
                h = hashlib.sha256()
                for key, tensor in init_weights(desc, seed).items():
                    h.update(key.encode() + tensor.astype("<f8").tobytes())
                assert h.hexdigest() == expected, (builder.__name__, seed)

    def test_dropout_draw_order_is_pinned(self):
        # sha256 over key + tensor bytes of the weights after a short seeded
        # training run with dropout on; frozen before the channel-group
        # pipes ran on threads, so a change in the order the keep-masks are
        # drawn from the dropout stream moves it
        x = np.random.default_rng(5).standard_normal((12, 4, 960)) * 20
        data = Dataset(x, np.arange(12) % 6, [f"r{i % 3}" for i in range(12)], 32.0)
        result = train_network(
            reference_architecture(), data, TrainConfig(batch_size=4, steps=3, seed=11)
        )
        h = hashlib.sha256()
        for key, tensor in result.weights.items():
            h.update(key.encode() + tensor.astype("<f8").tobytes())
        assert h.hexdigest() == "1f240db2e7f0f534899c204a3919c0567f19b39fc4c264c5fa4939f34cec9338"

    def test_channel_pipe_conv2d_rejected_by_every_view(self):
        base = tiny_descriptor()
        desc = dataclasses.replace(
            base, channel_pipe=base.channel_pipe + (Conv2D("bad", height=1, width=1, filters=2),)
        )
        for view in (infer_shapes, count_parameters, weight_shapes, lambda d: init_weights(d, 0)):
            with pytest.raises(ShapeError, match="bad: layer type not allowed in the channel pipe"):
                view(desc)

    def test_channel_group_may_not_take_the_joined_name(self):
        sharing = (("X1", "shared"), ("X2", network.JOINED_GROUP))
        desc = dataclasses.replace(tiny_descriptor(), parameter_sharing=sharing)
        for view in (infer_shapes, count_parameters, weight_shapes, lambda d: init_weights(d, 0)):
            with pytest.raises(InvalidInputError, match="reserved for the joined pipe"):
                view(desc)


class TestLayerOracles:
    def test_conv1d_against_naive_loop(self, rng):
        x = rng.standard_normal((2, 11, 3))
        kernel = rng.standard_normal((4, 3, 5))
        bias = rng.standard_normal(5)
        z, _ = _conv1d_forward(x, kernel, bias)
        for b in range(2):
            np.testing.assert_allclose(z[b], conv1d_same_oracle(x[b], kernel, bias), atol=1e-12)

    def test_maxpool_against_naive_loop(self, rng):
        for length in (9, 10, 960):
            x = rng.standard_normal((2, length, 3))
            for keep_arg in (False, True):
                y, _ = _maxpool_forward(x, 3, 2, keep_arg)
                for b in range(2):
                    np.testing.assert_array_equal(y[b], maxpool_same_oracle(x[b], 3, 2))

    def test_conv2d_against_naive_loop(self, rng):
        x = rng.standard_normal((2, 7, 4, 3))
        kernel = rng.standard_normal((3, 4, 3, 6))
        bias = rng.standard_normal(6)
        z, _ = _conv2d_forward(x, kernel, bias)
        for b in range(2):
            np.testing.assert_allclose(z[b], conv2d_valid_oracle(x[b], kernel, bias), atol=1e-12)


class TestKernels:
    def test_single_channel_conv1d_across_chunks(self, rng):
        batch = PIPE_ROWS + 3
        for width in (16, 27):
            x = rng.standard_normal((batch, 40, 1))
            kernel = rng.standard_normal((width, 1, 8))
            bias = rng.standard_normal(8)
            z, (xp, pad_left) = _conv1d_forward(x, kernel, bias)
            assert xp.shape == (batch, 40 + width - 1, 1) and pad_left == (width - 1) // 2
            for b in (0, PIPE_ROWS - 1, PIPE_ROWS, batch - 1):
                np.testing.assert_allclose(
                    z[b], conv1d_same_oracle(x[b], kernel, bias), rtol=0, atol=1e-12
                )

    @pytest.mark.parametrize(
        "rows", [1, PIPE_ROWS - 1, PIPE_ROWS, PIPE_ROWS + 1, 2 * PIPE_ROWS + 3]
    )
    def test_conv1d_chunks_keep_every_bit(self, rows, rng):
        # per tap the products and their order are the per-tap oracle's. The
        # single-channel im2col GEMM reorders a row's tap sum (1e-12 tests
        # above), but gives each row the bits it has alone. Run in chunks of
        # PIPE_ROWS rows, as the pipe runs them, the forward gives the whole
        # call's bits, and the backward, continuing the kernel and bias sums
        # of the chunks before, gives every gradient the whole call's bits.
        for c_in, width, filters in ((1, 16, 8), (8, 19, 8), (16, 27, 19), (19, 23, 23)):
            x = np.maximum(rng.standard_normal((rows, 60, c_in)), 0.0)  # ReLU zeros
            kernel = rng.standard_normal((width, c_in, filters))
            bias = rng.standard_normal(filters)
            z, cache = _conv1d_forward(x, kernel, bias)
            z_ref, cache_ref = oracles.conv1d_per_tap(x, kernel, bias)
            np.testing.assert_array_equal(cache[0], cache_ref[0])
            assert cache[1] == cache_ref[1]
            if c_in == 1:
                for b in range(rows):
                    assert np.array_equal(z[b], _conv1d_forward(x[b : b + 1], kernel, bias)[0][0])
            else:
                assert np.array_equal(z, z_ref)
            parts = _chunks(rows, PIPE_ROWS)
            chunk_caches = []
            for part in parts:
                z_part, chunk_cache = _conv1d_forward(x[part], kernel, bias)
                assert np.array_equal(z_part, z[part])
                chunk_caches.append(chunk_cache)
            dz = rng.standard_normal(z.shape)
            got = network._conv1d_backward(dz.copy(), kernel, cache)
            expected = oracles.conv1d_backward_per_tap(dz, kernel, cache_ref)
            d_kernel = d_bias = None
            for part, chunk_cache in zip(parts, chunk_caches, strict=True):
                dx, d_kernel, d_bias = network._conv1d_backward(
                    dz[part].copy(), kernel, chunk_cache, d_kernel, d_bias
                )
                assert np.array_equal(dx, got[0][part])
            assert np.array_equal(d_kernel, got[1]) and np.array_equal(d_bias, got[2])
            if filters == 23:
                # the full architecture's layer 3: OpenBLAS sums the input
                # gradient's 23-term contraction in another order on the
                # contiguous kernel copy than on the oracle's transposed view
                # (about 3e-16 relative), at no other layer of either network
                dx, dx_ref = got[0], expected[0]
                assert np.max(np.abs(dx - dx_ref)) <= 1e-12 * np.max(np.abs(dx_ref))
                got, expected = got[1:], expected[1:]
            for a, b in zip(got, expected, strict=True):  # dx, d_kernel, d_bias
                assert a.shape == b.shape and np.array_equal(a, b)

    @pytest.mark.parametrize("build", [full_architecture, reference_architecture])
    def test_channel_pipes_are_batch_invariant(self, build, rng, one_blas_thread):
        # each epoch gets the same bits at every channel-pipe layer alone as
        # in a batch where one of its rows sits just before, on or after a
        # chunk boundary, so the chunks of forward_batch, which must give
        # the serial oracle's bits, cannot change a row's. The EEG group
        # stacks EEG1's rows, then EEG2's: epoch b is rows b and batch + b,
        # the other groups' row b.
        desc = build()
        weights = init_weights(desc, 13)
        rows = _pipe_rows(desc)
        batch = 2 * rows + 3
        x = rng.standard_normal((batch, 4, 960)) * 20
        acts = channel_activations(desc, weights, x)
        first = [rows - 1, rows, rows + 1]  # EEG1 rows, and every other group's
        second = [3 * rows - 1 - batch, 3 * rows - batch, 3 * rows + 1 - batch]  # EEG2 rows
        for b in [0] + second + first + [batch - 1]:
            alone = channel_activations(desc, weights, x[b : b + 1])
            for per_channel, per_channel_alone in zip(acts, alone, strict=True):
                for layer, layer_alone in zip(per_channel, per_channel_alone, strict=True):
                    assert np.array_equal(layer[b : b + 1], layer_alone)
        probs, logits = forward_batch(desc, weights, x)
        probs_ref, logits_ref = oracles.serial_forward_batch(desc, weights, x)
        assert probs.tobytes() == probs_ref.tobytes()
        assert logits.tobytes() == logits_ref.tobytes()

    @pytest.mark.parametrize("length", [9, 10, 960])
    def test_inference_pool_gives_the_training_bits(self, length, rng):
        # ReLU output with runs of ties, -0.0 beside +0.0, and signed zeros
        # at both ends, where windows reach the -inf padding
        x = np.maximum(rng.standard_normal((3, length, 4)), 0.0)
        x[0, : length // 2] = 0.0
        x[1, ::2] = -0.0
        x[:, 0] = -0.0
        x[:, -1] = -0.0
        y_train, (_, _, arg, _) = _maxpool_forward(x, 3, 2, True)
        y, (_, _, no_arg, _) = _maxpool_forward(x, 3, 2, False)
        assert arg is not None and no_arg is None
        assert y.shape == y_train.shape and y.tobytes() == y_train.tobytes()
        for b in range(3):
            np.testing.assert_array_equal(y[b], maxpool_same_oracle(x[b], 3, 2))

    def test_maxpool_ties_route_to_lowest_index(self, rng):
        # ReLU output: runs of exact zeros make many windows tie
        x = np.maximum(rng.standard_normal((3, 21, 4)), 0.0)
        x[0, :6] = 0.0
        y, cache = _maxpool_forward(x, 3, 2, True)
        y_ref, cache_ref = oracles.maxpool_stacked(x, 3, 2, True)
        np.testing.assert_array_equal(y, y_ref)
        np.testing.assert_array_equal(cache[2], cache_ref[2])
        dy = rng.standard_normal(y.shape)
        dx = _maxpool_backward(dy, x.shape, 2, cache)
        for b in range(3):
            np.testing.assert_allclose(
                dx[b], maxpool_backward_oracle(x[b], dy[b], 3, 2), rtol=0, atol=1e-15
            )

    @pytest.mark.parametrize("stride", [1, 2, 3])
    @pytest.mark.parametrize("width", [2, 3, 4, 5])
    def test_pool_argmax_matches_stacked_argmax(self, width, stride, rng):
        # ReLU output with runs of ties, -0.0 beside +0.0, and signed zeros
        # at both ends, where windows reach the -inf padding
        x = np.maximum(rng.standard_normal((3, 23, 4)), 0.0)
        x[0, :8] = 0.0
        x[0, 1:8:2] = -0.0
        x[1, ::2] = -0.0
        x[:, 0] = x[:, -1] = -0.0
        y, (_, _, arg, _) = _maxpool_forward(x, width, stride, True)
        y_ref, (_, _, arg_ref, _) = oracles.maxpool_stacked(x, width, stride, True)
        assert np.array_equal(y, y_ref) and np.array_equal(arg, arg_ref)

    def test_pool_argmax_keeps_taps_above_255(self, rng):
        # at width 300 arg is uint16, and many windows are won by a tap > 255
        x = rng.standard_normal((2, 400, 3))
        y, (_, _, arg, _) = _maxpool_forward(x, 300, 1, True)
        y_ref, (_, _, arg_ref, _) = oracles.maxpool_stacked(x, 300, 1, True)
        assert arg.dtype == np.uint16 and arg.max() > 255
        assert np.array_equal(y, y_ref) and np.array_equal(arg, arg_ref)

    @pytest.mark.parametrize("build", [reference_architecture, full_architecture])
    def test_conv2d_backward_against_per_tap_oracle(self, build, rng):
        # batch 16 at the architecture's joined-pipe shapes. The oracle's
        # 4-D products run OpenBLAS on (1, F) rows, which round the input
        # gradient's sums differently from a flat GEMM on either kernel
        # layout, so dx agrees to rounding; the network's own bits are
        # pinned by test_dropout_draw_order_is_pinned
        desc = build()
        height, width, c_in = infer_shapes(desc).joined_input
        layer = desc.joined_pipe[0]
        x = rng.standard_normal((16, height, width, c_in))
        kernel = rng.standard_normal((layer.height, layer.width, c_in, layer.filters))
        z, cache = _conv2d_forward(x, kernel, np.zeros(layer.filters))
        dz = rng.standard_normal(z.shape)
        got = _conv2d_backward(dz, kernel, cache)
        expected = oracles.conv2d_backward_per_tap(dz, kernel, cache)
        for name, a, b in zip(("dx", "d_kernel", "d_bias"), got, expected, strict=True):
            assert a.shape == b.shape
            if build is reference_architecture and name != "dx":
                assert np.array_equal(a, b), name
            else:
                assert np.max(np.abs(a - b)) <= 1e-12 * np.max(np.abs(b)), name

    def test_conv2d_single_output_column(self, rng):
        # ow == 1, as in both architectures (kernel as wide as the channel axis)
        x = rng.standard_normal((3, 9, 4, 3))
        kernel = rng.standard_normal((4, 4, 3, 5))
        bias = rng.standard_normal(5)
        z, cache = _conv2d_forward(x, kernel, bias)
        assert z.shape == (3, 6, 1, 5)
        dz = rng.standard_normal(z.shape)
        dx, d_kernel, d_bias = _conv2d_backward(dz, kernel, cache)
        dk_sum = np.zeros_like(kernel)
        db_sum = np.zeros_like(bias)
        for b in range(3):
            np.testing.assert_allclose(z[b], conv2d_valid_oracle(x[b], kernel, bias), atol=1e-12)
            dx_b, dk_b, db_b = conv2d_valid_backward_oracle(x[b], kernel, dz[b])
            np.testing.assert_allclose(dx[b], dx_b, atol=1e-12)
            dk_sum += dk_b
            db_sum += db_b
        np.testing.assert_allclose(d_kernel, dk_sum, atol=1e-12)
        np.testing.assert_allclose(d_bias, db_sum, atol=1e-12)

    @pytest.mark.parametrize("build", [full_architecture, reference_architecture])
    def test_network_matches_per_tap_kernels(self, build, rng, monkeypatch):
        desc = build()
        weights = init_weights(desc, 11)
        x = rng.standard_normal((3, 4, 960)) * 20
        labels = np.array([0, 3, 5])
        probs, logits = forward_batch(desc, weights, x)
        loss, grads = loss_and_gradients(desc, weights, x, labels, training=False)

        monkeypatch.setattr(network, "_conv1d_forward", oracles.conv1d_per_tap)
        monkeypatch.setattr(network, "_maxpool_forward", oracles.maxpool_stacked)
        monkeypatch.setattr(network, "_conv2d_forward", oracles.conv2d_per_tap)
        monkeypatch.setattr(network, "_conv2d_backward", oracles.conv2d_backward_per_tap)
        probs_ref, logits_ref = forward_batch(desc, weights, x)
        loss_ref, grads_ref = loss_and_gradients(desc, weights, x, labels, training=False)

        def assert_close(a, b):
            assert np.max(np.abs(a - b)) <= 1e-12 * np.max(np.abs(b))

        assert_close(logits, logits_ref)
        assert_close(probs, probs_ref)
        assert loss == pytest.approx(loss_ref, rel=1e-12)
        assert sorted(grads) == sorted(grads_ref) == sorted(weights)
        for key in grads:
            assert_close(grads[key], grads_ref[key])


def forward_one(desc, weights, samples):
    """Inference-mode probabilities of one (n_channels, n_samples) epoch."""
    return forward_batch(desc, weights, samples[None])[0][0]


class TestForward:
    def test_zero_weights_give_uniform_output(self):
        desc = full_architecture()
        weights = {k: np.zeros(s) for k, s in weight_shapes(desc).items()}
        probs = forward_one(desc, weights, np.random.default_rng(0).standard_normal((4, 960)))
        np.testing.assert_allclose(probs, 1.0 / 6.0, atol=1e-12)

    def test_probabilities_sum_to_one(self, rng):
        desc = reference_architecture()
        weights = init_weights(desc, 3)
        for _ in range(5):
            probs = forward_one(desc, weights, rng.standard_normal((4, 960)) * 20)
            assert probs.sum() == pytest.approx(1.0, abs=1e-9)
            assert np.all(probs >= 0)

    def test_softmax_translation_invariance(self, rng):
        z = rng.standard_normal((8, 6)) * 5
        shifted = _softmax(z + 123.456)
        np.testing.assert_allclose(_softmax(z), shifted, atol=1e-9)

    def test_inference_is_deterministic(self, rng):
        desc = reference_architecture()
        weights = init_weights(desc, 5)
        epoch = rng.standard_normal((4, 960))
        np.testing.assert_array_equal(
            forward_one(desc, weights, epoch), forward_one(desc, weights, epoch)
        )

    def test_dropout_only_active_in_training(self, rng):
        desc = tiny_descriptor()
        weights = init_weights(desc, 1)
        x = rng.standard_normal((3, 2, 24))
        p1, _ = forward_batch(desc, weights, x, training=False)
        p2, _ = forward_batch(desc, weights, x, training=False)
        np.testing.assert_array_equal(p1, p2)
        t1, _ = forward_batch(desc, weights, x, training=True, rng=np.random.default_rng(0))
        t2, _ = forward_batch(desc, weights, x, training=True, rng=np.random.default_rng(1))
        assert not np.array_equal(t1, t2)

    def test_shape_mismatch_rejected(self, rng):
        desc = reference_architecture()
        weights = init_weights(desc, 2)
        with pytest.raises(InvalidInputError):
            forward_batch(desc, weights, rng.standard_normal((1, 4, 959)))
        with pytest.raises(InvalidInputError):
            forward_batch(desc, weights, rng.standard_normal((1, 3, 960)))

    @pytest.mark.parametrize(
        "corrupt",
        [
            lambda w: w.pop("eeg/conv1/kernel"),
            lambda w: w.__setitem__("joined/conv2d/bias", np.zeros(7)),
            lambda w: w["eog/conv2/kernel"].__setitem__((0, 0, 0), np.nan),
        ],
        ids=["missing", "wrong-shape", "non-finite"],
    )
    def test_classifier_validates_weights_at_construction(self, corrupt):
        desc = reference_architecture()
        weights = init_weights(desc, 4)
        corrupt(weights)
        with pytest.raises(InvalidInputError):
            NetworkClassifier(desc, weights, ("Wake", "S1", "S2", "S3", "S4", "REM"))

    def test_golden_regression_vector(self):
        # frozen at first implementation; guards against silent numeric drift
        desc = reference_architecture()
        weights = init_weights(desc, 2024)
        data = np.sin(np.outer(np.arange(4) + 1, np.linspace(0.0, 60.0, 960))) * 25.0
        probs = forward_one(desc, weights, data)
        golden = GOLDEN_REFERENCE_PROBS
        np.testing.assert_allclose(probs, golden, rtol=0, atol=1e-12)


GOLDEN_REFERENCE_PROBS = np.array(
    [
        0.15246723184217692,
        0.25480592704693444,
        0.16213240468056167,
        0.21095604207107763,
        0.09640916031715131,
        0.12322923404209792,
    ]
)


class TestGradients:
    @staticmethod
    def relative_error(a, b):
        scale = max(abs(a), abs(b), 1e-8)
        return abs(a - b) / scale

    def test_analytic_gradients_match_finite_differences(self, rng):
        desc = tiny_descriptor()
        # random values for every tensor (biases included) keep pre-activations
        # away from the exact ReLU kink where subgradients and finite
        # differences legitimately disagree
        weights = {k: rng.normal(0.0, 0.35, s) for k, s in weight_shapes(desc).items()}
        x = rng.standard_normal((4, 2, 24)) * 2
        labels = np.array([0, 1, 2, 1])

        _, grads = loss_and_gradients(desc, weights, x, labels, training=False)
        keys = sorted(weights)
        coords = []
        for key in keys:
            for flat_idx in range(weights[key].size):
                coords.append((key, flat_idx))
        picked = [coords[i] for i in rng.choice(len(coords), size=100, replace=False)]

        for key, flat_idx in picked:
            w = weights[key]
            original = w.flat[flat_idx]
            h = 1e-6 * max(1.0, abs(original))
            w.flat[flat_idx] = original + h
            lp, _ = loss_and_gradients(desc, weights, x, labels, training=False)
            w.flat[flat_idx] = original - h
            lm, _ = loss_and_gradients(desc, weights, x, labels, training=False)
            w.flat[flat_idx] = original
            fd = (lp - lm) / (2 * h)
            analytic = grads[key].flat[flat_idx]
            assert self.relative_error(analytic, fd) < 1e-4, (key, flat_idx)

    def test_gradients_match_with_dropout_active(self, rng):
        # identical dropout masks per evaluation via a fixed generator seed
        desc = tiny_descriptor()
        weights = {k: rng.normal(0.0, 0.35, s) for k, s in weight_shapes(desc).items()}
        x = rng.standard_normal((3, 2, 24))
        labels = np.array([0, 2, 1])

        def eval_loss():
            loss, grads = loss_and_gradients(
                desc, weights, x, labels, training=True, rng=np.random.default_rng(99)
            )
            return loss, grads

        _, grads = eval_loss()
        key = "shared/conv_a/kernel"
        for flat_idx in rng.choice(weights[key].size, size=3, replace=False):
            original = weights[key].flat[flat_idx]
            h = 1e-6
            weights[key].flat[flat_idx] = original + h
            lp, _ = eval_loss()
            weights[key].flat[flat_idx] = original - h
            lm, _ = eval_loss()
            weights[key].flat[flat_idx] = original
            fd = (lp - lm) / (2 * h)
            assert self.relative_error(grads[key].flat[flat_idx], fd) < 1e-4

    def test_shared_group_accumulates_both_channels(self, rng):
        desc = tiny_descriptor()
        weights = init_weights(desc, 17)
        x = rng.standard_normal((2, 2, 24))
        # zero out the second channel: gradients should differ from a
        # batch where both channels carry the same data
        x_same = x.copy()
        x_same[:, 1] = x[:, 0]
        _, g1 = loss_and_gradients(desc, weights, x, np.array([0, 1]), training=False)
        _, g2 = loss_and_gradients(desc, weights, x_same, np.array([0, 1]), training=False)
        assert not np.allclose(g1["shared/conv_a/kernel"], g2["shared/conv_a/kernel"])


def per_role_descriptor():
    """The reference network with one parameter group per role: four
    groups, more than the cores of a small machine."""
    desc = reference_architecture()
    return dataclasses.replace(
        desc, parameter_sharing=tuple((role, role.lower()) for role in desc.channel_roles)
    )


def single_group_descriptor():
    """The reference network with every role in one parameter group."""
    desc = reference_architecture()
    return dataclasses.replace(
        desc, parameter_sharing=tuple((role, "all") for role in desc.channel_roles)
    )


THREADED_BUILDS = {
    "reference": reference_architecture,
    "full": full_architecture,
    "per-role": per_role_descriptor,
    "single-group": single_group_descriptor,
}


def threaded_pass(desc, weights, x, labels):
    loss, grads = loss_and_gradients(desc, weights, x, labels, rng=np.random.default_rng(8))
    probs, _ = forward_batch(desc, weights, x, training=True, rng=np.random.default_rng(8))
    return loss, grads, probs


def assert_same_pass(got, expected):
    loss, grads, probs = got
    loss_ref, grads_ref, probs_ref = expected
    assert loss == loss_ref
    assert list(grads) == list(grads_ref)
    for key in grads_ref:
        assert grads[key].tobytes() == grads_ref[key].tobytes(), key
    assert probs.tobytes() == probs_ref.tobytes()


class TestThreadedPipes:
    """The channel-group pipes run on threads; the serial loop they
    replaced (``oracles.serial_loss_and_gradients``) is the reference."""

    @pytest.mark.parametrize("build", THREADED_BUILDS.values(), ids=THREADED_BUILDS)
    def test_bit_equal_to_serial_loop_with_dropout(self, build, rng):
        desc = build()
        weights = init_weights(desc, 21)
        x = rng.standard_normal((5, 4, 960)) * 20
        labels = np.array([0, 1, 2, 3, 5])
        expected = oracles.serial_loss_and_gradients(
            desc, weights, x, labels, rng=np.random.default_rng(8)
        )
        assert_same_pass(threaded_pass(desc, weights, x, labels), expected)
        probs, logits = forward_batch(desc, weights, x)
        probs_ref, logits_ref = oracles.serial_forward_batch(desc, weights, x)
        assert probs.tobytes() == probs_ref.tobytes()
        assert logits.tobytes() == logits_ref.tobytes()

    @pytest.mark.parametrize("build", [reference_architecture, full_architecture])
    def test_chunked_pipes_bit_equal_to_serial_loop_with_dropout(self, build, rng):
        # every group's rows span at least 3 chunks; the serial loop runs
        # each layer over all of a group's rows at once
        desc = build()
        weights = init_weights(desc, 27)
        batch = 2 * _pipe_rows(desc) + 1
        assert len(_chunks(batch, _pipe_rows(desc))) == 3
        x = rng.standard_normal((batch, 4, 960)) * 20
        labels = np.arange(batch) % 6
        expected = oracles.serial_loss_and_gradients(
            desc, weights, x, labels, rng=np.random.default_rng(8)
        )
        assert_same_pass(threaded_pass(desc, weights, x, labels), expected)

    def test_more_partitions_than_cores_give_the_same_bits(self, rng, set_usable_cores):
        # four groups on four partitions: three worker threads, and the
        # switch interval shortened so the threads interleave finely
        desc = per_role_descriptor()
        weights = init_weights(desc, 22)
        x = rng.standard_normal((4, 4, 960)) * 20
        labels = np.array([0, 1, 2, 3])
        expected = oracles.serial_loss_and_gradients(
            desc, weights, x, labels, rng=np.random.default_rng(8)
        )
        set_usable_cores(4)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            results, errors = [], []

            def caller():
                deadline = time.monotonic() + 1.5
                try:
                    while time.monotonic() < deadline:
                        results.append(threaded_pass(desc, weights, x, labels))
                except Exception as exc:  # reported below, on the test's thread
                    errors.append(exc)

            callers = [threading.Thread(target=caller) for _ in range(2)]
            for thread in callers:
                thread.start()
            for thread in callers:
                thread.join(timeout=60)
            assert not any(thread.is_alive() for thread in callers)
        finally:
            sys.setswitchinterval(interval)
        assert not errors
        assert len(results) >= 2
        for got in results:
            assert_same_pass(got, expected)

    def test_no_more_threads_than_cores(self, rng, monkeypatch):
        desc = per_role_descriptor()
        weights = init_weights(desc, 23)
        counts = []
        conv = network._conv1d_forward

        def counting_conv(*args):
            counts.append(threading.active_count())
            return conv(*args)

        monkeypatch.setattr(network, "_conv1d_forward", counting_conv)
        before = threading.active_count()
        loss_and_gradients(desc, weights, rng.standard_normal((2, 4, 960)), np.array([0, 1]),
                           rng=np.random.default_rng(0))
        assert max(counts) - before + 1 <= parallel._usable_cores()
        assert threading.active_count() == before

    def test_partitions_balance_channel_counts(self):
        # default sharing: EEG (2 channels) on the caller, EOG and EMG on one worker
        assert parallel._partitions([2, 1, 1], 2) == [[0], [1, 2]]
        assert parallel._partitions([1, 1, 1, 1], 2) == [[0, 2], [1, 3]]
        assert parallel._partitions([1, 3, 1], 2) == [[1], [0, 2]]
        assert parallel._partitions([4], 2) == [[0]]
        assert parallel._partitions([2, 1, 1], 1) == [[0, 1, 2]]
        assert parallel._map_partitioned(lambda i: i, []) == []

    def test_usable_cores_follow_the_affinity_mask(self, monkeypatch):
        # a process pinned to one core (taskset) starts no worker thread
        monkeypatch.setattr(parallel.os, "sched_getaffinity", lambda pid: {1}, raising=False)
        monkeypatch.setattr(parallel.os, "cpu_count", lambda: 8)
        assert parallel._usable_cores() == 1
        threads = set()
        parallel._map_partitioned(lambda i: threads.add(threading.get_ident()), [1, 1, 1])
        assert threads == {threading.get_ident()}
        monkeypatch.delattr(parallel.os, "sched_getaffinity", raising=False)
        assert parallel._usable_cores() == 8

    def test_blas_runs_one_thread_inside_a_threaded_map(self, set_usable_cores):
        blas = parallel._openblas_threads()
        if blas is None:
            pytest.skip("numpy's OpenBLAS thread-count symbols are absent")
        get, set_ = blas
        before = get()
        set_usable_cores(2)
        set_(2)
        try:
            assert parallel._map_partitioned(lambda i: get(), [1, 1]) == [1, 1]
            assert get() == 2
            with pytest.raises(ZeroDivisionError):  # item 0 raises on the caller
                parallel._map_partitioned(lambda i: 1 // i, [1, 1])
            assert get() == 2
        finally:
            set_(before)

    def test_workers_see_the_callers_error_state(self, set_usable_cores):
        # numpy's error state is a context variable, which a new thread
        # does not inherit on its own
        set_usable_cores(2)
        with np.errstate(over="ignore", invalid="raise"):
            seen = parallel._map_partitioned(
                lambda i: (threading.get_ident(), np.geterr()), [1, 1]
            )
        assert len({ident for ident, _ in seen}) == 2
        for _, state in seen:
            assert state["over"] == "ignore" and state["invalid"] == "raise"

    def test_worker_exception_reaches_the_caller(self, rng):
        desc = reference_architecture()
        weights = init_weights(desc, 24)
        del weights["emg/conv3/kernel"]  # the EMG pipe runs on a worker
        x = rng.standard_normal((2, 4, 960))
        with pytest.raises(KeyError, match="emg/conv3/kernel"):
            loss_and_gradients(desc, weights, x, np.array([0, 1]), rng=np.random.default_rng(0))
        with pytest.raises(KeyError, match="emg/conv3/kernel"):
            forward_batch(desc, weights, x)

    def test_training_without_rng_is_rejected(self, rng):
        desc = reference_architecture()
        weights = init_weights(desc, 25)
        x = rng.standard_normal((2, 4, 960))
        message = "training-mode forward needs an rng for dropout"
        with pytest.raises(InvalidInputError, match=message):
            forward_batch(desc, weights, x, training=True, rng=None)
        with pytest.raises(InvalidInputError, match=message):
            loss_and_gradients(desc, weights, x, np.array([0, 1]), training=True, rng=None)


# channel pipes around the fold of ReLU and dropout masks into the pool:
# it applies only from a relu Conv1D to its MaxPool1D, through Dropouts
FOLD_PIPES = {
    "pool-after-scale": (
        Scale("scale", init=0.5),
        MaxPool1D("pool_a"),
        Conv1D("conv_a", width=3, filters=2),
        Dropout("drop_a", rate=0.25),
        MaxPool1D("pool_b"),
    ),
    "linear-conv-before-pool": (
        Scale("scale", init=0.5),
        Conv1D("conv_a", width=3, filters=2, activation="linear"),
        Dropout("drop_a", rate=0.25),
        MaxPool1D("pool_a"),
        Conv1D("conv_b", width=3, filters=3),
        MaxPool1D("pool_b"),
    ),
    "conv-feeds-conv-and-ends-pipe": (
        Scale("scale", init=0.5),
        Dropout("drop_scale", rate=0.25),
        Conv1D("conv_a", width=3, filters=2),
        Dropout("drop_a", rate=0.25),
        Conv1D("conv_b", width=5, filters=3),
        MaxPool1D("pool_a"),
        Conv1D("conv_c", width=3, filters=2),
        Dropout("drop_c", rate=0.25),
    ),
    "dropouts-before-pool": (
        Scale("scale", init=0.5),
        Conv1D("conv_a", width=3, filters=2),
        Dropout("drop_a", rate=0.0),
        MaxPool1D("pool_a"),
        Conv1D("conv_b", width=3, filters=3),
        Dropout("drop_b", rate=0.25),
        Dropout("drop_c", rate=0.4),
        MaxPool1D("pool_b"),
    ),
    "tiny": tiny_descriptor().channel_pipe,
}


class TestFoldedMasks:
    @pytest.mark.parametrize("pipe", FOLD_PIPES.values(), ids=FOLD_PIPES)
    def test_bit_equal_to_serial_loop(self, pipe, rng, monkeypatch):
        # chunks of 3 rows over a group of 2 channels x 5 epochs: the
        # second chunk straddles the two channels and the last is ragged
        desc = dataclasses.replace(tiny_descriptor(input_len=40), channel_pipe=pipe)
        widest = max(math.prod(shape) for _, shape in infer_shapes(desc).channel)
        monkeypatch.setattr(network, "PIPE_BYTES", 3 * 8 * widest)
        assert _pipe_rows(desc) == 3
        weights = init_weights(desc, 29)
        x = rng.standard_normal((5, 2, 40)) * 4
        labels = np.array([0, 1, 2, 1, 0])
        expected = oracles.serial_loss_and_gradients(
            desc, weights, x, labels, rng=np.random.default_rng(8)
        )
        assert expected[1]["shared/scale/scale"][0] != 0  # the gradient reaches the input
        assert_same_pass(threaded_pass(desc, weights, x, labels), expected)
        loss, grads = loss_and_gradients(desc, weights, x, labels, training=False)
        loss_ref, grads_ref, _ = oracles.serial_loss_and_gradients(
            desc, weights, x, labels, training=False
        )
        assert loss == loss_ref
        for key in grads_ref:
            assert grads[key].tobytes() == grads_ref[key].tobytes(), key


class TestMemory:
    @pytest.mark.parametrize("cores", [1, 2])
    def test_batch_128_step_holds_caches_plus_one_chunk(
        self, cores, rng, set_usable_cores, one_blas_thread, traced_peak
    ):
        # a reference step at the paper's batch peaked at 79-88 MiB with
        # each layer run over a whole group's rows, and at 60-63 MiB with
        # the pipe run end to end in row chunks
        desc = reference_architecture()
        assert _pipe_rows(desc) == PIPE_ROWS
        weights = init_weights(desc, 28)
        x = rng.standard_normal((128, 4, 960)) * 20
        labels = np.arange(128) % 6
        set_usable_cores(cores)
        _, peak = traced_peak(
            loss_and_gradients, desc, weights, x, labels, True, np.random.default_rng(0)
        )
        assert peak < 75 * 2**20, f"{peak / 2**20:.1f} MiB"

    @pytest.mark.parametrize(
        "build, cores, bound_mib",
        [
            (reference_architecture, 1, 52),
            (reference_architecture, 2, 52),
            (full_architecture, 1, 112),
            (full_architecture, 2, 112),
        ],
        ids=["reference-1", "reference-2", "full-1", "full-2"],
    )
    def test_batch_128_step_caches_only_what_backward_reads(
        self, build, cores, bound_mib, rng, set_usable_cores, one_blas_thread, traced_peak
    ):
        # peaked at 60-63 MiB (reference) and 128-130 MiB (full) while each
        # chunk also cached its ReLU and dropout masks and a padded copy of
        # the scaled input
        desc = build()
        weights = init_weights(desc, 28)
        x = rng.standard_normal((128, 4, 960)) * 20
        labels = np.arange(128) % 6
        set_usable_cores(cores)
        _, peak = traced_peak(
            loss_and_gradients, desc, weights, x, labels, True, np.random.default_rng(0)
        )
        assert peak < bound_mib * 2**20, f"{peak / 2**20:.1f} MiB"

    @pytest.mark.parametrize(
        "n_rows", [PIPE_ROWS - 5, 3 * PIPE_ROWS, 3 * PIPE_ROWS + 7],
        ids=["one-chunk", "several-chunks", "ragged-last-chunk"],
    )
    def test_chunk_draws_are_the_whole_group_masks(self, n_rows):
        # the serial loop draws each layer's mask over all the rows at once
        desc = reference_architecture()
        chunked, whole = np.random.default_rng(31), np.random.default_rng(31)
        chunks = network._draw_keeps(desc.channel_pipe, (n_rows, 960, 1), chunked, PIPE_ROWS)
        assert len(chunks) == len(_chunks(n_rows, PIPE_ROWS))
        out_shapes = dict(infer_shapes(desc).channel)
        shape, masks = None, []
        for layer in desc.channel_pipe:
            if isinstance(layer, Dropout):
                masks.append(whole.random(shape) >= layer.rate)
            else:
                shape = (n_rows,) + out_shapes[layer.name]
        assert len(masks) == 4
        for k, mask in enumerate(masks):
            assert np.array_equal(np.concatenate([chunk[k] for chunk in chunks]), mask)
        assert chunked.bit_generator.state == whole.bit_generator.state


@st.composite
def splices(draw):
    """A network, an epoch, and rows replacing one channel's samples [lo, hi)
    of a window with crossfades cut at the epoch edges."""
    if draw(st.booleans()):
        desc = reference_architecture(input_len=draw(st.integers(320, 1000)))
    else:
        desc = tiny_descriptor(input_len=draw(st.integers(6, 80)))
    n = desc.input_len
    window = draw(st.integers(0, n))
    start = draw(st.integers(0, n - window))
    crossfade = draw(st.integers(0, n // 4))
    lo, hi = start - min(crossfade, start), start + window + min(crossfade, n - start - window)
    channel = draw(st.integers(0, len(desc.channel_roles) - 1))
    n_rows = draw(st.integers(1, 5))
    seed = draw(st.integers(0, 2**32 - 1))
    return desc, lo, hi, channel, n_rows, seed


class TestSplicedForward:
    @settings(max_examples=60, deadline=None)
    @given(splices())
    def test_layers_match_full_forward(self, case):
        desc, lo, hi, channel, n_rows, seed = case
        rng = np.random.default_rng(seed)
        weights = init_weights(desc, seed)
        x = rng.standard_normal((len(desc.channel_roles), desc.input_len)) * 20
        rows = np.repeat(x[channel][None], n_rows, axis=0)
        rows[:, lo:hi] = rng.standard_normal((n_rows, hi - lo)) * 20
        replaced = np.repeat(x[None], n_rows, axis=0)
        replaced[:, channel] = rows
        cached = channel_activations(desc, weights, x[None])
        full = channel_activations(desc, weights, replaced)[channel]
        layers = spliced_layers(desc, weights, cached, [channel], rows, lo, hi)
        for k, (segment, olo, ohi) in enumerate(layers, start=1):
            outside = np.ones(full[k].shape[1], dtype=bool)
            outside[olo:ohi] = False
            expected = np.broadcast_to(cached[channel][k][:, outside], full[k][:, outside].shape)
            np.testing.assert_array_equal(full[k][:, outside], expected)
            scale = np.max(np.abs(full[k]))
            assert np.max(np.abs(segment - full[k][:, olo:ohi]), initial=0.0) <= 1e-12 * scale
        assert k == len(full) - 1
        probs = spliced_forward(desc, weights, cached, {channel: rows}, lo, hi)
        probs_ref, _ = forward_batch(desc, weights, replaced)
        assert np.max(np.abs(probs - probs_ref)) <= 1e-12 * np.max(probs_ref)

    @pytest.mark.parametrize("build", [reference_architecture, full_architecture])
    def test_one_pass_per_group_gives_each_channels_bits(self, build, rng, one_blas_thread):
        # EEG1 and EEG2 share the eeg group: spliced as one stacked block,
        # each row gets the bits of its channel spliced alone
        desc = build()
        weights = init_weights(desc, 29)
        x = rng.standard_normal((1, 4, 960)) * 20
        cached = channel_activations(desc, weights, x)
        lo, hi = 300, 470
        rows = {}
        for c in (0, 1, 2):
            rows[c] = np.repeat(x[0, c][None], 5, axis=0)
            rows[c][:, lo:hi] = rng.standard_normal((5, hi - lo)) * 20
        both = np.concatenate([rows[0], rows[1]])
        stacked = spliced_layers(desc, weights, cached, [0, 1], both, lo, hi)
        alone = [spliced_layers(desc, weights, cached, [c], rows[c], lo, hi) for c in (0, 1)]
        for (segment, olo, ohi), (seg0, *range0), (seg1, *range1) in zip(stacked, *alone):
            assert [olo, ohi] == range0 == range1
            assert segment.tobytes() == np.concatenate([seg0, seg1]).tobytes()
        probs = spliced_forward(desc, weights, cached, rows, lo, hi)
        replaced = np.repeat(x, 5, axis=0)
        for c, block in rows.items():
            replaced[:, c] = block
        probs_ref, _ = forward_batch(desc, weights, replaced)
        assert np.max(np.abs(probs - probs_ref)) <= 1e-12 * np.max(probs_ref)

    def test_spliced_channels_must_share_a_group_and_split_the_rows(self, rng):
        desc = reference_architecture()
        weights = init_weights(desc, 30)
        x = rng.standard_normal((1, 4, 960)) * 20
        cached = channel_activations(desc, weights, x)
        rows = np.repeat(x[0, 0][None], 6, axis=0)
        with pytest.raises(InvalidInputError, match="one parameter group"):
            next(spliced_layers(desc, weights, cached, [0, 2], rows, 10, 20))
        with pytest.raises(InvalidInputError, match="do not split"):
            next(spliced_layers(desc, weights, cached, [0, 1], rows[:5], 10, 20))
