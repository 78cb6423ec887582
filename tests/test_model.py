"""Tests for the encoder, classifiers, optimizer, and checkpoints."""

import base64
import re
import string

import numpy as np
import pytest

from protoadapt.errors import DataFormatError, NumericError
from protoadapt.model import (Encoder, PrototypeMatrix, apply_sgd_momentum,
                              classify, classify_backward, load_checkpoint,
                              lr_schedule, predict, save_checkpoint)
from protoadapt.numerics import finite_diff_grad


class TestParameterBuffer:
    def test_layers_are_views_in_layout_order(self):
        enc = Encoder(4, [6, 5], 3, seed=1)
        enc.theta[...] = np.arange(enc.theta.size)
        pos = 0
        for w, b in zip(enc.weights, enc.biases, strict=True):
            for p in (w, b):
                assert np.shares_memory(p, enc.theta)
                np.testing.assert_array_equal(p.ravel(), np.arange(pos, pos + p.size))
                pos += p.size
        assert pos == enc.theta.size == 4 * 6 + 6 + 6 * 5 + 5 + 5 * 3 + 3

    def test_layers_cannot_be_rebound(self):
        enc = Encoder(2, [3], 2, seed=0)
        with pytest.raises(TypeError):
            enc.weights[0] = np.zeros((2, 3))
        with pytest.raises(TypeError):
            enc.biases[1] = np.zeros(2)

    def test_copy_shares_no_memory(self):
        enc = Encoder(3, [4], 2, seed=2)
        clone = enc.copy()
        np.testing.assert_array_equal(clone.theta, enc.theta)
        for a in (clone.theta, *clone.weights, *clone.biases):
            assert not np.shares_memory(a, enc.theta)

    @pytest.mark.parametrize("d_x, hidden, d_z, seed",
                             [(4, [6, 5], 3, 1), (3, [], 2, 7), (5, [8], 6, 0)])
    def test_seeded_init_is_the_uniform_draw(self, d_x, hidden, d_z, seed):
        # the reference draw: each weight matrix in layer order from one
        # generator, in +/- sqrt(6/(fan_in+fan_out)); every bias zero
        rng = np.random.default_rng(seed)
        sizes = [d_x, *hidden, d_z]
        expected = []
        for fan_in, fan_out in zip(sizes, sizes[1:]):
            limit = np.sqrt(6.0 / (fan_in + fan_out))
            expected += [rng.uniform(-limit, limit, size=(fan_in, fan_out)).ravel(),
                         np.zeros(fan_out)]
        enc = Encoder(d_x, hidden, d_z, seed=seed)
        assert enc.theta.tobytes() == np.concatenate(expected).tobytes()

    def test_built_from_theta_draws_nothing(self, tmp_path, monkeypatch):
        enc = Encoder(4, [6, 5], 3, seed=1)
        enc.theta[...] = np.random.default_rng(3).standard_normal(enc.theta.size) / 7
        save_checkpoint(tmp_path / "m", enc, PrototypeMatrix.random(3, 2, seed=0))
        theta = enc.theta.copy()

        def no_draw(*args, **kwargs):
            raise AssertionError("an encoder built from parameters drew from an RNG")
        monkeypatch.setattr(np.random, "default_rng", no_draw)
        built = Encoder(4, [6, 5], 3, seed=9, theta=theta)
        for other in (built, enc.copy(), load_checkpoint(tmp_path / "m")[0]):
            assert other.theta.tobytes() == enc.theta.tobytes()
            assert not np.shares_memory(other.theta, enc.theta)
            assert all(np.shares_memory(p, other.theta) for p in (*other.weights, *other.biases))
        assert not np.shares_memory(built.theta, theta)

    @pytest.mark.parametrize("theta", [np.zeros(5), np.zeros((1, 4 * 6 + 6 + 6 * 3 + 3))],
                             ids=["short", "2-D"])
    def test_theta_of_another_shape_rejected(self, theta):
        with pytest.raises(ValueError, match=r"expected \(51,\)"):
            Encoder(4, [6], 3, theta=theta)

    def test_loaded_views_alias_theta(self, tmp_path):
        save_checkpoint(tmp_path / "m", Encoder(3, [4], 2, seed=2),
                        PrototypeMatrix.random(2, 3, seed=1))
        enc, _, _ = load_checkpoint(tmp_path / "m")
        assert all(np.shares_memory(p, enc.theta) for p in (*enc.weights, *enc.biases))
        x = np.random.default_rng(0).standard_normal((4, 3))
        before = enc._layers(x, None)  # the raw codes
        apply_sgd_momentum(enc.theta, np.ones_like(enc.theta),
                           np.zeros_like(enc.theta), lr=0.1)
        assert not np.array_equal(enc._layers(x, None), before)


class TestEncoderForward:
    def test_identity_configuration(self):
        # single linear layer (no hidden => no nonlinearity), weights = I
        enc = Encoder(3, [], 3, seed=0)
        enc.weights[0][...] = np.eye(3)
        x = np.array([[1.0, -2.0, 0.5], [0.0, 4.0, 1.0]])
        np.testing.assert_array_equal(enc._layers(x, None), x)

    def test_unit_norm_rows(self):
        rng = np.random.default_rng(2)
        enc = Encoder(5, [7], 4, seed=1)
        out = enc.forward(rng.standard_normal((10, 5)))
        np.testing.assert_allclose(np.linalg.norm(out.z_l2, axis=1),
                                   np.ones(10), atol=1e-9)

    def test_non_finite_activation_names_layer(self):
        for layer in (0, 1):
            enc = Encoder(2, [3], 2, seed=0)
            enc.weights[layer][0, 0] = np.inf
            for run in (enc.forward, enc.encode):
                with pytest.raises(NumericError, match=f"encoder layer {layer}$"):
                    run(np.ones((1, 2)))

    def test_gradient_of_sum_of_unit_codes(self):
        # encoder-parameter gradient of sum(z_l2) against central differences
        enc = Encoder(4, [6], 3, seed=5)
        x = np.random.default_rng(8).standard_normal((5, 4))

        def value(theta):
            clone = enc.copy()
            clone.theta[...] = theta
            return float(clone.forward(x).z_l2.sum())

        out = enc.forward(x)
        analytic = enc.backward(out.ctx, dz_l2=np.ones_like(out.z_l2))
        numeric = finite_diff_grad(value, enc.theta)
        scale = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-4)
        assert (np.abs(analytic - numeric) / scale).max() < 1e-4

    def test_wrong_input_dimension(self):
        enc = Encoder(3, [], 2, seed=0)
        for run in (enc.forward, enc.encode):
            with pytest.raises(ValueError, match="^expected input dimension 3, got 4$"):
                run(np.ones((1, 4)))

    def test_encode_codes_bit_equal_to_forward(self):
        # encode is forward's layer loop keeping no layer input
        rng = np.random.default_rng(3)
        x = rng.standard_normal((40, 10))
        x[7] = 0.0
        enc = Encoder(10, [64, 64], 32, seed=1)  # the acceptance study's encoder
        assert enc.encode(x).tobytes() == enc.forward(x).z_l2.tobytes()

    def test_in_place_layers_leave_inputs_unwritten(self):
        enc = Encoder(5, [7, 6], 4, seed=4)
        x = np.random.default_rng(5).standard_normal((9, 5))
        x_before = x.copy()
        out = enc.forward(x)
        expected = [x_before]  # each layer's input, recomputed out of place
        for w, b in zip(enc.weights[:-1], enc.biases[:-1]):
            expected.append(np.tanh(expected[-1] @ w + b))
        inputs = out.ctx[0]
        assert [a.tobytes() for a in inputs] == [a.tobytes() for a in expected]
        np.testing.assert_array_equal(x, x_before)
        raw = enc._layers(x, None)
        assert raw.tobytes() == (expected[-1] @ enc.weights[-1] + enc.biases[-1]).tobytes()


class TestClassify:
    def test_aligned_prototype_wins(self):
        out = classify(np.eye(4), np.eye(4)[[0]])
        assert out.argmax() == 0

    def test_zero_weights_uniform(self):
        out = classify(np.zeros((3, 5)), np.random.default_rng(0).standard_normal((2, 3)))
        np.testing.assert_allclose(out, np.full((2, 5), 0.2), atol=1e-12)

    def test_doubling_logits_sharpens(self):
        # independent softmax evaluation: exp/sum by hand
        logits = np.array([0.3, -0.1, 0.9])
        raw = np.exp(logits) / np.exp(logits).sum()
        sharp = np.exp(2 * logits) / np.exp(2 * logits).sum()
        assert sharp.max() > raw.max()
        w = np.vstack([logits])  # d_z=1, three classes
        out1 = classify(w, np.array([[1.0]]))
        out2 = classify(2 * w, np.array([[1.0]]))
        assert out2.max() > out1.max()

    def test_rescaling_before_normalization_is_invariant(self):
        rng = np.random.default_rng(4)
        enc = Encoder(4, [5], 3, seed=2)
        w = rng.standard_normal((3, 6))
        x = rng.standard_normal((4, 4))
        base = classify(w, enc.forward(x).z_l2)
        scaled = classify(w, enc.forward(7.5 * x).z_l2)
        # scaling the input scales z only through the nonlinear layers, so
        # scale z directly instead
        z = enc._layers(x, None)  # the raw codes
        from protoadapt.numerics import l2_normalize_rows
        for c in (0.5, 3.0, 1e4):
            zc, _, _ = l2_normalize_rows(c * z)
            np.testing.assert_allclose(classify(w, zc), base, atol=1e-9)

    def test_backward_shapes(self):
        rng = np.random.default_rng(0)
        w, z = rng.standard_normal((3, 4)), rng.standard_normal((5, 3))
        dw, dz = classify_backward(w, z, rng.standard_normal((5, 4)))
        assert dw.shape == w.shape and dz.shape == z.shape


class TestPredict:
    def test_exact_tie_goes_to_lower_class(self):
        # columns: class 0 scores 0, classes 1 and 2 score exactly 1
        w = np.array([[0.0, 1.0, 1.0], [1.0, 0.0, 0.0]])
        np.testing.assert_array_equal(predict(w, np.array([[1.0, 0.0]])), [1])
        np.testing.assert_array_equal(predict(np.zeros((2, 4)), np.eye(2)), [0, 0])

    def test_equals_argmax_of_probabilities(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            w = rng.standard_normal((5, 7))
            z = rng.standard_normal((30, 5))
            np.testing.assert_array_equal(predict(w, z), classify(w, z).argmax(axis=1))


class TestSgdMomentum:
    def test_zero_grad_no_motion(self):
        p = np.array([1.0, 2.0])
        apply_sgd_momentum(p, np.zeros(2), np.zeros(2), lr=0.1)
        np.testing.assert_array_equal(p, [1.0, 2.0])

    def test_momentum_zero_is_plain_sgd(self):
        # from a zero velocity buffer the first step is plain SGD: p - lr*g
        p, g, v = np.array([1.0]), np.array([0.5]), np.zeros(1)
        apply_sgd_momentum(p, g, v, lr=0.2)
        np.testing.assert_allclose(p, [0.9], atol=1e-15)
        np.testing.assert_array_equal(v, g)

    def test_two_steps_constant_gradient(self):
        # v1 = g, v2 = 1.9 g  =>  total displacement lr*g*(1 + 1.9)
        p, v = np.zeros(1), np.zeros(1)
        g = np.array([2.0])
        apply_sgd_momentum(p, g, v, lr=0.1)
        apply_sgd_momentum(p, g, v, lr=0.1)
        np.testing.assert_allclose(p, [-0.1 * 2.0 * 2.9], atol=1e-12)

    def test_non_finite_update_raises(self):
        with pytest.raises(NumericError):
            apply_sgd_momentum(np.zeros(1), np.array([np.inf]), np.zeros(1), lr=0.1)


class TestLrSchedule:
    def test_initial_value(self):
        assert lr_schedule(0, 0.03) == 0.03

    def test_monotone_non_increasing(self):
        values = [lr_schedule(n, 0.01) for n in range(0, 10_001, 97)]
        assert all(a >= b for a, b in zip(values, values[1:]))

    def test_formula_value(self):
        expected = 0.01 * (1 + 0.0002 * 1000) ** (-0.75)
        assert lr_schedule(1000, 0.01) == pytest.approx(expected, abs=1e-12)
        assert expected == pytest.approx(0.008722, abs=1e-6)


class TestCheckpoints:
    def test_round_trip_bit_exact_forward(self, tmp_path):
        rng = np.random.default_rng(9)
        enc = Encoder(4, [6, 5], 3, seed=3)
        protos = PrototypeMatrix.random(3, 7, seed=4)
        protos.frozen = True
        ensemble = protos.weights + 0.01 * rng.standard_normal((2, 3, 7))
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, enc, protos, ensemble)
        enc2, protos2, ensemble2 = load_checkpoint(path)

        x = rng.standard_normal((6, 4))
        np.testing.assert_array_equal(enc._layers(x, None), enc2._layers(x, None))
        np.testing.assert_array_equal(protos.weights, protos2.weights)
        assert protos2.frozen
        np.testing.assert_array_equal(ensemble, ensemble2)

    # each of these was written by reshape(-1, K_s) and rejected on reload
    @pytest.mark.parametrize("shape", [(0, 3, 7), (3, 7), (2, 4, 7), (2, 3, 6)],
                             ids=["no members", "one member 2-D", "wrong d_z", "wrong K_s"])
    def test_ensemble_of_another_shape_rejected(self, tmp_path, shape):
        protos = PrototypeMatrix.random(3, 7, seed=4)
        path = tmp_path / "model.ckpt"
        with pytest.raises(ValueError, match=r"is not \(n_e >= 1, 3, 7\)"):
            save_checkpoint(path, Encoder(4, [6], 3, seed=3), protos, np.zeros(shape))
        assert not path.exists()

    def test_without_ensemble(self, tmp_path):
        enc = Encoder(2, [], 2, seed=0)
        protos = PrototypeMatrix.random(2, 3, seed=1)
        save_checkpoint(tmp_path / "m", enc, protos)
        _, protos2, ensemble2 = load_checkpoint(tmp_path / "m")
        assert ensemble2 is None
        assert not protos2.frozen

    # A non-finite value is named before a later line's fault in the same
    # matrix, the order of a reader that checked each line as it decoded it.
    @pytest.mark.parametrize("later_fault", ["short line", "'_'", "truncated"])
    def test_earlier_bad_value_is_named_first(self, tmp_path, later_fault):
        path = tmp_path / "m"
        save_checkpoint(path, Encoder(4, [], 1, seed=0), PrototypeMatrix.random(1, 2, seed=1))
        lines = path.read_text(encoding="utf-8").splitlines()  # layer 0 rows: lines 4-7
        lines[3] = with_first_value(lines[3], np.nan)
        if later_fault == "truncated":
            del lines[5:]
        else:
            lines[4] = "" if later_fault == "short line" else "_" + lines[4][1:]
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(DataFormatError, match=f"^{re.escape(str(path))}: line 4: "
                                                  "non-finite value nan$"):
            load_checkpoint(path)

    # A 4 -> 3 encoder: layer 0's weight rows are lines 4-7 and its bias
    # line 8, 3 values as 32 base64 characters. The 3 x 2 prototypes are
    # lines 10-12, 2 values as 24 characters, the last 4 of them "xx==".
    @pytest.mark.parametrize("line, edit, message", [
        (5, lambda row: "x", "expected 32 base64 characters for 3 values, got 1"),
        (6, lambda row: with_first_value(row, np.nan), "non-finite value nan"),
        (8, lambda row: with_first_value(row, np.inf), "non-finite value inf"),
        (11, lambda row: with_first_value(row, -np.inf), "non-finite value -inf"),
        (4, lambda row: "_" + row[1:], "not the canonical base64 of 3 values"),
        (7, lambda row: "\u00e9" + row[1:], "not base64: non-ASCII text"),
        (10, lambda row: row[:-3] + B64[B64.index(row[-3]) ^ 1] + "==",
         "not the canonical base64 of 2 values"),  # nonzero trailing bits
        (12, lambda row: base64.b64encode(bytes(17)).decode(),
         "not the canonical base64 of 2 values"),  # 24 characters, 17 bytes
        (5, lambda row: values_row(row_values(row)[:2]),
         "expected 32 base64 characters for 3 values, got 24"),
        (6, lambda row: values_row([*row_values(row), 0.5]),
         "expected 32 base64 characters for 3 values, got 44")],
        ids=["5-x", "6-nan", "8-inf", "11--inf", "4-_", "7-non-ASCII", "10-trailing bits",
             "12-17 bytes", "5-one value short", "6-one value long"])
    def test_bad_value_names_its_line(self, tmp_path, line, edit, message):
        path = tmp_path / "m"
        save_checkpoint(path, Encoder(4, [], 3, seed=0), PrototypeMatrix.random(3, 2, seed=1))
        lines = path.read_text(encoding="utf-8").splitlines()
        lines[line - 1] = edit(lines[line - 1])
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(DataFormatError,
                           match=f"^{re.escape(str(path))}: line {line}: {message}$"):
            load_checkpoint(path)


B64 = string.ascii_uppercase + string.ascii_lowercase + string.digits + "+/"


def row_values(row: str) -> np.ndarray:
    return np.frombuffer(base64.b64decode(row), "<f8")


def values_row(values) -> str:
    return base64.b64encode(np.asarray(values, "<f8").tobytes()).decode()


def with_first_value(row: str, value: float) -> str:
    return values_row([value, *row_values(row)[1:]])
