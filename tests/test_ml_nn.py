"""Tests for NN layers (with numeric gradient checks), the CNN, the AE."""

import numpy as np
import pytest

from repro.ml import AutoencoderDetector, CnnClassifier, accuracy_score
from repro.ml import cnn as cnn_module
from repro.ml.cnn import Sequential
from repro.ml.serialization import ModelBundle, load_model_bundle, save_model_bundle
from repro.ml.layers import (
    Adam,
    Conv1D,
    Dense,
    Dropout,
    Flatten,
    MaxPool1D,
    ReLU,
    SoftmaxCrossEntropy,
)
from repro.ml.preprocessing import NotFittedError

RNG = np.random.default_rng(0)


def numeric_gradient(f, x, eps=1e-6):
    """Central-difference gradient of scalar f wrt array x."""
    grad = np.zeros_like(x)
    flat = x.ravel()
    gflat = grad.ravel()
    for i in range(flat.size):
        old = flat[i]
        flat[i] = old + eps
        hi = f()
        flat[i] = old - eps
        lo = f()
        flat[i] = old
        gflat[i] = (hi - lo) / (2 * eps)
    return grad


# --- Oracle kernels: the allocation-heavy versions the layers replaced.
# The conv weight gradient is the layer's own GEMM (the einsum it replaced
# sums in another order); TestConvWeightGradient bounds the two apart.
# Each oracle computes its input gradient even as a first layer, and keeps
# boolean masks, built at inference too.


class OracleConv1D(Conv1D):
    def forward(self, x, training=False):
        n, c, length = x.shape
        left, right = self._pad_amounts()
        xp = np.pad(x, ((0, 0), (0, 0), (left, right)))
        out_len = xp.shape[2] - self.kernel_size + 1
        idx = np.arange(self.kernel_size)[None, :] + np.arange(out_len)[:, None]
        cols = xp[:, :, idx].transpose(0, 2, 1, 3).reshape(n, out_len, c * self.kernel_size)
        self._cols = cols
        self._x_shape = (n, c, length)
        w2 = self.W.reshape(self.W.shape[0], -1)
        return (cols @ w2.T + self.b).transpose(0, 2, 1)

    def backward(self, grad):
        n, c, length = self._x_shape
        g = grad.transpose(0, 2, 1)
        out_len = g.shape[1]
        w2 = self.W.reshape(self.W.shape[0], -1)
        self.dW[...] = (
            g.reshape(-1, w2.shape[0]).T @ self._cols.reshape(-1, w2.shape[1])
        ).reshape(self.W.shape)
        self.db[...] = g.sum(axis=(0, 1))
        dcols = (g @ w2).reshape(n, out_len, c, self.kernel_size).transpose(0, 2, 1, 3)
        left, right = self._pad_amounts()
        dxp = np.zeros((n, c, length + left + right), dtype=grad.dtype)
        idx = np.arange(self.kernel_size)[None, :] + np.arange(out_len)[:, None]
        np.add.at(dxp, (slice(None), slice(None), idx), dcols)
        return dxp[:, :, left : left + length]

    def backward_params(self, grad):
        self.backward(grad)


class OracleMaxPool1D(MaxPool1D):
    def forward(self, x, training=False):
        n, c, length = x.shape
        p = self.pool_size
        out_len = length // p
        trimmed = x[:, :, : out_len * p].reshape(n, c, out_len, p)
        out = trimmed.max(axis=3)
        self._mask = trimmed == out[..., None]
        self._mask &= np.cumsum(self._mask, axis=3) == 1
        self._x_shape = (n, c, length)
        return out


class OracleReLU(ReLU):
    def forward(self, x, training=False):
        self._mask = x > 0
        return x * self._mask


class OracleDropout(Dropout):
    def forward(self, x, training=False):
        if not training or self.rate == 0.0:
            self._mask = None
            return x
        keep = 1.0 - self.rate
        self._mask = ((self.rng.random(x.shape) < keep) / keep).astype(x.dtype, copy=False)
        return x * self._mask


class OracleAdam(Adam):
    def step(self, grads):
        self.t += 1
        for i, (param, grad) in enumerate(zip(self.params, grads)):
            self.m[i] = self.beta1 * self.m[i] + (1 - self.beta1) * grad
            self.v[i] = self.beta2 * self.v[i] + (1 - self.beta2) * grad**2
            m_hat = self.m[i] / (1 - self.beta1**self.t)
            v_hat = self.v[i] / (1 - self.beta2**self.t)
            param -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)


def assert_bits_equal(a, b):
    assert a.shape == b.shape and a.dtype == b.dtype
    assert a.tobytes() == b.tobytes()


class TestKernelsMatchOracle:
    """The in-place / slice-based kernels round exactly like the oracle."""

    @pytest.mark.parametrize("kernel_size", [2, 3, 5])
    @pytest.mark.parametrize("padding", ["same", "valid"])
    @pytest.mark.parametrize("channels", [1, 4])
    def test_conv1d_forward_backward(self, kernel_size, padding, channels):
        fast = Conv1D(channels, 6, kernel_size, rng=np.random.default_rng(1), padding=padding)
        oracle = OracleConv1D(channels, 6, kernel_size, rng=np.random.default_rng(1), padding=padding)
        rng = np.random.default_rng(2)
        x = rng.normal(size=(9, channels, 11))
        out = fast.forward(x)
        assert_bits_equal(out, oracle.forward(x))
        grad = rng.normal(size=out.shape)
        assert_bits_equal(fast.backward(grad), oracle.backward(grad))
        assert_bits_equal(fast.dW, oracle.dW)
        assert_bits_equal(fast.db, oracle.db)

    @pytest.mark.parametrize("pool_size", [1, 2, 3])
    def test_maxpool_masks(self, pool_size):
        rng = np.random.default_rng(3)
        # ReLU output: many +0.0 and -0.0, so most pools hold ties.
        v = rng.integers(-3, 3, size=(5, 4, 13)).astype(float)
        x = v * (v > 0)
        assert np.signbit(x[x == 0]).any() and not np.signbit(x[x == 0]).all()
        fast, oracle = MaxPool1D(pool_size), OracleMaxPool1D(pool_size)
        assert_bits_equal(fast.forward(x, training=True), oracle.forward(x))
        assert fast._mask.dtype == x.dtype
        np.testing.assert_array_equal(fast._mask, oracle._mask)
        grad = rng.normal(size=(5, 4, 13 // pool_size))
        assert_bits_equal(fast.backward(grad), oracle.backward(grad))

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_relu_and_dropout(self, dtype):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(6, 40)).astype(dtype)
        x[0, :4] = [-0.0, 0.0, -1.0, 1.0]
        grad = rng.normal(size=x.shape).astype(dtype)
        for fast, oracle in [
            (ReLU(), OracleReLU()),
            (Dropout(0.3, np.random.default_rng(6)), OracleDropout(0.3, np.random.default_rng(6))),
        ]:
            assert_bits_equal(fast.forward(x, training=True), oracle.forward(x, training=True))
            assert_bits_equal(fast.backward(grad), oracle.backward(grad))
            assert_bits_equal(fast.forward(x), oracle.forward(x))

    def test_adam_steps(self):
        rng = np.random.default_rng(4)
        start = [rng.normal(size=(7, 3)), rng.normal(size=5)]
        fast_params = [p.copy() for p in start]
        oracle_params = [p.copy() for p in start]
        fast, oracle = Adam(fast_params, lr=0.01), OracleAdam(oracle_params, lr=0.01)
        for _ in range(25):
            grads = [rng.normal(size=p.shape) * rng.choice([1e-6, 1.0, 1e3]) for p in start]
            fast.step(grads)
            oracle.step(grads)
        for a, b in zip(fast_params + fast.m + fast.v, oracle_params + oracle.m + oracle.v):
            assert_bits_equal(a, b)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_adam_on_packed_buffers_matches_per_array(self, dtype):
        rng = np.random.default_rng(16)
        layers = _layer_stack(dtype)
        reference = [p.copy() for layer in layers for p in layer.params()]
        per_array = Adam(reference, lr=0.01)
        with cnn_module._packed(layers) as (params, grads):
            packed = Adam([params], lr=0.01)
            for _ in range(25):
                for layer in layers:
                    for g in layer.grads():
                        g[...] = rng.normal(size=g.shape) * rng.choice([1e-6, 1.0, 1e3])
                per_array.step([g.copy() for layer in layers for g in layer.grads()])
                packed.step([grads])
            assert all(np.shares_memory(p, params) for layer in layers for p in layer.params())
        after = [p for layer in layers for p in layer.params()]
        assert not any(np.shares_memory(p, params) for p in after)
        for a, b in zip(after, reference):
            assert_bits_equal(a, b)
        assert_bits_equal(packed.m[0], np.concatenate([m.ravel() for m in per_array.m]))
        assert_bits_equal(packed.v[0], np.concatenate([v.ravel() for v in per_array.v]))

    def test_cnn_fit_matches_oracle_kernels(self, monkeypatch):
        # Both sides fit in float32, the CnnClassifier's precision.
        rng = np.random.default_rng(10)
        X = rng.normal(0, 1, (300, 13))
        y = (X[:, :3].sum(axis=1) > 0).astype(int)
        spec = dict(n_features=13, conv_channels=(4, 8), hidden=24, epochs=3,
                    batch_size=64, random_state=4)
        fast = CnnClassifier(**spec).fit(X, y)
        monkeypatch.setattr(cnn_module, "Conv1D", OracleConv1D)
        monkeypatch.setattr(cnn_module, "MaxPool1D", OracleMaxPool1D)
        monkeypatch.setattr(cnn_module, "ReLU", OracleReLU)
        monkeypatch.setattr(cnn_module, "Dropout", OracleDropout)
        monkeypatch.setattr(cnn_module, "Adam", OracleAdam)
        oracle = CnnClassifier(**spec).fit(X, y)
        kinds = {type(layer) for layer in oracle.net.layers}
        assert {OracleConv1D, OracleMaxPool1D, OracleReLU, OracleDropout} <= kinds
        assert fast.net.history == oracle.net.history
        for a, b in zip(fast.net.params(), oracle.net.params()):
            assert a.dtype == np.float32
            assert_bits_equal(a, b)
        np.testing.assert_array_equal(fast.predict_proba(X), oracle.predict_proba(X))


def _as_dtype(layer, dtype):
    """``layer`` with its weights and gradient buffers cast to ``dtype``."""
    for name in ("W", "b", "dW", "db"):
        if hasattr(layer, name):
            setattr(layer, name, getattr(layer, name).astype(dtype))
    return layer


class TestConvWeightGradient:
    """The GEMM ``dW`` against the einsum it replaced.

    Both sum the same m = n * out_len products per entry, in different
    orders.  Each lies within gamma_m * sum|g * col| of the exact sum,
    gamma_m = m*u / (1 - m*u) with unit roundoff u = eps / 2, so the two
    lie within 2 * gamma_m * sum|g * col| of each other.
    """

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize(
        "kernel_size, channels, n, length", [(3, 1, 128, 19), (3, 16, 128, 9), (5, 4, 7, 11)]
    )
    def test_gemm_matches_einsum_within_rounding(self, dtype, kernel_size, channels, n, length):
        rng = np.random.default_rng(12)
        layer = _as_dtype(Conv1D(channels, 8, kernel_size, rng=rng), dtype)
        x = rng.normal(size=(n, channels, length)).astype(dtype)
        grad = rng.normal(size=layer.forward(x).shape).astype(dtype)
        layer.backward(grad)
        assert layer.dW.dtype == dtype
        einsum = np.einsum("nof,nok->fk", grad.transpose(0, 2, 1), layer._cols)
        m = n * grad.shape[2]
        u = np.finfo(dtype).eps / 2
        gamma = m * u / (1 - m * u)
        abs_g = np.abs(grad.transpose(0, 2, 1).reshape(m, -1)).astype(np.float64)
        abs_cols = np.abs(layer._cols.reshape(m, -1)).astype(np.float64)
        magnitude = (abs_g.T @ abs_cols).reshape(layer.W.shape)
        diff = np.abs(layer.dW.astype(np.float64) - einsum.reshape(layer.W.shape))
        assert (diff <= 2 * gamma * magnitude).all()


def _layer_stack(dtype):
    """One of every layer the CNN uses, weights in ``dtype``."""
    rng = np.random.default_rng(13)
    return [
        _as_dtype(Conv1D(1, 4, 3, rng=rng), dtype),
        ReLU(),
        MaxPool1D(2),
        _as_dtype(Conv1D(4, 6, 3, rng=rng, padding="valid"), dtype),
        ReLU(),
        MaxPool1D(2),
        Flatten(),
        _as_dtype(Dense(6 * 2, 10, rng=rng), dtype),
        ReLU(),
        Dropout(0.3, rng=rng),
        _as_dtype(Dense(10, 3, rng=rng), dtype),
    ]


class TestDtypeFlow:
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_every_layer_and_adam_keep_the_input_dtype(self, dtype):
        rng = np.random.default_rng(14)
        layers = _layer_stack(dtype)
        x = rng.normal(size=(16, 1, 13)).astype(dtype)
        for layer in layers:
            x = layer.forward(x, training=True)
            assert x.dtype == dtype, type(layer).__name__
        head = SoftmaxCrossEntropy()
        _, proba = head.forward(x, rng.integers(0, 3, 16))
        assert proba.dtype == dtype
        grad = head.backward()
        assert grad.dtype == dtype
        for layer in reversed(layers):
            grad = layer.backward(grad)
            assert grad.dtype == dtype, type(layer).__name__
        params = [p for layer in layers for p in layer.params()]
        grads = [g for layer in layers for g in layer.grads()]
        assert params and all(a.dtype == dtype for a in params + grads)
        optimizer = Adam(params)
        optimizer.step(grads)
        state = optimizer.m + optimizer.v + [b for pair in optimizer._buffers for b in pair]
        assert all(a.dtype == dtype for a in params + state)


class TestFloat32MatchesFloat64Oracles:
    """Float32 layers against the float64 oracles on the same inputs.

    Tolerance: 1e-4 relative and absolute.  Every value here sums at most
    99 products of O(1) terms, whose float32 rounding stays within about
    99 * 6e-8 * sum|terms| < 1e-4; an indexing or routing error is O(1).
    """

    TOL = dict(rtol=1e-4, atol=1e-4)

    @pytest.mark.parametrize("kernel_size", [2, 3, 5])
    @pytest.mark.parametrize("padding", ["same", "valid"])
    @pytest.mark.parametrize("channels", [1, 4])
    def test_conv1d(self, kernel_size, padding, channels):
        fast = _as_dtype(
            Conv1D(channels, 6, kernel_size, rng=np.random.default_rng(1), padding=padding),
            np.float32,
        )
        oracle = OracleConv1D(channels, 6, kernel_size, rng=np.random.default_rng(1), padding=padding)
        oracle.W[...] = fast.W  # the float32-rounded weights, held in float64
        rng = np.random.default_rng(2)
        x = rng.normal(size=(9, channels, 11)).astype(np.float32)
        out = fast.forward(x)
        assert out.dtype == np.float32
        np.testing.assert_allclose(out, oracle.forward(x.astype(np.float64)), **self.TOL)
        grad = rng.normal(size=out.shape).astype(np.float32)
        dx = fast.backward(grad)
        assert dx.dtype == np.float32
        np.testing.assert_allclose(dx, oracle.backward(grad.astype(np.float64)), **self.TOL)
        np.testing.assert_allclose(fast.dW, oracle.dW, **self.TOL)
        np.testing.assert_allclose(fast.db, oracle.db, **self.TOL)

    @pytest.mark.parametrize("pool_size", [2, 3])
    def test_maxpool(self, pool_size):
        rng = np.random.default_rng(3)
        v = rng.integers(-3, 3, size=(5, 4, 13)).astype(np.float32)
        x = v * (v > 0)
        fast, oracle = MaxPool1D(pool_size), OracleMaxPool1D(pool_size)
        out = fast.forward(x, training=True)
        np.testing.assert_array_equal(out, oracle.forward(x.astype(np.float64)))
        np.testing.assert_array_equal(fast._mask, oracle._mask)
        grad = rng.normal(size=out.shape).astype(np.float32)
        dx = fast.backward(grad)
        assert dx.dtype == np.float32
        np.testing.assert_array_equal(dx, oracle.backward(grad.astype(np.float64)))

    def test_adam(self):
        rng = np.random.default_rng(4)
        start = [rng.normal(size=(7, 3)).astype(np.float32), rng.normal(size=5).astype(np.float32)]
        fast_params = [p.copy() for p in start]
        oracle_params = [p.astype(np.float64) for p in start]
        fast, oracle = Adam(fast_params, lr=0.01), OracleAdam(oracle_params, lr=0.01)
        for _ in range(25):
            grads = [
                (rng.normal(size=p.shape) * rng.choice([1e-3, 1.0, 1e3])).astype(np.float32)
                for p in start
            ]
            fast.step(grads)
            oracle.step([g.astype(np.float64) for g in grads])
        for a, b in zip(fast_params, oracle_params):
            assert a.dtype == np.float32
            np.testing.assert_allclose(a, b, **self.TOL)


class TestGradientChecks:
    def test_dense_weight_gradients(self):
        rng = np.random.default_rng(1)
        layer = Dense(4, 3, rng)
        x = rng.normal(0, 1, (5, 4))
        target = rng.normal(0, 1, (5, 3))

        def loss():
            out = layer.forward(x)
            return 0.5 * np.sum((out - target) ** 2)

        out = layer.forward(x)
        layer.backward(out - target)
        for param, grad in zip(layer.params(), layer.grads()):
            numeric = numeric_gradient(loss, param)
            np.testing.assert_allclose(grad, numeric, atol=1e-5)

    def test_dense_input_gradient(self):
        rng = np.random.default_rng(2)
        layer = Dense(4, 3, rng)
        x = rng.normal(0, 1, (5, 4))
        target = rng.normal(0, 1, (5, 3))

        def loss():
            return 0.5 * np.sum((layer.forward(x) - target) ** 2)

        dx = layer.backward(layer.forward(x) - target)
        np.testing.assert_allclose(dx, numeric_gradient(loss, x), atol=1e-5)

    @pytest.mark.parametrize("padding", ["same", "valid"])
    def test_conv1d_gradients(self, padding):
        rng = np.random.default_rng(3)
        layer = Conv1D(2, 3, kernel_size=3, rng=rng, padding=padding)
        x = rng.normal(0, 1, (4, 2, 8))
        out_shape = layer.forward(x).shape
        target = rng.normal(0, 1, out_shape)

        def loss():
            return 0.5 * np.sum((layer.forward(x) - target) ** 2)

        dx = layer.backward(layer.forward(x) - target)
        np.testing.assert_allclose(dx, numeric_gradient(loss, x), atol=1e-5)
        for param, grad in zip(layer.params(), layer.grads()):
            np.testing.assert_allclose(grad, numeric_gradient(loss, param), atol=1e-5)

    def test_maxpool_gradient_routes_to_max(self):
        layer = MaxPool1D(2)
        x = np.array([[[1.0, 5.0, 2.0, 3.0]]])
        out = layer.forward(x, training=True)
        np.testing.assert_array_equal(out, [[[5.0, 3.0]]])
        dx = layer.backward(np.array([[[1.0, 2.0]]]))
        np.testing.assert_array_equal(dx, [[[0.0, 1.0, 0.0, 2.0]]])

    def test_maxpool_tie_routes_once(self):
        layer = MaxPool1D(2)
        x = np.array([[[3.0, 3.0]]])
        layer.forward(x, training=True)
        dx = layer.backward(np.array([[[1.0]]]))
        assert dx.sum() == 1.0

    def test_maxpool_tie_routes_to_first_max_of_three(self):
        layer = MaxPool1D(3)
        x = np.array([[[2.0, 5.0, 5.0, 4.0, 4.0, 4.0, 1.0]]])
        np.testing.assert_array_equal(layer.forward(x, training=True), [[[5.0, 4.0]]])
        dx = layer.backward(np.array([[[1.0, 2.0]]]))
        np.testing.assert_array_equal(dx, [[[0.0, 1.0, 0.0, 2.0, 0.0, 0.0, 0.0]]])

    def test_relu(self):
        layer = ReLU()
        x = np.array([[-1.0, 2.0]])
        np.testing.assert_array_equal(layer.forward(x, training=True), [[0.0, 2.0]])
        np.testing.assert_array_equal(layer.backward(np.ones((1, 2))), [[0.0, 1.0]])

    @pytest.mark.parametrize("make, grad_len", [(ReLU, 4), (lambda: MaxPool1D(2), 2)])
    def test_backward_after_inference_forward_raises(self, make, grad_len):
        layer = make()
        x = RNG.normal(0, 1, (2, 3, 4))
        grad = np.ones((2, 3, grad_len))
        name = type(layer).__name__
        with pytest.raises(RuntimeError, match=name):
            layer.backward(grad)
        layer.forward(x, training=True)
        layer.backward(grad)
        layer.forward(x)  # inference drops the training forward's mask
        with pytest.raises(RuntimeError, match=name):
            layer.backward(grad)

    def test_flatten_roundtrip(self):
        layer = Flatten()
        x = RNG.normal(0, 1, (3, 2, 4))
        out = layer.forward(x)
        assert out.shape == (3, 8)
        np.testing.assert_array_equal(layer.backward(out), x)

    def test_softmax_ce_gradient(self):
        head = SoftmaxCrossEntropy()
        rng = np.random.default_rng(4)
        logits = rng.normal(0, 1, (6, 3))
        y = rng.integers(0, 3, 6)

        def loss():
            value, _ = head.forward(logits, y)
            return value

        head.forward(logits, y)
        grad = head.backward()
        np.testing.assert_allclose(grad, numeric_gradient(loss, logits), atol=1e-6)

    def test_softmax_probabilities_normalized(self):
        head = SoftmaxCrossEntropy()
        _, proba = head.forward(np.array([[1000.0, 1000.0]]), np.array([0]))
        np.testing.assert_allclose(proba.sum(axis=1), 1.0)
        assert not np.isnan(proba).any()


class TestDropout:
    def test_identity_at_inference(self):
        layer = Dropout(0.5, np.random.default_rng(0))
        x = RNG.normal(0, 1, (4, 4))
        np.testing.assert_array_equal(layer.forward(x, training=False), x)

    def test_scales_kept_units_in_training(self):
        layer = Dropout(0.5, np.random.default_rng(0))
        x = np.ones((1, 10_000))
        out = layer.forward(x, training=True)
        # inverted dropout keeps the expectation
        assert out.mean() == pytest.approx(1.0, abs=0.05)
        assert (out == 0).sum() == pytest.approx(5000, abs=300)

    def test_invalid_rate(self):
        with pytest.raises(ValueError):
            Dropout(1.0, np.random.default_rng(0))


class TestAdam:
    def test_minimizes_quadratic(self):
        x = np.array([5.0])
        optimizer = Adam([x], lr=0.1)
        for _ in range(300):
            optimizer.step([2 * x])
        assert abs(x[0]) < 0.05


class TestCnnClassifier:
    def test_learns_separable_classes(self):
        rng = np.random.default_rng(5)
        X0 = rng.normal(0, 1, (300, 16))
        X1 = rng.normal(2, 1, (300, 16))
        X = np.vstack([X0, X1])
        y = np.array([0] * 300 + [1] * 300)
        cnn = CnnClassifier(n_features=16, epochs=6, random_state=0).fit(X, y)
        assert accuracy_score(y, cnn.predict(X)) > 0.95

    def test_deterministic_by_seed(self):
        rng = np.random.default_rng(6)
        X = rng.normal(0, 1, (100, 12))
        y = (X[:, 0] > 0).astype(int)
        a = CnnClassifier(n_features=12, epochs=2, random_state=3).fit(X, y)
        b = CnnClassifier(n_features=12, epochs=2, random_state=3).fit(X, y)
        np.testing.assert_allclose(a.predict_proba(X), b.predict_proba(X))

    def test_loss_decreases(self):
        rng = np.random.default_rng(7)
        X = rng.normal(0, 1, (400, 16))
        y = (X[:, :4].sum(axis=1) > 0).astype(int)
        cnn = CnnClassifier(n_features=16, epochs=8, random_state=0).fit(X, y)
        history = cnn.net.history
        assert history[-1] < history[0]

    def test_predict_before_fit_raises(self):
        with pytest.raises(NotFittedError):
            CnnClassifier(n_features=16).predict(np.zeros((2, 16)))

    def test_too_few_features_rejected(self):
        with pytest.raises(ValueError):
            CnnClassifier(n_features=3).fit(np.zeros((4, 3)), np.zeros(4, dtype=int))

    def test_n_parameters_counts_weights(self):
        cnn = CnnClassifier(n_features=16, conv_channels=(4, 8), hidden=16)
        # conv1: 4*1*3+4, conv2: 8*4*3+8, dense1: (4*8)*16+16, dense2: 16*2+2
        expected = (12 + 4) + (96 + 8) + (32 * 16 + 16) + (32 + 2)
        assert cnn.n_parameters() == expected

    def test_weight_roundtrip(self):
        rng = np.random.default_rng(8)
        X = rng.normal(0, 1, (50, 12))
        y = (X[:, 0] > 0).astype(int)
        cnn = CnnClassifier(n_features=12, epochs=1, random_state=0).fit(X, y)
        weights = cnn.net.get_weights()
        proba = cnn.predict_proba(X)
        cnn.net.set_weights([w * 0 for w in weights])
        assert not np.allclose(cnn.predict_proba(X), proba)
        cnn.net.set_weights(weights)
        np.testing.assert_allclose(cnn.predict_proba(X), proba)

    def test_fits_and_infers_in_float32(self, tmp_path):
        rng = np.random.default_rng(15)
        X = rng.normal(0, 1, (200, 19))
        y = (X[:, :3].sum(axis=1) > 0).astype(int)
        cnn = CnnClassifier(n_features=19, conv_channels=(4, 8), hidden=16, epochs=2).fit(X, y)
        arrays = cnn.net.params() + cnn.net.grads()
        assert len(arrays) == 16 and all(a.dtype == np.float32 for a in arrays)
        proba = cnn.predict_proba(X)
        assert proba.dtype == np.float32
        loaded = load_model_bundle(save_model_bundle(ModelBundle(model=cnn), tmp_path / "cnn")).model
        for a, b in zip(cnn.net.params() + cnn.net.grads(), loaded.net.params() + loaded.net.grads()):
            assert b.dtype == np.float32 and a.shape == b.shape
        for a, b in zip(cnn.net.params(), loaded.net.params()):
            assert_bits_equal(a, b)
        assert_bits_equal(loaded.predict_proba(X), proba)
        np.testing.assert_array_equal(loaded.predict(X), cnn.predict(X))

    def test_set_weights_validates_shapes(self):
        cnn = CnnClassifier(n_features=12, epochs=1, random_state=0)
        rng = np.random.default_rng(9)
        X = rng.normal(0, 1, (20, 12))
        cnn.fit(X, (X[:, 0] > 0).astype(int))
        with pytest.raises(ValueError):
            cnn.net.set_weights([np.zeros(3)])


class TestAutoencoder:
    def test_flags_out_of_profile_points(self):
        rng = np.random.default_rng(10)
        benign = rng.normal(0, 0.5, (500, 8))
        attack = rng.normal(6, 0.5, (200, 8))
        X = np.vstack([benign, attack])
        y = np.array([0] * 500 + [1] * 200)
        ae = AutoencoderDetector(n_features=8, epochs=30, random_state=0).fit(X, y)
        predictions = ae.predict(X)
        assert accuracy_score(y, predictions) > 0.9

    def test_benign_errors_below_threshold(self):
        rng = np.random.default_rng(11)
        benign = rng.normal(0, 0.5, (300, 6))
        y = np.zeros(300, dtype=int)
        ae = AutoencoderDetector(n_features=6, epochs=20, quantile=0.99).fit(benign, y)
        errors = ae.reconstruction_error(benign)
        assert (errors <= ae.threshold_).mean() >= 0.98

    def test_needs_benign_samples(self):
        with pytest.raises(ValueError):
            AutoencoderDetector(n_features=4).fit(
                np.zeros((5, 4)), np.ones(5, dtype=int)
            )

    def test_predict_before_fit_raises(self):
        with pytest.raises(NotFittedError):
            AutoencoderDetector(n_features=4).predict(np.zeros((2, 4)))
