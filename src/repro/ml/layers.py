"""Neural-network layers with numpy forward/backward passes.

The building blocks for the CNN IDS (and the autoencoder): Conv1D with
im2col vectorisation, max pooling, dense layers, ReLU, dropout, a fused
softmax/cross-entropy head, and the Adam optimiser.  Backprop is exact
(verified by numeric gradient checks in the test suite).

Every layer computes in its input's dtype: float64 in, float64 out;
float32 in (the CNN, as Keras trains by default), float32 out.  Only
Dropout's uniform draws are float64 either way, so its mask stream does
not depend on the dtype.

ReLU, max pooling and dropout keep their backward masks as arrays of the
input's dtype, and only a training forward builds them: an inference
forward keeps no mask, and a ``backward`` after one raises.  Multiplying
by a 1.0/0.0 mask rounds exactly as multiplying by a boolean one, signed
zeros included, so the masks change no bits.
"""

from __future__ import annotations

import numpy as np


class Layer:
    """Base layer: ``forward`` caches what ``backward`` needs.

    Underscore-prefixed attributes are transient forward caches, and
    gradient buffers (``dW``/``db``) are re-derivable; both are excluded
    from pickling so saved models contain weights only.
    """

    _TRANSIENT = ("dW", "db")

    def __getstate__(self) -> dict:
        return {
            k: v
            for k, v in self.__dict__.items()
            if not k.startswith("_") and k not in self._TRANSIENT
        }

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        if "W" in state:
            self.dW = np.zeros_like(state["W"])
        if "b" in state:
            self.db = np.zeros_like(state["b"])

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        raise NotImplementedError

    def backward(self, grad: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def backward_params(self, grad: np.ndarray) -> None:
        """Fill the parameter gradients only: the backward of a first
        layer, whose input gradient nothing reads."""
        self.backward(grad)

    def params(self) -> list[np.ndarray]:
        """Trainable arrays (shared references, updated in place)."""
        return []

    def grads(self) -> list[np.ndarray]:
        """Gradients aligned with :meth:`params`."""
        return []


class Dense(Layer):
    """Fully connected layer: ``y = x W + b``."""

    def __init__(self, in_features: int, out_features: int, rng: np.random.Generator) -> None:
        scale = np.sqrt(2.0 / in_features)  # He init (ReLU nets)
        self.W = rng.normal(0.0, scale, size=(in_features, out_features))
        self.b = np.zeros(out_features)
        self.dW = np.zeros_like(self.W)
        self.db = np.zeros_like(self.b)
        self._x: np.ndarray | None = None

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        self._x = x
        return x @ self.W + self.b

    def backward_params(self, grad: np.ndarray) -> None:
        assert self._x is not None
        self.dW[...] = self._x.T @ grad
        self.db[...] = grad.sum(axis=0)

    def backward(self, grad: np.ndarray) -> np.ndarray:
        self.backward_params(grad)
        return grad @ self.W.T

    def params(self) -> list[np.ndarray]:
        return [self.W, self.b]

    def grads(self) -> list[np.ndarray]:
        return [self.dW, self.db]


class Conv1D(Layer):
    """1-D convolution over (batch, channels, length), stride 1.

    ``padding="same"`` keeps the length; ``"valid"`` shrinks it by
    ``kernel_size - 1``.  Implemented with im2col so the convolution is a
    single matrix multiply.
    """

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel_size: int,
        rng: np.random.Generator,
        padding: str = "same",
    ) -> None:
        if padding not in ("same", "valid"):
            raise ValueError(f"unknown padding {padding!r}")
        scale = np.sqrt(2.0 / (in_channels * kernel_size))
        self.W = rng.normal(0.0, scale, size=(out_channels, in_channels, kernel_size))
        self.b = np.zeros(out_channels)
        self.dW = np.zeros_like(self.W)
        self.db = np.zeros_like(self.b)
        self.padding = padding
        self.kernel_size = kernel_size
        self._cols: np.ndarray | None = None
        self._x_shape: tuple | None = None

    def _pad_amounts(self) -> tuple[int, int]:
        if self.padding == "valid":
            return 0, 0
        total = self.kernel_size - 1
        return total // 2, total - total // 2

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        n, c, length = x.shape
        left, right = self._pad_amounts()
        k = self.kernel_size
        out_len = length + left + right - k + 1
        # im2col, (n, out_len, c, k): tap j of output i reads input
        # i + j - left, and the taps that fall in the padding stay zero.
        cols = np.zeros((n, out_len, c, k), dtype=x.dtype)
        xt = x.transpose(0, 2, 1)  # (n, length, c)
        for j in range(k):
            lo, hi = max(0, left - j), min(out_len, length + left - j)
            cols[:, lo:hi, :, j] = xt[:, lo + j - left : hi + j - left]
        cols = cols.reshape(n, out_len, c * k)
        self._cols = cols
        self._x_shape = (n, c, length)
        w2 = self.W.reshape(self.W.shape[0], -1)  # (F, c*k)
        out = cols @ w2.T + self.b  # (n, out_len, F)
        return out.transpose(0, 2, 1)  # (n, F, out_len)

    def backward_params(self, grad: np.ndarray) -> None:
        assert self._cols is not None
        g = grad.transpose(0, 2, 1)  # (n, out_len, F)
        # The weight gradient sums over batch and position at once: one
        # GEMM over the flattened (n * out_len) axis.
        self.dW[...] = (
            g.reshape(-1, self.W.shape[0]).T @ self._cols.reshape(-1, self._cols.shape[2])
        ).reshape(self.W.shape)
        self.db[...] = g.sum(axis=(0, 1))

    def backward(self, grad: np.ndarray) -> np.ndarray:
        assert self._x_shape is not None
        self.backward_params(grad)
        n, c, length = self._x_shape
        g = grad.transpose(0, 2, 1)  # (n, out_len, F)
        out_len = g.shape[1]
        w2 = self.W.reshape(self.W.shape[0], -1)
        dcols = g @ w2  # (n, out_len, c*k)
        dcols = dcols.reshape(n, out_len, c, self.kernel_size).transpose(0, 2, 1, 3)
        left, right = self._pad_amounts()
        dxp = np.zeros((n, c, length + left + right), dtype=grad.dtype)
        # col2im: position i takes tap j of output i - j; accumulate the
        # taps from last to first, the order scatter-adding cols would use.
        for j in reversed(range(self.kernel_size)):
            dxp[:, :, j : j + out_len] += dcols[..., j]
        return dxp[:, :, left : left + length]

    def params(self) -> list[np.ndarray]:
        return [self.W, self.b]

    def grads(self) -> list[np.ndarray]:
        return [self.dW, self.db]


def _backward_mask(layer: Layer) -> np.ndarray:
    """The mask ``layer``'s last training forward kept for its backward."""
    mask = layer._mask
    if mask is None:
        raise RuntimeError(
            f"{type(layer).__name__}.backward needs a forward with training=True"
        )
    return mask


class MaxPool1D(Layer):
    """Non-overlapping max pooling along the length axis."""

    _mask: np.ndarray | None = None

    def __init__(self, pool_size: int = 2) -> None:
        if pool_size < 1:
            raise ValueError(f"pool_size must be >= 1, got {pool_size}")
        self.pool_size = pool_size
        self._x_shape: tuple | None = None

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        n, c, length = x.shape
        p = self.pool_size
        out_len = length // p
        trimmed = x[:, :, : out_len * p].reshape(n, c, out_len, p)
        # One sweep over the pool taps for the max and, in training, one
        # for the mask that routes each pool's gradient to its first
        # maximum only.
        out = trimmed[..., 0].copy()
        for tap in range(1, p):
            np.maximum(out, trimmed[..., tap], out=out)
        self._x_shape = (n, c, length)
        if not training:
            self._mask = None
            return out
        hits = np.empty(trimmed.shape, dtype=bool)
        taken = np.equal(trimmed[..., 0], out, out=hits[..., 0]).copy()
        for tap in range(1, p):
            hit = np.equal(trimmed[..., tap], out, out=hits[..., tap])
            hit &= ~taken
            taken |= hit
        self._mask = hits.astype(x.dtype)
        return out

    def backward(self, grad: np.ndarray) -> np.ndarray:
        mask = _backward_mask(self)
        n, c, length = self._x_shape
        p = self.pool_size
        out_len = grad.shape[2]
        dx = np.zeros((n, c, length), dtype=grad.dtype)
        expanded = mask * grad[..., None]
        dx[:, :, : out_len * p] = expanded.reshape(n, c, out_len * p)
        return dx


class ReLU(Layer):
    """``x * (x > 0)``, so a negative input gives -0.0."""

    _mask: np.ndarray | None = None

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        if not training:
            self._mask = None
            return x * (x > 0)
        self._mask = mask = (x > 0).astype(x.dtype)
        return x * mask

    def backward(self, grad: np.ndarray) -> np.ndarray:
        return grad * _backward_mask(self)


class Flatten(Layer):
    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        self._shape = x.shape
        return x.reshape(len(x), -1)

    def backward(self, grad: np.ndarray) -> np.ndarray:
        return grad.reshape(self._shape)


class Dropout(Layer):
    """Inverted dropout; identity at inference time."""

    def __init__(self, rate: float, rng: np.random.Generator) -> None:
        if not 0.0 <= rate < 1.0:
            raise ValueError(f"dropout rate must be in [0, 1), got {rate}")
        self.rate = rate
        self.rng = rng
        self._mask: np.ndarray | None = None

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        if not training or self.rate == 0.0:
            self._mask = None
            return x
        keep = 1.0 - self.rate
        # The float64 draw pins the mask stream.  Kept units scale by
        # 1 / keep rounded to x's dtype: the bits of
        # ((u < keep) / keep).astype(x.dtype), without a float64 mask.
        scale = x.dtype.type(1.0 / keep)
        self._mask = (self.rng.random(x.shape) < keep) * scale
        return x * self._mask

    def backward(self, grad: np.ndarray) -> np.ndarray:
        if self._mask is None:
            return grad
        return grad * self._mask


class SoftmaxCrossEntropy:
    """Fused softmax + cross-entropy head (numerically stable)."""

    def __getstate__(self) -> dict:
        return {k: v for k, v in self.__dict__.items() if not k.startswith("_")}

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)

    def forward(self, logits: np.ndarray, y: np.ndarray) -> tuple[float, np.ndarray]:
        """Returns (mean loss, probabilities)."""
        shifted = logits - logits.max(axis=1, keepdims=True)
        exp = np.exp(shifted)
        proba = exp / exp.sum(axis=1, keepdims=True)
        n = len(y)
        loss = -float(np.mean(np.log(proba[np.arange(n), y] + 1e-12)))
        self._proba = proba
        self._y = y
        return loss, proba

    def backward(self) -> np.ndarray:
        n = len(self._y)
        grad = self._proba.copy()
        grad[np.arange(n), self._y] -= 1.0
        return grad / n


class Adam:
    """Adam optimiser over a flat list of parameter arrays."""

    def __init__(
        self,
        params: list[np.ndarray],
        lr: float = 1e-3,
        beta1: float = 0.9,
        beta2: float = 0.999,
        eps: float = 1e-8,
    ) -> None:
        self.params = params
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.m = [np.zeros_like(p) for p in params]
        self.v = [np.zeros_like(p) for p in params]
        self.t = 0
        self._buffers = [(np.empty_like(p), np.empty_like(p)) for p in params]

    def step(self, grads: list[np.ndarray]) -> None:
        """One update in place, in the operation order of
        ``param -= lr * m_hat / (sqrt(v_hat) + eps)``, so it rounds the same."""
        self.t += 1
        m_scale = 1 - self.beta1**self.t
        v_scale = 1 - self.beta2**self.t
        for param, grad, m, v, (step, denom) in zip(
            self.params, grads, self.m, self.v, self._buffers
        ):
            m *= self.beta1
            m += np.multiply(grad, 1 - self.beta1, out=step)
            v *= self.beta2
            np.square(grad, out=step)
            step *= 1 - self.beta2
            v += step
            np.divide(v, v_scale, out=denom)
            np.sqrt(denom, out=denom)
            denom += self.eps
            np.divide(m, m_scale, out=step)
            step *= self.lr
            step /= denom
            param -= step
