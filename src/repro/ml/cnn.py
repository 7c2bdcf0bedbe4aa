"""The 1-D CNN intrusion detector (the paper's TensorFlow model).

Packet feature vectors are treated as 1-channel signals; two
conv/ReLU/pool blocks extract local co-occurrence patterns across the
feature dimension, and a dense head classifies benign vs malicious.
Training is mini-batch Adam over softmax cross-entropy, in float32 like
the paper's Keras model (Keras's default precision).
"""

from __future__ import annotations

from collections.abc import Iterator
from contextlib import contextmanager

import numpy as np

from repro.ml.layers import (
    Adam,
    Conv1D,
    Dense,
    Dropout,
    Flatten,
    Layer,
    MaxPool1D,
    ReLU,
    SoftmaxCrossEntropy,
)
from repro.ml.preprocessing import NotFittedError


@contextmanager
def _packed(layers: list[Layer]) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Every layer's ``W`` and ``b``, and its ``dW`` and ``db``, as views of
    two flat buffers, yielded so that Adam steps one array; on exit each
    layer owns separate arrays again.

    Adam is elementwise, so one step over the buffer rounds exactly as a
    step over each array.
    """
    slots = [(layer, name) for layer in layers if layer.params() for name in ("W", "b")]
    arrays = [getattr(layer, name) for layer, name in slots]
    if len({a.dtype for a in arrays}) > 1:
        raise ValueError("packing needs every parameter in one dtype")
    params = np.concatenate([a.ravel() for a in arrays]) if arrays else np.empty(0)
    grads = np.zeros_like(params)
    offset = 0
    for (layer, name), array in zip(slots, arrays):
        end = offset + array.size
        setattr(layer, name, params[offset:end].reshape(array.shape))
        setattr(layer, "d" + name, grads[offset:end].reshape(array.shape))
        offset = end
    try:
        yield params, grads
    finally:
        for layer, name in slots:
            for attr in (name, "d" + name):
                setattr(layer, attr, getattr(layer, attr).copy())


class Sequential:
    """A plain layer stack with Adam training and weight (de)serialisation."""

    def __init__(self, layers: list[Layer]) -> None:
        self.layers = layers
        self.loss = SoftmaxCrossEntropy()
        self.history: list[float] = []

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        for layer in self.layers:
            x = layer.forward(x, training=training)
        return x

    def backward(self, grad: np.ndarray) -> None:
        for layer in reversed(self.layers[1:]):
            grad = layer.backward(grad)
        # Nothing reads the first layer's input gradient.
        self.layers[0].backward_params(grad)

    def params(self) -> list[np.ndarray]:
        out: list[np.ndarray] = []
        for layer in self.layers:
            out.extend(layer.params())
        return out

    def grads(self) -> list[np.ndarray]:
        out: list[np.ndarray] = []
        for layer in self.layers:
            out.extend(layer.grads())
        return out

    def n_parameters(self) -> int:
        return sum(p.size for p in self.params())

    def get_weights(self) -> list[np.ndarray]:
        """Copies of all trainable arrays (for federated averaging)."""
        return [p.copy() for p in self.params()]

    def set_weights(self, weights: list[np.ndarray]) -> None:
        params = self.params()
        if len(weights) != len(params):
            raise ValueError(
                f"weight count mismatch: {len(weights)} given, {len(params)} expected"
            )
        for param, weight in zip(params, weights):
            if param.shape != weight.shape:
                raise ValueError(f"shape mismatch: {weight.shape} vs {param.shape}")
            param[...] = weight

    def fit(
        self,
        X: np.ndarray,
        y: np.ndarray,
        epochs: int = 5,
        batch_size: int = 128,
        lr: float = 1e-3,
        seed: int = 0,
        verbose: bool = False,
    ) -> "Sequential":
        rng = np.random.default_rng(seed)
        n = len(X)
        with _packed(self.layers) as (params, grads):
            optimizer = Adam([params], lr=lr)
            for epoch in range(epochs):
                order = rng.permutation(n)
                epoch_loss = 0.0
                batches = 0
                for start in range(0, n, batch_size):
                    idx = order[start : start + batch_size]
                    logits = self.forward(X[idx], training=True)
                    loss, _ = self.loss.forward(logits, y[idx])
                    self.backward(self.loss.backward())
                    optimizer.step([grads])
                    epoch_loss += loss
                    batches += 1
                mean_loss = epoch_loss / max(batches, 1)
                self.history.append(mean_loss)
                if verbose:
                    print(f"epoch {epoch + 1}/{epochs} loss={mean_loss:.4f}")
        return self

    def predict(self, X: np.ndarray, batch_size: int = 1024) -> np.ndarray:
        return np.argmax(self.predict_proba(X, batch_size=batch_size), axis=1)

    def predict_proba(self, X: np.ndarray, batch_size: int = 1024) -> np.ndarray:
        chunks = []
        for start in range(0, len(X), batch_size):
            logits = self.forward(X[start : start + batch_size], training=False)
            shifted = logits - logits.max(axis=1, keepdims=True)
            exp = np.exp(shifted)
            chunks.append(exp / exp.sum(axis=1, keepdims=True))
        return np.vstack(chunks)


class CnnClassifier:
    """The IDS-facing CNN: accepts flat feature matrices.

    Architecture (for ``n_features`` input columns)::

        reshape (n, 1, F)
        Conv1D(1 -> c1, k=3, same) -> ReLU -> MaxPool(2)
        Conv1D(c1 -> c2, k=3, same) -> ReLU -> MaxPool(2)
        Flatten -> Dense(hidden) -> ReLU -> Dropout -> Dense(2)
    """

    def __init__(
        self,
        n_features: int,
        conv_channels: tuple[int, int] = (16, 32),
        hidden: int = 128,
        dropout: float = 0.3,
        epochs: int = 6,
        batch_size: int = 128,
        lr: float = 1e-3,
        inference_batch: int = 64,
        random_state: int = 0,
    ) -> None:
        self.n_features = n_features
        self.conv_channels = conv_channels
        self.hidden = hidden
        self.dropout = dropout
        self.epochs = epochs
        self.batch_size = batch_size
        self.lr = lr
        # Small inference batches bound the im2col working set, and so
        # the busiest window's peak that Table II's memory column reports
        # — the memory-constrained-IoT deployment posture.
        self.inference_batch = inference_batch
        self.random_state = random_state
        self.net: Sequential | None = None

    def _build(self) -> Sequential:
        rng = np.random.default_rng(self.random_state)
        c1, c2 = self.conv_channels
        pooled = (self.n_features // 2) // 2
        if pooled < 1:
            raise ValueError(
                f"n_features={self.n_features} too small for two pooling stages"
            )
        net = Sequential(
            [
                Conv1D(1, c1, kernel_size=3, rng=rng, padding="same"),
                ReLU(),
                MaxPool1D(2),
                Conv1D(c1, c2, kernel_size=3, rng=rng, padding="same"),
                ReLU(),
                MaxPool1D(2),
                Flatten(),
                Dense(pooled * c2, self.hidden, rng=rng),
                ReLU(),
                Dropout(self.dropout, rng=rng),
                Dense(self.hidden, 2, rng=rng),
            ]
        )
        # The layers draw their weights in float64 from ``rng``; the net
        # keeps them, and so computes, in float32.
        for layer in net.layers:
            if isinstance(layer, (Conv1D, Dense)):
                layer.W = layer.W.astype(np.float32)
                layer.b = layer.b.astype(np.float32)
                layer.dW = np.zeros_like(layer.W)
                layer.db = np.zeros_like(layer.b)
        return net

    @staticmethod
    def _as_signal(X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=np.float32)
        return X.reshape(len(X), 1, X.shape[1])

    def fit(self, X: np.ndarray, y: np.ndarray) -> "CnnClassifier":
        self.net = self._build()
        self.net.fit(
            self._as_signal(X),
            np.asarray(y, dtype=int),
            epochs=self.epochs,
            batch_size=self.batch_size,
            lr=self.lr,
            seed=self.random_state,
        )
        return self

    def predict(self, X: np.ndarray) -> np.ndarray:
        if self.net is None:
            raise NotFittedError("CnnClassifier.predict before fit")
        return self.net.predict(self._as_signal(X), batch_size=self.inference_batch)

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        if self.net is None:
            raise NotFittedError("CnnClassifier.predict_proba before fit")
        return self.net.predict_proba(self._as_signal(X), batch_size=self.inference_batch)

    def n_parameters(self) -> int:
        net = self.net if self.net is not None else self._build()
        return net.n_parameters()
