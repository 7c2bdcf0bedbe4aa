"""Autoencoder anomaly detector (stand-in for the paper's §V VAE idea).

A dense bottleneck autoencoder trained on benign traffic only; packets
whose reconstruction error exceeds a benign-quantile threshold are
flagged malicious.  This is the classic anomaly-IDS shape the paper
lists among models to explore (VAE); a deterministic AE exercises the
same pipeline without the reparameterisation machinery.
"""

from __future__ import annotations

import numpy as np

from repro.ml.cnn import Sequential
from repro.ml.layers import Dense, Layer, ReLU
from repro.ml.preprocessing import NotFittedError


class _MseHead:
    """Mean-squared-error loss for reconstruction."""

    def forward(self, output: np.ndarray, target: np.ndarray) -> tuple[float, np.ndarray]:
        """Returns (mean loss, reconstruction), as the softmax head
        returns (mean loss, probabilities)."""
        self._diff = output - target
        return float(np.mean(self._diff**2)), output

    def backward(self) -> np.ndarray:
        return 2.0 * self._diff / self._diff.size


class AutoencoderDetector:
    """Benign-profile anomaly detector via reconstruction error."""

    def __init__(
        self,
        n_features: int,
        hidden: int = 16,
        bottleneck: int = 8,
        epochs: int = 10,
        batch_size: int = 128,
        lr: float = 1e-3,
        quantile: float = 0.995,
        random_state: int = 0,
    ) -> None:
        self.n_features = n_features
        self.hidden = hidden
        self.bottleneck = bottleneck
        self.epochs = epochs
        self.batch_size = batch_size
        self.lr = lr
        self.quantile = quantile
        self.random_state = random_state
        self.layers_: list[Layer] | None = None
        self.threshold_: float = np.inf

    def _build(self) -> list[Layer]:
        rng = np.random.default_rng(self.random_state)
        return [
            Dense(self.n_features, self.hidden, rng),
            ReLU(),
            Dense(self.hidden, self.bottleneck, rng),
            ReLU(),
            Dense(self.bottleneck, self.hidden, rng),
            ReLU(),
            Dense(self.hidden, self.n_features, rng),
        ]

    def fit(self, X: np.ndarray, y: np.ndarray) -> "AutoencoderDetector":
        """Train on the benign subset of (X, y); calibrate the threshold."""
        X = np.asarray(X, dtype=float)
        y = np.asarray(y, dtype=int)
        benign = X[y == 0]
        if len(benign) < 10:
            raise ValueError("need at least 10 benign samples to profile")
        net = Sequential(self._build())
        net.loss = _MseHead()
        net.fit(
            benign,
            benign,
            epochs=self.epochs,
            batch_size=self.batch_size,
            lr=self.lr,
            seed=self.random_state,
        )
        # Only the layers are kept: the saved model is their weights.
        self.layers_ = net.layers
        errors = self.reconstruction_error(benign)
        self.threshold_ = float(np.quantile(errors, self.quantile))
        return self

    def reconstruction_error(self, X: np.ndarray) -> np.ndarray:
        """Per-sample mean squared reconstruction error."""
        if self.layers_ is None:
            raise NotFittedError("AutoencoderDetector before fit")
        X = np.asarray(X, dtype=float)
        out = Sequential(self.layers_).forward(X)
        return np.mean((out - X) ** 2, axis=1)

    def predict(self, X: np.ndarray) -> np.ndarray:
        """1 = anomalous (malicious), 0 = fits the benign profile."""
        return (self.reconstruction_error(X) > self.threshold_).astype(int)
