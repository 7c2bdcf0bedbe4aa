"""Plug a custom detector into the testbed's real-time IDS.

DDoShield-IoT's purpose is evaluating *your* IDS: anything exposing
``fit(X, y)`` / ``predict(X)`` drops into the same pipeline the built-in
models use.  This example implements a tiny hand-rolled threshold
detector (one rule on destination-port entropy + SYN ratio) and compares
it against the built-in K-Means on the same live run.

    python examples/custom_ids.py
"""

import numpy as np

from repro.features import FeatureExtractor
from repro.ids import RealTimeIds
from repro.ml import KMeansDetector, StandardScaler, train_test_split
from repro.testbed import Scenario, Testbed


class ThresholdRuleDetector:
    """A two-rule expert system learned from label statistics.

    Flags a packet when its window shows flood structure: destination
    ports either hyper-concentrated (TCP floods) or hyper-dispersed
    (random-port UDP floods) relative to thresholds calibrated on the
    benign training windows.
    """

    def __init__(self) -> None:
        self.low_entropy_ = 0.0
        self.high_entropy_ = np.inf
        self.entropy_col: int | None = None
        self.top_fraction_col: int | None = None

    def calibrate(self, feature_names: tuple[str, ...]) -> None:
        self.entropy_col = feature_names.index("dport_entropy")
        self.top_fraction_col = feature_names.index("top_dport_fraction")

    def fit(self, X: np.ndarray, y: np.ndarray) -> "ThresholdRuleDetector":
        assert self.entropy_col is not None, "call calibrate(feature_names) first"
        benign_entropy = X[y == 0, self.entropy_col]
        self.low_entropy_ = float(np.quantile(benign_entropy, 0.02))
        self.high_entropy_ = float(np.quantile(benign_entropy, 0.98))
        return self

    def predict(self, X: np.ndarray) -> np.ndarray:
        entropy = X[:, self.entropy_col]
        top = X[:, self.top_fraction_col]
        flood_like = (entropy < self.low_entropy_) | (entropy > self.high_entropy_)
        concentrated = top > 0.95
        return (flood_like | concentrated).astype(int)


def main() -> None:
    scenario = Scenario(n_devices=4, seed=7)
    testbed = Testbed(scenario).build()
    testbed.infect_all()
    train = testbed.capture(40.0, scenario.training_schedule(40.0))
    live = testbed.capture(20.0, scenario.detection_schedule(20.0))

    extractor = FeatureExtractor(
        stat_set="normalized", include_details=True, include_timestamp=False
    )
    X, y, _ = extractor.transform(train.to_batch())
    X_train, _, y_train, _ = train_test_split(X, y, seed=3)

    # Custom rule-based detector: operates on raw (unscaled) features.
    custom = ThresholdRuleDetector()
    custom.calibrate(extractor.feature_names)
    custom.fit(X_train, y_train)
    custom_report = RealTimeIds(custom, "threshold-rules", extractor=extractor).process(
        live.to_batch()
    )

    # Built-in K-Means for comparison (scaled view).
    scaler = StandardScaler().fit(X_train)
    kmeans = KMeansDetector(n_clusters=40, random_state=3)
    kmeans.fit(scaler.transform(X_train), y_train)
    km_report = RealTimeIds(kmeans, "K-Means", extractor=extractor, scaler=scaler).process(
        live.to_batch()
    )

    print("real-time comparison on the same live capture:")
    for report in (custom_report, km_report):
        assert report.sustainability is not None
        print(f"  {report.model_name:<16} accuracy {100 * report.mean_accuracy:6.2f}%  "
              f"cpu {report.sustainability.cpu_percent:6.2f}%  "
              f"model {report.sustainability.model_size_kb:8.2f} Kb")


if __name__ == "__main__":
    main()
