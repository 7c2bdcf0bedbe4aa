"""Quickstart: build the testbed, infect the fleet, train an IDS, detect.

Runs the whole DDoShield-IoT loop in about a minute of wall time:

    python examples/quickstart.py
"""

from repro.features import FeatureExtractor
from repro.ids import RealTimeIds
from repro.ml import KMeansDetector, StandardScaler, train_test_split
from repro.testbed import Scenario, Testbed


def main() -> None:
    # 1. Assemble Figure 1: TServer, 4 Devs, Attacker, shared CSMA LAN.
    scenario = Scenario(n_devices=4, seed=42)
    testbed = Testbed(scenario).build()

    # 2. Run the Mirai lifecycle: scan -> crack -> load -> register.
    seconds = testbed.infect_all()
    print(f"botnet assembled: {testbed.bot_count} bots in {seconds:.1f} sim-seconds")

    # 3. Dataset-generation run: benign traffic + three flood bursts.
    train = testbed.capture(40.0, scenario.training_schedule(40.0))
    print(train.summary())

    # 4. Train a K-Means IDS on windowed features.
    extractor = FeatureExtractor(
        window_seconds=1.0,
        stat_set="normalized",
        include_details=True,
        include_timestamp=False,
    )
    X, y, _ = extractor.transform(train.to_batch())
    X_train, X_test, y_train, y_test = train_test_split(X, y, seed=1)
    scaler = StandardScaler().fit(X_train)
    model = KMeansDetector(n_clusters=40, random_state=1)
    model.fit(scaler.transform(X_train), y_train)
    from repro.ml import evaluate_classifier

    print("training:", evaluate_classifier(y_test, model.predict(scaler.transform(X_test))))

    # 5. Real-time detection on a fresh live run.
    live = testbed.capture(20.0, scenario.detection_schedule(20.0))
    ids = RealTimeIds(model, "K-Means", extractor=extractor, scaler=scaler)
    report = ids.process(live.to_batch())
    print(report)
    flagged = sum(1 for w in report.windows if w.n_malicious_predicted)
    print(f"alerts raised in {flagged} windows")


if __name__ == "__main__":
    main()
