"""Ablation — federated-learning NIDS emulation (paper §VI future work).

"our upcoming objective is to enhance DDoShield-IoT to emulate a
FL-based Network Intrusion Detection System (NIDS)".

Each device runs a local IDS agent sniffing the shared CSMA medium in
promiscuous mode during its own duty-cycle windows (IoT monitors sleep
most of the time, so each agent observes a different — non-IID — slice
of the traffic, often missing whole attack types).  A coordinator runs
FedAvg rounds over the agents' linear-SVM weights; the global model is
evaluated against the centralised model on a held-out slice.  The bench
times the federated rounds and regenerates the round-by-round accuracy
series.
"""

import numpy as np

from repro.features import FeatureExtractor
from repro.ml import LinearSVM, StandardScaler, accuracy_score
from repro.ml.federated import FederatedClient, FederatedCoordinator

from conftest import write_result

ROUNDS = 8


def run_federated(train_capture, detect_capture, scenario):
    extractor = FeatureExtractor(
        window_seconds=scenario.window_seconds,
        include_details=True,
        include_timestamp=False,
        stat_set="normalized",
    )
    X_all, y_all, window_ids = extractor.transform(train_capture.to_batch())
    scaler = StandardScaler().fit(X_all)
    # Hold out every 4th packet for global evaluation; clients train on
    # the rest of the traffic they observe during their duty cycles.
    holdout = np.zeros(len(X_all), dtype=bool)
    holdout[::4] = True
    X_eval = scaler.transform(X_all[holdout])
    y_eval = y_all[holdout]
    Xs = scaler.transform(X_all)
    y = y_all

    # Duty-cycle sharding: device i's monitor is awake during windows
    # with index ≡ i (mod n_devices) and sees everything on the shared
    # medium in those seconds only.
    n_devices = scenario.n_devices
    owner = window_ids % n_devices

    def train_fn(model, Xc, yc):
        # Local rounds continue from the synced global weights (FedAvg).
        model.partial_fit(Xc, yc, epochs=4)

    clients = []
    for i in range(n_devices):
        mask = (owner == i) & ~holdout
        if mask.sum() < 100 or len(np.unique(y[mask])) < 2:
            continue
        clients.append(
            FederatedClient(
                f"dev-{i}",
                LinearSVM(epochs=4, random_state=i),
                Xs[mask],
                y[mask],
                train_fn,
            )
        )
    assert len(clients) >= 3, "need several devices with two-class local data"

    def evaluate(weights):
        probe = LinearSVM()
        probe.set_weights(weights)
        return accuracy_score(y_eval, probe.predict(X_eval))

    base = LinearSVM(epochs=1, random_state=0).fit(Xs[~holdout][:200], y[~holdout][:200])
    coordinator = FederatedCoordinator(clients, base.get_weights())
    coordinator.run(ROUNDS, evaluate=evaluate)

    central = LinearSVM(epochs=12, random_state=0).fit(Xs[~holdout], y[~holdout])
    central_accuracy = accuracy_score(y_eval, central.predict(X_eval))
    return coordinator, central_accuracy, len(clients)


def test_ablation_federated(benchmark, train_capture, detect_capture, scenario):
    coordinator, central_accuracy, n_clients = benchmark.pedantic(
        run_federated,
        args=(train_capture, detect_capture, scenario),
        rounds=1,
        iterations=1,
    )
    lines = [
        f"Federated NIDS emulation: {n_clients} device clients, FedAvg x{ROUNDS}",
        f"{'round':>6}{'global accuracy':>17}",
    ]
    for i, accuracy in enumerate(coordinator.round_history, start=1):
        lines.append(f"{i:>6}{accuracy:>17.4f}")
    lines.append(f"centralised SVM accuracy: {central_accuracy:.4f}")
    write_result("ablation_federated", lines)

    assert coordinator.rounds_completed == ROUNDS
    final = coordinator.round_history[-1]
    # FedAvg approaches the centralised model on this task.
    assert final > 0.75
    assert final > central_accuracy - 0.15
    # and improves over the first round
    assert final >= coordinator.round_history[0] - 0.02
