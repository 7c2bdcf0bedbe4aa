"""Federated-learning NIDS emulation (the paper's §VI roadmap).

Each device trains a local linear-SVM IDS on the traffic slice its
duty-cycled monitor observes; FedAvg rounds aggregate the weights into a
global model that approaches centralised accuracy without any device
sharing its raw traffic.

    python examples/federated_ids.py
"""

import numpy as np

from repro.features import FeatureExtractor
from repro.ml import LinearSVM, StandardScaler, accuracy_score
from repro.ml.federated import FederatedClient, FederatedCoordinator
from repro.testbed import Scenario, Testbed


def main() -> None:
    scenario = Scenario(n_devices=6, seed=55)
    testbed = Testbed(scenario).build()
    testbed.infect_all()
    capture = testbed.capture(50.0, scenario.training_schedule(50.0))
    print(capture.summary())

    extractor = FeatureExtractor(
        stat_set="normalized", include_details=True, include_timestamp=False
    )
    X, y, window_ids = extractor.transform(capture.to_batch())
    scaler = StandardScaler().fit(X)
    Xs = scaler.transform(X)

    holdout = np.zeros(len(X), dtype=bool)
    holdout[::4] = True

    def train_fn(model, Xc, yc):
        model.partial_fit(Xc, yc, epochs=4)

    clients = []
    owner = window_ids % scenario.n_devices
    for i in range(scenario.n_devices):
        mask = (owner == i) & ~holdout
        if mask.sum() < 100 or len(np.unique(y[mask])) < 2:
            continue
        clients.append(
            FederatedClient(f"dev-{i}", LinearSVM(epochs=4, random_state=i),
                            Xs[mask], y[mask], train_fn)
        )
        local_attack_share = y[mask].mean()
        print(f"  client dev-{i}: {mask.sum()} packets "
              f"({100 * local_attack_share:.0f}% malicious locally)")

    def evaluate(weights):
        probe = LinearSVM()
        probe.set_weights(weights)
        return accuracy_score(y[holdout], probe.predict(Xs[holdout]))

    base = LinearSVM(epochs=1, random_state=0).fit(Xs[~holdout][:200], y[~holdout][:200])
    coordinator = FederatedCoordinator(clients, base.get_weights())
    coordinator.run(6, evaluate=evaluate)

    print("\nFedAvg rounds (global accuracy on held-out traffic):")
    for i, accuracy in enumerate(coordinator.round_history, start=1):
        print(f"  round {i}: {accuracy:.4f}")

    central = LinearSVM(epochs=12, random_state=0).fit(Xs[~holdout], y[~holdout])
    print(f"centralised baseline: {accuracy_score(y[holdout], central.predict(Xs[holdout])):.4f}")


if __name__ == "__main__":
    main()
