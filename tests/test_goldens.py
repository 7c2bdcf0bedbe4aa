"""Committed goldens: the results the paper's tables derive from, pinned.

``tests/goldens.json`` holds, for tier-1-sized runs of the catalog's
``paper-baseline`` recipe:

* ``ExperimentResult.fingerprint()`` and the Table I rows of the RF and
  K-Means default specs (train 20 s, detect 10 s) at seeds 7 and 11;
* the same at perfbench's paper-e2e size (train 30 s, detect 15 s) at
  seeds 7 and 11: the part of that workload that no CNN verdict enters;
* the sha256 of a ``MitigationPlan(model="K-Means")`` run under
  ``chaos_fault_schedule(30.0)`` (train 20 s, detect 30 s, seed 7): the
  ``sort_keys=True`` JSON of its mitigation payload together with the
  sorted ``[time, kind, detail, value, targets, note]`` rows of every
  fault, supervisor and mitigation event of the defended capture.

The CNN is left out on purpose: its fit can depend on the BLAS build,
while everything pinned here is exact on any host.

Regenerate the file with ``PYTHONPATH=src python tests/test_goldens.py``
(run from the repo root).  A change that moves an entry commits the new
file with it and lists every entry's old → new value in CHANGES.md.
"""

import hashlib
import json
from pathlib import Path

import pytest

from repro.ids.defense import MitigationPlan
from repro.pipeline.stages import run_experiment_pipeline
from repro.testbed.catalog import get_scenario
from repro.testbed.experiment import default_model_specs

GOLDENS = Path(__file__).with_name("goldens.json")
SEEDS = (7, 11)


def paper_baseline(seed: int, train_duration: float = 20.0, detect_duration: float = 10.0) -> dict:
    specs = [spec for spec in default_model_specs(seed) if spec.name in ("RF", "K-Means")]
    result, _ = run_experiment_pipeline(
        get_scenario("paper-baseline", seed=seed),
        train_duration=train_duration,
        detect_duration=detect_duration,
        specs=specs,
    )
    return {
        "fingerprint": result.fingerprint(),
        "table1": [[name, accuracy] for name, accuracy in result.table1()],
    }


def live_mitigation(seed: int = 7) -> dict:
    scenario = get_scenario(
        "paper-baseline", seed=seed, mitigation_plan=MitigationPlan(model="K-Means")
    )
    specs = [spec for spec in default_model_specs(seed) if spec.name == "K-Means"]
    result, _ = run_experiment_pipeline(
        scenario,
        train_duration=20.0,
        detect_duration=30.0,
        specs=specs,
        fault_plan=scenario.chaos_fault_schedule(30.0),
        faults=True,
    )
    events = sorted(
        [e.time, e.kind, e.detail, e.value, list(e.targets), e.note] for e in result.events
    )
    blob = json.dumps({"mitigation": result.mitigation, "events": events}, sort_keys=True).encode()
    return {"mitigation_sha256": hashlib.sha256(blob).hexdigest()}


#: Entry name → how to recompute it.
ENTRIES = {
    **{f"paper-baseline/seed{seed}": (lambda s=seed: paper_baseline(s)) for seed in SEEDS},
    **{f"paper-e2e/seed{seed}": (lambda s=seed: paper_baseline(s, 30.0, 15.0)) for seed in SEEDS},
    "live-mitigation/seed7": live_mitigation,
}


def test_goldens_file_lists_every_entry():
    assert sorted(json.loads(GOLDENS.read_text())) == sorted(ENTRIES)


@pytest.mark.parametrize("name", sorted(ENTRIES))
def test_golden(name):
    # Floats compare exactly: JSON stores their shortest round-trip repr.
    assert ENTRIES[name]() == json.loads(GOLDENS.read_text())[name]


if __name__ == "__main__":
    payload = {name: compute() for name, compute in sorted(ENTRIES.items())}
    GOLDENS.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(f"wrote {GOLDENS} ({len(payload)} entries)")
