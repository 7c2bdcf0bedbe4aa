"""Fault scenario: real-time detection under loss, partition, and a crash.

End-to-end robustness run:

1. assemble the testbed and run the Mirai infection lifecycle;
2. record a clean training capture and fit a K-Means IDS;
3. record the detection capture with the scenario's default fault plan
   armed — 5% Bernoulli loss across the first flood bursts, a link
   partition severing ``dev-0``, and a crash of the last Dev container
   with an ``on-failure`` restart policy;
4. print the run log — fault edges and the supervisor's crash/restart
   decisions, in recording order — and the detection report's
   healthy-vs-degraded accuracy breakdown.

    PYTHONPATH=src python examples/fault_scenario.py
"""

from repro.testbed import Scenario, default_model_specs, run_fault_experiment


def main() -> None:
    scenario = Scenario(n_devices=3, seed=11)
    specs = [s for s in default_model_specs(scenario.seed) if s.name == "K-Means"]
    result = run_fault_experiment(
        scenario,
        train_duration=40.0,
        detect_duration=20.0,
        specs=specs,
    )

    assert result.fault_plan is not None
    print("fault plan:")
    for spec in result.fault_plan.specs:
        print(f"  {spec.describe()}")

    print("\nrun log (fault and supervisor events):")
    for event in result.events:
        targets = ",".join(event.targets)
        print(f"  t={event.time:8.3f}  {event.kind:<22} {event.detail} "
              f"targets={targets} {event.note}".rstrip())

    report = result.detection[0]
    print(f"\n{report}")
    breakdown = report.fault_breakdown()
    print("breakdown:", {k: round(v, 3) for k, v in breakdown.items()})

    # The run must have exercised every supervision path.
    kinds = {event.kind for event in result.events}
    missing = {"fault.partition", "fault.heal", "supervisor.kill", "supervisor.restart"} - kinds
    assert not missing, f"run log lacks {sorted(missing)}"
    assert result.restarts, "expected the killed container to restart"
    assert report.n_degraded > 0, "expected degraded windows in the report"
    assert report.healthy_windows, "expected healthy windows in the report"
    victim = f"dev-{scenario.n_devices - 1}"
    assert result.restarts.get(victim, 0) >= 1
    print(f"\nok: {victim} restarted {result.restarts[victim]}x, "
          f"{report.n_degraded}/{report.n_windows} windows degraded")


if __name__ == "__main__":
    main()
