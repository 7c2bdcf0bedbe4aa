"""Command-line interface: ``ddoshield <command>``.

Four commands cover the testbed's day-to-day uses:

* ``ddoshield experiment`` — the full §IV-D reproduction (train + live
  detection), printing Tables I/II;
* ``ddoshield faults`` — the same flow with the detection run impaired
  by a fault plan (loss, partition, container crash + restart), printing
  the healthy-vs-degraded accuracy breakdown and the fault/supervisor
  logs;
* ``ddoshield campaign`` — sweep a scenario × seed grid through the
  staged pipeline, sharded across ``--jobs`` workers with a shared
  content-addressed artifact cache (``--cache-dir``; repeated runs
  resume from cache), printing per-scenario Table I/II aggregates;
  crashed or timed-out runs are retried once and then recorded as
  failed instead of aborting the sweep;
* ``ddoshield mitigate`` — deploy the detect→mitigate→recover loop on
  the detection run (optionally under the ``--chaos`` fault plan) and
  print the mitigation event log, recovery metrics against an
  undefended baseline, and the victim-goodput timeline;
* ``ddoshield dataset`` — generate a labelled capture and export CSV
  (and optionally pcap);
* ``ddoshield inventory`` — build the Figure 1 topology, run the Mirai
  lifecycle, and print the live component inventory;
* ``ddoshield bench-features`` — time the columnar feature pipeline
  (offline transform and per-window latency) and write
  ``BENCH_features.json``;
* ``ddoshield bench-sim`` — time the event kernel's packets per second
  on a flood (or benign) scene across node counts and write
  ``BENCH_sim.json``;
* ``ddoshield profile`` — run a flood scene under the deterministic
  kernel profiler and print the per-subsystem attribution table (with
  optional collapsed-stack flamegraph and flight-recorder exports);
* ``ddoshield bench-compare`` — diff the newest entry of the
  append-only BENCH histories against a baseline under tolerance bands
  and exit non-zero on regression;
* ``ddoshield timeline`` — run one telemetry-enabled experiment and
  render the unified per-second run timeline (traffic bars, accuracy,
  attack/fault/queue-drop markers) as an ASCII chart, with optional
  CSV/JSON/Chrome-trace exports;
* ``ddoshield metrics`` — run one telemetry-enabled experiment and dump
  the metrics registry plus a per-span cost summary;
* ``ddoshield lint`` — run the determinism linter (repro.analysis) over
  the source tree against the committed baseline;
* ``ddoshield check-parity`` — run the event-commutativity analyzer
  (ORD002: same-instant handlers that race on shared state) over the
  data-plane subtrees against ``analysis/parity_baseline.json``.
"""

from __future__ import annotations

import argparse
from pathlib import Path


def _add_scenario_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--devices", type=int, default=6, help="number of Dev containers")
    parser.add_argument("--seed", type=int, default=7, help="scenario seed")


def cmd_experiment(args: argparse.Namespace) -> int:
    from repro.testbed import Scenario, run_full_experiment

    scenario = Scenario(n_devices=args.devices, seed=args.seed)
    result = run_full_experiment(
        scenario,
        train_duration=args.train_duration,
        detect_duration=args.detect_duration,
    )
    print(result.train_summary)
    print("\ntraining metrics (held-out split):")
    for name, accuracy, precision, recall, f1 in result.training_metrics():
        print(f"  {name}: acc={accuracy:.4f} p={precision:.4f} r={recall:.4f} f1={f1:.4f}")
    print("\nTable I — real-time accuracy (%):")
    for name, accuracy in result.table1():
        print(f"  {name}: {accuracy:.2f}")
    print("\nTable II — sustainability:")
    for name, cpu, mem, size in result.table2():
        print(f"  {name}: cpu={cpu:.2f}% mem={mem:.2f}Kb model={size:.2f}Kb")
    return 0


def cmd_faults(args: argparse.Namespace) -> int:
    from repro.testbed import Scenario, run_fault_experiment

    scenario = Scenario(n_devices=args.devices, seed=args.seed)
    result = run_fault_experiment(
        scenario,
        train_duration=args.train_duration,
        detect_duration=args.detect_duration,
    )
    assert result.fault_plan is not None
    print("fault plan:")
    for spec in result.fault_plan.specs:
        print(f"  {spec.describe()}")
    print("\nfault events:")
    for event in result.fault_events:
        print(f"  t={event.time:9.3f}  {event.kind.removeprefix('fault.'):<10} {event.detail} "
              f"targets={','.join(event.targets)} {event.note}")
    print("\nsupervisor events:")
    for event in result.events:
        if event.kind.startswith("supervisor."):
            action = event.kind.removeprefix("supervisor.")
            print(f"  t={event.time:9.3f}  {action:<8} {event.detail} {event.note}")
    if result.restarts:
        restarts = ", ".join(f"{k}×{v}" for k, v in sorted(result.restarts.items()))
        print(f"\nrestarts: {restarts}")
    print("\nreal-time accuracy under faults:")
    for name, availability, healthy, degraded in result.fault_table():
        print(f"  {name}: availability={availability:.2f} "
              f"healthy={healthy:.2f}% degraded={degraded:.2f}%")
    for report in result.detection:
        print(f"  {report}")
    return 0


def cmd_mitigate(args: argparse.Namespace) -> int:
    """Defended run (detect→mitigate→recover) vs an undefended baseline."""
    from dataclasses import replace

    from repro.ids.defense import MitigationPlan
    from repro.obs import timeline_from_result
    from repro.pipeline import run_experiment_pipeline
    from repro.testbed import Scenario

    plan = MitigationPlan(
        model=args.model,
        block_seconds=args.block_seconds,
        upstream_filter=not args.no_upstream,
        syn_cookies=not args.no_syn_cookies,
    )
    scenario = Scenario(n_devices=args.devices, seed=args.seed, mitigation_plan=plan)
    fault_plan = scenario.chaos_fault_schedule(args.detect_duration) if args.chaos else None

    def run(mode: str):
        bound = replace(scenario, mitigation_plan=replace(plan, mode=mode))
        result, _ = run_experiment_pipeline(
            scenario=bound,
            train_duration=args.train_duration,
            detect_duration=args.detect_duration,
            fault_plan=fault_plan,
            faults=args.chaos,
        )
        return result

    defended = run("mitigate")
    baseline = None if args.no_baseline else run("monitor")

    assert defended.mitigation is not None
    summary = defended.mitigation["summary"]
    if args.chaos:
        print("chaos fault plan (aimed at the defense):")
        for spec in fault_plan.specs:
            print(f"  {spec.describe()}")
        print()
    print("mitigation events:")
    for event in defended.events:
        if event.kind.startswith("mitigation."):
            detail = f" {event.detail}" if event.detail else ""
            print(f"  t={event.time:9.3f}  {event.kind.removeprefix('mitigation.'):<16}{detail}")
    print(
        f"\ndefense summary: {summary['blocks_issued']} block(s), "
        f"{summary['unblocks']} unblock(s), {summary['fallback_entries']} fallback(s); "
        f"dropped blocklist={summary['dropped_by_blocklist']} "
        f"rate-limit={summary['dropped_by_rate_limit']} "
        f"upstream={summary['dropped_upstream']}; "
        f"SYN cookies sent={summary['syn_cookies_sent']} "
        f"rejected={summary['syn_cookies_rejected']}"
    )
    print("\nrecovery — defended:")
    for metric, value in defended.recovery_table():
        print(f"  {metric}: {value}")
    if baseline is not None:
        print("\nrecovery — undefended baseline (monitor mode):")
        for metric, value in baseline.recovery_table():
            print(f"  {metric}: {value}")
    print("\ndefended victim goodput (bytes/s):")
    timeline = timeline_from_result(defended, bucket_seconds=args.bucket_seconds)
    print(timeline.render_ascii(traffic="goodput", width=args.width))
    if args.csv_dir:
        out = Path(args.csv_dir)
        out.mkdir(parents=True, exist_ok=True)
        (out / "defended.csv").write_text(timeline.to_csv())
        print(f"\nwrote {out / 'defended.csv'}")
        if baseline is not None:
            base_tl = timeline_from_result(baseline, bucket_seconds=args.bucket_seconds)
            (out / "undefended.csv").write_text(base_tl.to_csv())
            print(f"wrote {out / 'undefended.csv'}")
    retained = defended.recovery_metrics().goodput_retained_pct
    if args.min_goodput_retained is not None and retained < args.min_goodput_retained:
        print(
            f"\ndefended goodput retained {retained:.1f}% below required "
            f"{args.min_goodput_retained:.1f}%"
        )
        return 1
    return 0


def cmd_campaign(args: argparse.Namespace) -> int:
    import json

    from repro.pipeline import CampaignSpec, run_campaign
    from repro.testbed import Scenario

    if args.catalog:
        from repro.testbed.catalog import get_scenario

        names = [part.strip() for part in args.catalog.split(",") if part.strip()]
        if not names:
            raise SystemExit(f"--catalog: expected scenario names, got {args.catalog!r}")
        overrides = (
            {"n_devices": args.catalog_devices} if args.catalog_devices else {}
        )
        try:
            scenarios = tuple(get_scenario(name, **overrides) for name in names)
        except KeyError as exc:
            raise SystemExit(str(exc.args[0]))
    elif args.scenarios:
        payload = json.loads(Path(args.scenarios).read_text())
        if not isinstance(payload, list) or not payload:
            raise SystemExit(f"{args.scenarios}: expected a non-empty JSON list of scenarios")
        scenarios = tuple(Scenario.from_dict(entry) for entry in payload)
    else:
        scenarios = tuple(
            Scenario(n_devices=devices) for devices in _parse_int_list(args.devices)
        )
    spec = CampaignSpec(
        scenarios=scenarios,
        seeds=tuple(_parse_int_list(args.seeds)),
        train_duration=args.train_duration,
        detect_duration=args.detect_duration,
        faults=args.faults,
    )
    report = run_campaign(
        spec,
        jobs=args.jobs,
        cache_dir=args.cache_dir,
        max_retries=args.max_retries,
        run_timeout=args.run_timeout,
    )
    print(report.format_text())
    if args.out:
        Path(args.out).write_text(report.to_json())
        print(f"\nwrote {args.out}")
    if args.min_cache_hit_rate is not None and report.cache_hit_rate < args.min_cache_hit_rate:
        print(
            f"cache hit rate {report.cache_hit_rate:.2f} below required "
            f"{args.min_cache_hit_rate:.2f}"
        )
        return 1
    if report.runs_failed and not args.allow_failures:
        print(f"{report.runs_failed} run(s) failed")
        return 1
    return 0


def _parse_int_list(text: str) -> list[int]:
    try:
        values = [int(part) for part in text.split(",") if part.strip()]
    except ValueError:
        raise SystemExit(f"expected a comma-separated integer list, got {text!r}")
    if not values:
        raise SystemExit(f"expected a non-empty integer list, got {text!r}")
    return values


def cmd_dataset(args: argparse.Namespace) -> int:
    from repro.testbed import Scenario, Testbed

    scenario = Scenario(n_devices=args.devices, seed=args.seed)
    testbed = Testbed(scenario).build()
    testbed.infect_all()
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    pcap_path = str(out / "capture.pcap") if args.pcap else None
    capture = testbed.capture(
        args.duration, scenario.training_schedule(args.duration), pcap_path=pcap_path
    )
    capture.to_csv(out / "capture.csv")
    print(capture.summary())
    print(f"wrote {out / 'capture.csv'}")
    if pcap_path:
        print(f"wrote {pcap_path}")
    return 0


def cmd_inventory(args: argparse.Namespace) -> int:
    from repro.testbed import Scenario, Testbed

    scenario = Scenario(n_devices=args.devices, seed=args.seed)
    testbed = Testbed(scenario).build()
    seconds = testbed.infect_all()
    print(f"infection completed in {seconds:.1f} sim-seconds; "
          f"{testbed.bot_count} bots registered")
    for container, processes in sorted(testbed.component_inventory().items()):
        print(f"  {container}: {', '.join(sorted(processes))}")
    return 0


def cmd_bench_features(args: argparse.Namespace) -> int:
    from repro.features.bench import (
        format_benchmark,
        merge_benchmark,
        run_feature_benchmark,
    )

    result = run_feature_benchmark(
        n_packets=args.packets,
        duration=args.duration,
        window_seconds=args.window_seconds,
        seed=args.seed,
        repeats=args.repeats,
    )
    print(format_benchmark(result))
    if args.out:
        print(f"wrote {merge_benchmark(result, args.out, 'features')}")
    return 0


def cmd_bench_sim(args: argparse.Namespace) -> int:
    from repro.sim.bench import (
        format_benchmark,
        format_benign_benchmark,
        merge_benchmark,
        run_benign_benchmark,
        run_sim_benchmark,
    )

    if args.benign:
        result = run_benign_benchmark(
            node_counts=tuple(args.nodes),
            duration=args.benign_duration,
            seed=args.seed,
            mean_session_interval=args.mean_session_interval,
            mean_dns_interval=args.mean_dns_interval,
            devices_per_segment=args.segment_size,
        )
        print(format_benign_benchmark(result))
        if args.out:
            print(f"wrote {merge_benchmark(result, args.out, 'benign')}")
        return 0
    result = run_sim_benchmark(
        node_counts=tuple(args.nodes),
        pps_per_node=args.pps,
        duration=args.duration,
        seed=args.seed,
        attack=args.attack,
        window_seconds=args.window_seconds,
        devices_per_segment=args.segment_size,
    )
    print(format_benchmark(result))
    if args.out:
        print(f"wrote {merge_benchmark(result, args.out, 'flood')}")
    return 0


def cmd_profile(args: argparse.Namespace) -> int:
    from repro import obs
    from repro.sim.bench import build_and_run_flood

    ctx = obs.ObsContext.make(enabled=True, profile=True)
    with obs.scope(ctx):
        run = build_and_run_flood(
            n_nodes=args.nodes,
            pps_per_node=args.pps,
            duration=args.duration,
            seed=args.seed,
            attack=args.attack,
            devices_per_segment=args.segment_size,
        )
    profiler = ctx.profiler
    include_wall = not args.no_wall
    print(
        f"profiled {args.attack} flood: {args.nodes} node(s), "
        f"{run['events']} event(s), {run['packets_sent']} packet(s) sent, "
        f"{run['wall_seconds'] * 1000.0:.1f} ms wall"
    )
    print(profiler.format_table(top=args.top, include_wall=include_wall))
    if args.flamegraph:
        Path(args.flamegraph).write_text(
            profiler.collapsed_stacks(include_wall=include_wall)
        )
        print(f"wrote {args.flamegraph}")
    if args.flight:
        import json

        Path(args.flight).write_text(
            json.dumps(ctx.flight.dump(registry=ctx.registry), indent=2) + "\n"
        )
        print(f"wrote {args.flight}")
    if args.json:
        import json

        Path(args.json).write_text(
            json.dumps(profiler.snapshot(include_wall=include_wall), indent=2) + "\n"
        )
        print(f"wrote {args.json}")
    if args.min_attribution is not None:
        fraction = profiler.attribution()["named_fraction"]
        if fraction < args.min_attribution:
            print(
                f"named-subsystem attribution {fraction:.1%} below required "
                f"{args.min_attribution:.1%}"
            )
            return 1
    return 0


def cmd_bench_compare(args: argparse.Namespace) -> int:
    from repro.obs.regress import compare_file

    exit_code = 0
    for path in args.paths:
        comparisons = compare_file(
            path,
            sections=args.section or None,
            tolerance=args.tolerance,
            baseline=args.baseline,
        )
        if not comparisons:
            print(f"{path}: no benchmark sections recorded")
            continue
        print(f"{path}:")
        for comparison in comparisons:
            print(comparison.format_text())
            if comparison.regressions and args.assert_no_regression:
                exit_code = 1
            if comparison.baseline_sha is None and args.require_baseline:
                print(f"  => baseline required but none found for [{comparison.section}]")
                exit_code = 1
    return exit_code


def _run_observed(args: argparse.Namespace):
    """Run one experiment inside an enabled telemetry scope.

    Returns ``(result, octx)`` — the scope's live context outlives the
    run, so commands can render from the real registry/tracer objects
    rather than the serialized ``result.telemetry`` snapshot.
    """
    from repro import obs
    from repro.testbed import Scenario, run_fault_experiment, run_full_experiment

    scenario = Scenario(n_devices=args.devices, seed=args.seed)
    with obs.scope() as octx:
        if args.faults:
            result = run_fault_experiment(
                scenario,
                train_duration=args.train_duration,
                detect_duration=args.detect_duration,
            )
        else:
            result = run_full_experiment(
                scenario,
                train_duration=args.train_duration,
                detect_duration=args.detect_duration,
            )
    return result, octx


def _write_chrome_trace(octx, path: str) -> None:
    import json

    from repro.obs import chrome_trace

    Path(path).write_text(json.dumps(chrome_trace(octx.tracer.spans), indent=2))
    print(f"wrote {path}")


def cmd_timeline(args: argparse.Namespace) -> int:
    from repro.obs import timeline_from_result

    result, octx = _run_observed(args)
    timeline = timeline_from_result(result, bucket_seconds=args.bucket_seconds)
    print(timeline.render_ascii(width=args.width))
    if args.csv:
        Path(args.csv).write_text(timeline.to_csv())
        print(f"wrote {args.csv}")
    if args.json:
        Path(args.json).write_text(timeline.to_json())
        print(f"wrote {args.json}")
    if args.trace:
        _write_chrome_trace(octx, args.trace)
    return 0


def cmd_metrics(args: argparse.Namespace) -> int:
    _, octx = _run_observed(args)
    print(octx.registry.format_text(include_wall=not args.no_wall))
    spans: dict[str, list] = {}
    for span in octx.tracer.spans:
        spans.setdefault(span.name, []).append(span)
    if spans:
        print("\nspans:")
        for name in sorted(spans):
            group = spans[name]
            sim_total = sum(s.sim_duration for s in group)
            line = f"  {name}: n={len(group)} sim={sim_total:.3f}s"
            if not args.no_wall:
                wall_total = 1000.0 * sum(s.wall_seconds for s in group)
                line += f" wall={wall_total:.1f}ms"
            print(line)
    if args.trace:
        _write_chrome_trace(octx, args.trace)
    return 0


def _report_findings(args: argparse.Namespace, findings, suppressed, files_checked) -> int:
    """Shared baseline/format/exit flow for ``lint`` and ``check-parity``."""
    from repro.analysis import Baseline, diff_findings, format_json, format_text

    baseline_path = Path(args.root or ".") / args.baseline
    if args.update_baseline:
        previous = Baseline.load(baseline_path) if baseline_path.exists() else Baseline()
        justifications = {
            key: entry.get("justification", "")
            for key, entry in previous.entries.items()
        }
        updated = Baseline.from_findings(findings, justifications=justifications)
        updated.save(baseline_path)
        print(f"wrote {baseline_path} ({len(updated)} accepted finding(s))")
        return 0
    baseline = Baseline() if args.no_baseline else Baseline.load(baseline_path)
    report = diff_findings(
        findings, baseline, suppressed=suppressed, files_checked=files_checked
    )
    print(format_json(report) if args.format == "json" else format_text(report))
    return 0 if report.ok else 1


def cmd_lint(args: argparse.Namespace) -> int:
    from repro.analysis import lint_paths

    findings, suppressed, files_checked = lint_paths(args.paths, root=args.root)
    return _report_findings(args, findings, suppressed, files_checked)


def cmd_check_parity(args: argparse.Namespace) -> int:
    from repro.analysis import check_parity_paths

    findings, suppressed, files_checked = check_parity_paths(
        args.paths or None, root=args.root
    )
    return _report_findings(args, findings, suppressed, files_checked)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ddoshield",
        description="DDoShield-IoT reproduction: IoT botnet DDoS testbed + IDS evaluation",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    experiment = sub.add_parser("experiment", help="run the full paper reproduction")
    _add_scenario_args(experiment)
    experiment.add_argument("--train-duration", type=float, default=60.0)
    experiment.add_argument("--detect-duration", type=float, default=30.0)
    experiment.set_defaults(fn=cmd_experiment)

    faults = sub.add_parser(
        "faults", help="run the reproduction with an impaired detection phase"
    )
    _add_scenario_args(faults)
    faults.add_argument("--train-duration", type=float, default=60.0)
    faults.add_argument("--detect-duration", type=float, default=30.0)
    faults.set_defaults(fn=cmd_faults)

    campaign = sub.add_parser(
        "campaign",
        help="sweep a scenario × seed grid with caching and parallel workers",
    )
    campaign.add_argument(
        "--devices", default="6",
        help="comma-separated device counts, one scenario per entry (default: 6)",
    )
    campaign.add_argument(
        "--seeds", default="7",
        help="comma-separated seeds applied to every scenario (default: 7)",
    )
    campaign.add_argument(
        "--scenarios", default=None,
        help="JSON file with a list of Scenario.to_dict() entries (overrides --devices)",
    )
    campaign.add_argument(
        "--catalog", default=None,
        help="comma-separated named scenarios from the testbed catalog "
             "(e.g. urban-smoke,urban-4060; overrides --devices/--scenarios)",
    )
    campaign.add_argument(
        "--catalog-devices", type=int, default=None,
        help="override n_devices on every --catalog scenario (CI-sized cuts "
             "of the urban recipes)",
    )
    campaign.add_argument("--train-duration", type=float, default=60.0)
    campaign.add_argument("--detect-duration", type=float, default=30.0)
    campaign.add_argument("--faults", action="store_true",
                          help="impair every detection run with the scenario's fault plan")
    campaign.add_argument("--jobs", type=int, default=1,
                          help="parallel worker processes (default: 1)")
    campaign.add_argument("--cache-dir", default=".ddoshield-cache",
                          help="content-addressed artifact cache shared by all runs")
    campaign.add_argument("--out", default=None, help="also write the report as JSON")
    campaign.add_argument(
        "--min-cache-hit-rate", type=float, default=None,
        help="exit non-zero if the cache hit rate falls below this fraction "
             "(CI guard for resume-from-cache)",
    )
    campaign.add_argument(
        "--max-retries", type=int, default=1,
        help="retries per crashed/timed-out run before recording it failed (default: 1)",
    )
    campaign.add_argument(
        "--run-timeout", type=float, default=None,
        help="wall-clock seconds per run attempt before it counts as crashed",
    )
    campaign.add_argument(
        "--allow-failures", action="store_true",
        help="exit zero even when some runs are recorded as failed",
    )
    campaign.set_defaults(fn=cmd_campaign)

    mitigate = sub.add_parser(
        "mitigate",
        help="run the detect→mitigate→recover loop and compare against an "
             "undefended baseline",
    )
    _add_scenario_args(mitigate)
    mitigate.add_argument("--train-duration", type=float, default=60.0)
    mitigate.add_argument("--detect-duration", type=float, default=30.0)
    mitigate.add_argument("--model", default="K-Means",
                          help="IDS model driving mitigation (default: K-Means)")
    mitigate.add_argument("--block-seconds", type=float, default=20.0,
                          help="blocklist TTL in sim-seconds (default: 20)")
    mitigate.add_argument("--no-upstream", action="store_true",
                          help="disable the LAN-tier upstream filter escalation")
    mitigate.add_argument("--no-syn-cookies", action="store_true",
                          help="disable SYN-cookie handshake hardening")
    mitigate.add_argument("--chaos", action="store_true",
                          help="arm the chaos fault plan (IDS kill + link flaps) "
                               "against the defended run")
    mitigate.add_argument("--no-baseline", action="store_true",
                          help="skip the undefended monitor-mode baseline run")
    mitigate.add_argument("--bucket-seconds", type=float, default=1.0)
    mitigate.add_argument("--width", type=int, default=40,
                          help="goodput bar width in characters (default: 40)")
    mitigate.add_argument("--csv-dir", default=None,
                          help="write defended/undefended timeline CSVs here")
    mitigate.add_argument(
        "--min-goodput-retained", type=float, default=None,
        help="exit non-zero if the defended run retains less goodput (%%) "
             "under attack (CI recovery floor)",
    )
    mitigate.set_defaults(fn=cmd_mitigate)

    dataset = sub.add_parser("dataset", help="generate and export a labelled capture")
    _add_scenario_args(dataset)
    dataset.add_argument("--duration", type=float, default=60.0)
    dataset.add_argument("--out", default="dataset_out")
    dataset.add_argument("--pcap", action="store_true", help="also write a pcap file")
    dataset.set_defaults(fn=cmd_dataset)

    inventory = sub.add_parser("inventory", help="build the topology and list components")
    _add_scenario_args(inventory)
    inventory.set_defaults(fn=cmd_inventory)

    bench = sub.add_parser(
        "bench-features", help="benchmark the vectorized feature pipeline"
    )
    bench.add_argument("--packets", type=int, default=100_000)
    bench.add_argument("--duration", type=float, default=100.0)
    bench.add_argument("--window-seconds", type=float, default=1.0)
    bench.add_argument("--seed", type=int, default=7)
    bench.add_argument("--repeats", type=int, default=3)
    bench.add_argument("--out", default="BENCH_features.json")
    bench.set_defaults(fn=cmd_bench_features)

    bench_sim = sub.add_parser(
        "bench-sim",
        help="benchmark the event kernel's packets per second across node counts",
    )
    bench_sim.add_argument("--nodes", type=int, nargs="+", default=[16, 64, 256, 1024])
    bench_sim.add_argument("--pps", type=float, default=20000.0)
    bench_sim.add_argument("--duration", type=float, default=0.05)
    bench_sim.add_argument("--window-seconds", type=float, default=0.01)
    bench_sim.add_argument("--seed", type=int, default=7)
    bench_sim.add_argument(
        "--attack", default="syn", choices=["syn", "udp", "ack", "http"]
    )
    bench_sim.add_argument("--segment-size", type=int, default=64,
                           help="devices per CSMA segment (0 = flat LAN)")
    bench_sim.add_argument("--out", default="BENCH_sim.json")
    bench_sim.add_argument(
        "--benign", action="store_true",
        help="benchmark the benign plane (HTTP/FTP/RTMP/DNS mix, no floods) "
             "instead of the flood path; writes the 'benign' section of --out",
    )
    bench_sim.add_argument(
        "--benign-duration", type=float, default=8.0,
        help="sim-seconds per benign run (the flood --duration is far too "
             "short for session-scale traffic; default: 8)",
    )
    bench_sim.add_argument("--mean-session-interval", type=float, default=6.0,
                           help="benign: mean seconds between device sessions")
    bench_sim.add_argument("--mean-dns-interval", type=float, default=2.0,
                           help="benign: mean seconds between DNS lookups")
    bench_sim.set_defaults(fn=cmd_bench_sim)

    profile = sub.add_parser(
        "profile",
        help="profile the event kernel on a flood scene and attribute wall "
             "time per subsystem",
    )
    profile.add_argument("--nodes", type=int, default=64, help="attacker count")
    profile.add_argument("--pps", type=float, default=20000.0)
    profile.add_argument("--duration", type=float, default=0.05)
    profile.add_argument("--seed", type=int, default=7)
    profile.add_argument(
        "--attack", default="syn", choices=["syn", "udp", "ack", "http"]
    )
    profile.add_argument("--segment-size", type=int, default=64,
                         help="devices per CSMA segment (0 = flat LAN)")
    profile.add_argument("--top", type=int, default=15,
                         help="callsite rows in the table (default: 15)")
    profile.add_argument(
        "--no-wall", action="store_true",
        help="event counts only — byte-identical output for a seed",
    )
    profile.add_argument("--flamegraph", default=None,
                         help="write a collapsed-stack file (flamegraph.pl input)")
    profile.add_argument("--flight", default=None,
                         help="write the run's flight-recorder dump as JSON")
    profile.add_argument("--json", default=None,
                         help="write the full profiler snapshot as JSON")
    profile.add_argument(
        "--min-attribution", type=float, default=None,
        help="exit non-zero if the named-subsystem share of measured wall "
             "time falls below this fraction (CI gate, e.g. 0.95)",
    )
    profile.set_defaults(fn=cmd_profile)

    bench_compare = sub.add_parser(
        "bench-compare",
        help="diff the newest bench-history entry against a baseline and "
             "flag regressions",
    )
    bench_compare.add_argument(
        "paths", nargs="*", default=["BENCH_sim.json", "BENCH_features.json"],
        help="bench history files (default: BENCH_sim.json BENCH_features.json)",
    )
    bench_compare.add_argument(
        "--section", action="append", default=[],
        help="restrict to a section (flood/benign/features); repeatable",
    )
    bench_compare.add_argument(
        "--tolerance", type=float, default=0.30,
        help="relative tolerance band before a delta counts as a regression "
             "(default: 0.30)",
    )
    bench_compare.add_argument(
        "--baseline", default=None,
        help="sha prefix of the baseline entry (default: the most recent "
             "earlier entry with a matching config fingerprint)",
    )
    bench_compare.add_argument(
        "--assert-no-regression", action="store_true",
        help="exit non-zero when any compared metric regresses beyond tolerance",
    )
    bench_compare.add_argument(
        "--require-baseline", action="store_true",
        help="exit non-zero when a section has no comparable baseline entry",
    )
    bench_compare.set_defaults(fn=cmd_bench_compare)

    def _add_observed_args(p: argparse.ArgumentParser) -> None:
        _add_scenario_args(p)
        p.add_argument("--train-duration", type=float, default=60.0)
        p.add_argument("--detect-duration", type=float, default=30.0)
        p.add_argument("--faults", action="store_true",
                       help="impair the detection phase with the scenario's fault plan")
        p.add_argument("--trace", default=None,
                       help="also write a Chrome trace_event JSON (chrome://tracing)")

    timeline = sub.add_parser(
        "timeline",
        help="run a telemetry-enabled experiment and chart the per-second timeline",
    )
    _add_observed_args(timeline)
    timeline.add_argument("--bucket-seconds", type=float, default=1.0)
    timeline.add_argument("--width", type=int, default=40,
                          help="traffic bar width in characters (default: 40)")
    timeline.add_argument("--csv", default=None, help="also write the timeline as CSV")
    timeline.add_argument("--json", default=None, help="also write the timeline as JSON")
    timeline.set_defaults(fn=cmd_timeline)

    metrics = sub.add_parser(
        "metrics",
        help="run a telemetry-enabled experiment and dump the metrics registry",
    )
    _add_observed_args(metrics)
    metrics.add_argument(
        "--no-wall", action="store_true",
        help="drop wall-clock-derived metrics (deterministic output for a seed)",
    )
    metrics.set_defaults(fn=cmd_metrics)

    lint = sub.add_parser(
        "lint", help="run the determinism linter against the committed baseline"
    )
    lint.add_argument(
        "paths", nargs="*", default=["src/repro"],
        help="files or directories to lint (default: src/repro)",
    )
    lint.add_argument(
        "--root", default=None,
        help="repository root findings are reported relative to (default: cwd)",
    )
    lint.add_argument("--format", choices=("text", "json"), default="text")
    lint.add_argument(
        "--baseline", default="analysis/baseline.json",
        help="baseline file, relative to --root",
    )
    lint.add_argument(
        "--update-baseline", action="store_true",
        help="accept all current findings into the baseline and exit",
    )
    lint.add_argument(
        "--no-baseline", action="store_true",
        help="report every finding, ignoring the baseline",
    )
    lint.set_defaults(fn=cmd_lint)

    parity = sub.add_parser(
        "check-parity",
        help="check same-instant event handlers for order-dependent races (ORD002)",
    )
    parity.add_argument(
        "paths", nargs="*", default=[],
        help="files or directories to check (default: the data-plane subtrees "
        "src/repro/{sim,ids,testbed,botnet})",
    )
    parity.add_argument(
        "--root", default=None,
        help="repository root findings are reported relative to (default: cwd)",
    )
    parity.add_argument("--format", choices=("text", "json"), default="text")
    parity.add_argument(
        "--baseline", default="analysis/parity_baseline.json",
        help="baseline file, relative to --root",
    )
    parity.add_argument(
        "--update-baseline", action="store_true",
        help="accept all current findings into the baseline and exit",
    )
    parity.add_argument(
        "--no-baseline", action="store_true",
        help="report every finding, ignoring the baseline",
    )
    parity.set_defaults(fn=cmd_check_parity)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    raise SystemExit(main())
