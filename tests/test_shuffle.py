"""Bucket-shuffle race detector tests (``Simulator(shuffle_buckets=…)``).

The kernel claims equal-``(time, priority)`` bucket mates commute
(ORD002's contract).  The shuffle sanitizer *tests* that claim at
runtime: a deterministic permutation of every same-instant bucket must
leave all observable results bit-identical.  These tests pin

* the mechanism — shuffling really permutes dispatch, deterministically
  per seed, and a deliberately order-dependent workload is caught;
* the re-keyed bucket — a ``stop()`` or an exception mid-bucket leaves
  the rest of the permuted bucket pending, and it still runs before the
  events the bucket scheduled at the same instant;
* the contract — kernel state hashes and full-experiment verdicts are
  bit-identical across shuffle seeds.
"""

import pytest

from repro.analysis import shuffle_seed_from_env
from repro.sim import Simulator
from repro.testbed import Scenario, run_full_experiment


def _bucket_order(shuffle_buckets, tags=16):
    """Dispatch order of one 16-event bucket (all at t=1, priority 0)."""
    sim = Simulator(shuffle_buckets=shuffle_buckets)
    order = []
    for i in range(tags):
        sim.schedule(1.0, order.append, i)
    sim.run()
    return order


class TestShuffleMechanism:
    def test_unshuffled_bucket_runs_in_schedule_order(self):
        assert _bucket_order(None) == list(range(16))

    def test_shuffle_permutes_bucket_deterministically(self):
        first = _bucket_order(shuffle_buckets=1)
        assert sorted(first) == list(range(16))  # nothing lost or duplicated
        assert first != list(range(16))  # 1-in-16! chance if broken
        assert _bucket_order(shuffle_buckets=1) == first  # same seed, same order
        assert _bucket_order(shuffle_buckets=2) != first  # new seed, new order

    def test_env_seed_arms_the_shuffler(self, monkeypatch):
        monkeypatch.setenv("REPRO_SHUFFLE", "7")
        assert Simulator().shuffle_seed == 7
        assert _bucket_order(None) != list(range(16))
        monkeypatch.setenv("REPRO_SHUFFLE", "off")
        assert Simulator().shuffle_seed is None

    def test_shuffle_seed_env_parsing(self, monkeypatch):
        for raw, expected in [
            ("", None), ("0", None), ("off", None), ("FALSE", None),
            ("no", None), ("7", 7), ("0x10", 16), ("  3 ", 3),
        ]:
            monkeypatch.setenv("REPRO_SHUFFLE", raw)
            assert shuffle_seed_from_env() == expected, raw
        monkeypatch.setenv("REPRO_SHUFFLE", "garbage")
        with pytest.raises(ValueError):
            shuffle_seed_from_env()

    def test_order_dependent_workload_is_caught(self):
        """The detector's point: a last-writer-wins race that schedule
        order happens to hide becomes a visible divergence."""

        def last_writer(shuffle_buckets):
            sim = Simulator(shuffle_buckets=shuffle_buckets)
            state = {"winner": None}
            for tag in range(8):
                sim.schedule(1.0, state.__setitem__, "winner", tag)
            sim.run()
            return state["winner"]

        assert last_writer(None) == 7  # schedule order: last scheduled wins
        winners = {last_writer(seed) for seed in range(1, 6)}
        assert winners != {7}  # some permutation exposes the race


def _interrupted_bucket(seed, interrupt=None):
    """Eight members at t=1 under shuffle ``seed`` (plus a mate cancelled
    up front).  The first member to run cancels a pending mate and
    schedules a same-instant event; the second one to run applies
    ``interrupt``: ``"stop"``, ``"raise"`` or nothing."""
    sim = Simulator(sanitize=True, shuffle_buckets=seed)
    order, handles = [], {}

    def member(tag):
        order.append(tag)
        if len(order) == 1:
            handles[7 if tag != 7 else 6].cancel()
            sim.schedule(0.0, order.append, "spawned")
        elif len(order) == 2 and interrupt == "stop":
            sim.stop()
        elif len(order) == 2 and interrupt == "raise":
            raise RuntimeError("mid-bucket")

    for tag in range(8):
        handles[tag] = sim.schedule(1.0, member, tag)
    sim.schedule(1.0, member, "cancelled up front").cancel()
    return sim, order


def _uninterrupted_order(seed):
    sim, order = _interrupted_bucket(seed)
    sim.run()
    return order


@pytest.mark.parametrize("seed", [1, 2, 3])
class TestShuffledBucketTail:
    def test_stop_mid_bucket_leaves_the_tail_pending(self, seed):
        sim, order = _interrupted_bucket(seed, "stop")
        sim.run()
        assert len(order) == 2
        assert sim.pending_events == 6  # five members and the spawned event
        sim.run()
        assert order[-1] == "spawned"
        assert len(set(order[:-1])) == len(order) - 1 == 7  # one was cancelled
        assert order == _uninterrupted_order(seed)
        sim.finalize()  # the kernel-ledger check raises on drift

    def test_exception_mid_bucket_loses_and_repeats_no_member(self, seed):
        sim, order = _interrupted_bucket(seed, "raise")
        with pytest.raises(RuntimeError, match="mid-bucket"):
            sim.run()
        assert len(order) == 2
        sim.run()
        assert order[-1] == "spawned"
        assert len(set(order[:-1])) == len(order) - 1 == 7
        assert order == _uninterrupted_order(seed)
        sim.finalize()


class TestShuffleContract:
    def test_state_hash_identical_for_commuting_bucket(self):
        """Counter-increment bucket mates commute: every shuffle seed
        must end on the same kernel state hash and counter value."""

        def run(shuffle_buckets):
            sim = Simulator(shuffle_buckets=shuffle_buckets)
            state = {"count": 0}

            def bump(k):
                state["count"] += k
                sim.schedule(0.5, lambda: None)  # pending tail state

            for k in range(10):
                sim.schedule(1.0, bump, k)
            sim.run(until=1.2)
            return state["count"], sim.state_hash()

        baseline = run(None)
        for seed in (1, 2, 3):
            assert run(seed) == baseline

    def test_full_experiment_bit_identical_across_shuffle_seeds(self, monkeypatch):
        """Acceptance: one small full experiment, >= 3 shuffle seeds,
        bit-identical window verdicts and result fingerprint."""
        results = {}
        for seed in (None, 1, 2, 3):
            if seed is None:
                monkeypatch.delenv("REPRO_SHUFFLE", raising=False)
            else:
                monkeypatch.setenv("REPRO_SHUFFLE", str(seed))
            results[seed] = run_full_experiment(
                Scenario(n_devices=3, seed=11),
                train_duration=20.0,
                detect_duration=10.0,
            )
        baseline = results[None]
        verdicts = {
            report.model_name: [
                (w.window_index, w.n_packets, w.n_malicious_true,
                 w.n_malicious_predicted, w.status)
                for w in report.windows
            ]
            for report in baseline.detection
        }
        assert any(len(v) > 0 for v in verdicts.values())
        for seed in (1, 2, 3):
            result = results[seed]
            assert result.fingerprint() == baseline.fingerprint(), seed
            for report in result.detection:
                assert verdicts[report.model_name] == [
                    (w.window_index, w.n_packets, w.n_malicious_true,
                     w.n_malicious_predicted, w.status)
                    for w in report.windows
                ], (seed, report.model_name)
            assert result.table1() == baseline.table1(), seed
