"""Tests of :mod:`repro.service`: specs, the durable queue, the
scheduler (quotas, cancellation, crash redispatch, recovery) and the
daemon-free client half."""

from __future__ import annotations

import json
import threading
import time

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.core.checkpoint import JournalError, RunJournal, job_key
from repro.errors import MixPBenchError
from helpers import write_v1_journal
from repro.harness.scheduler import run_grid, run_shard
from repro.runtime.cache import EvaluationCache
from repro.service import (
    GridSpec, JobRecord, QuotaExceeded, Scheduler, SchedulerHooks,
    ServiceDraining, ServiceError, ServiceJournal, SpecError, UnknownJob,
    attach, job_status, load_service_state, request_cancel, results_path,
    service_status, state_paths, submit_request,
)

#: any JSON value, nested a little
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=8), children, max_size=3),
    max_leaves=6,
)
#: a well-typed value for every spec field
_SPEC_FIELDS = {
    "programs": st.lists(st.sampled_from(("tridiag", "eos")), min_size=1, max_size=2),
    "algorithms": st.lists(st.sampled_from(("DD", "GA")), min_size=1, max_size=2),
    "thresholds": st.lists(
        st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=2,
    ),
    "max_evaluations": st.none() | st.integers(),
    "time_limit_seconds": st.floats(allow_nan=False),
    "executor": st.sampled_from(("serial", "thread", "process")),
    "executor_workers": st.none() | st.integers(),
    "trial_timeout": st.none() | st.floats(allow_nan=False, allow_infinity=False),
    "max_retries": st.integers(),
    "prune": st.booleans(),
    "shadow": st.booleans(),
    "rounding": st.sampled_from(("nearest", "stochastic")),
    "screen": st.booleans(),
    "fuse": st.booleans(),
}


@st.composite
def spec_payloads(draw):
    """Well-typed spec objects, some with one field replaced by an
    arbitrary JSON value."""
    required = ("programs", "algorithms", "thresholds")
    payload = draw(st.fixed_dictionaries(
        {name: _SPEC_FIELDS[name] for name in required},
        optional={n: v for n, v in _SPEC_FIELDS.items() if n not in required},
    ))
    if draw(st.booleans()):
        payload[draw(st.sampled_from(sorted(_SPEC_FIELDS)))] = draw(_JSON)
    return payload


SMALL = dict(
    programs=("tridiag",), algorithms=("DD",), thresholds=(1e-8,),
    max_evaluations=4,
)
SMALL_JSON = {
    "programs": ["tridiag"], "algorithms": ["DD"], "thresholds": [1e-8],
    "max_evaluations": 4,
}


def small_spec(**overrides) -> GridSpec:
    return GridSpec(**{**SMALL, **overrides})


def stripped(payload: list[dict]) -> list[dict]:
    """Results with the run-dependent telemetry block removed — the
    repo-wide byte-identity comparison convention."""
    out = json.loads(json.dumps(payload))
    for row in out:
        (row.get("outcome") or {}).get("metadata", {}).pop("eval_stats", None)
    return out


# ---------------------------------------------------------------------------
# GridSpec / JobRecord


class TestGridSpec:
    def test_round_trip(self):
        spec = small_spec(executor="thread", executor_workers=2, prune=True)
        clone = GridSpec.from_json_dict(spec.to_json_dict())
        assert clone == spec
        assert clone.digest() == spec.digest()

    def test_digest_is_content_addressed(self):
        assert small_spec().digest() == small_spec().digest()
        assert small_spec().digest() != small_spec(max_evaluations=5).digest()

    def test_empty_axis_rejected(self):
        with pytest.raises(SpecError):
            GridSpec(programs=(), algorithms=("DD",), thresholds=(1e-8,))

    def test_unknown_executor_rejected(self):
        with pytest.raises(SpecError):
            small_spec(executor="quantum")

    def test_unknown_field_rejected(self):
        payload = small_spec().to_json_dict()
        payload["cache_dir"] = "/tmp/x"
        with pytest.raises(SpecError, match="cache_dir"):
            GridSpec.from_json_dict(payload)

    def test_missing_field_rejected(self):
        payload = small_spec().to_json_dict()
        del payload["programs"]
        with pytest.raises(SpecError, match="programs"):
            GridSpec.from_json_dict(payload)

    def test_shards_and_label(self):
        spec = GridSpec(
            programs=("a", "b"), algorithms=("DD", "GA"), thresholds=(1e-8,),
        )
        assert spec.shards == 4
        assert spec.label() == "a,b x DD,GA @ 1e-08"

    def test_legacy_fuse_key_is_accepted_and_dropped(self):
        """Ledgers and spool files written while specs carried a
        ``fuse`` toggle still load, whatever its value."""
        spec = small_spec()
        assert "fuse" not in spec.to_json_dict()
        for value in (True, False):
            payload = {**spec.to_json_dict(), "fuse": value}
            clone = GridSpec.from_json_dict(payload)
            assert clone == spec
            assert clone.digest() == spec.digest()

    @pytest.mark.parametrize("field,value", [
        ("thresholds", ["abc"]),
        ("thresholds", [float("nan")]),
        ("thresholds", [float("inf")]),
        ("programs", 5),
        ("programs", "tridiag"),
        ("algorithms", [None]),
        ("max_retries", "x"),
        ("max_evaluations", "x"),
        ("max_evaluations", 2.5),
        ("executor_workers", "2"),
        ("time_limit_seconds", "soon"),
        ("trial_timeout", [1]),
        ("prune", "yes"),
    ])
    def test_malformed_field_raises_spec_error(self, field, value):
        payload = {**small_spec().to_json_dict(), field: value}
        with pytest.raises(SpecError, match=field):
            GridSpec.from_json_dict(payload)

    @given(st.dictionaries(st.text(max_size=20), _JSON, max_size=8) | spec_payloads())
    @settings(max_examples=300, deadline=None)
    def test_any_json_object_parses_or_raises_spec_error(self, payload):
        try:
            spec = GridSpec.from_json_dict(payload)
        except SpecError:
            return
        # an accepted spec is usable end to end by the service
        assert spec.shards >= 1
        spec.digest()
        spec.label()
        assert GridSpec.from_json_dict(spec.to_json_dict()) == spec

    def test_job_record_round_trip(self):
        record = JobRecord(
            job_id="job-0001-aaaa", tenant="alice", spec=small_spec(),
            state="done", stats={"shards": 1},
        )
        clone = JobRecord.from_json_dict(record.to_json_dict())
        assert clone == record
        assert clone.terminal


# ---------------------------------------------------------------------------
# Durable queue: the service journal


class TestServiceJournal:
    def test_fresh_directory_gets_header(self, tmp_path):
        journal = ServiceJournal(tmp_path)
        journal.close()
        state = load_service_state(state_paths(tmp_path)["journal"])
        assert state.version == 1
        assert state.jobs == {}

    def test_submit_and_state_round_trip(self, tmp_path):
        record = JobRecord(job_id="job-0001-aaaa", tenant="t", spec=small_spec())
        with ServiceJournal(tmp_path) as journal:
            journal.append_submit(record, 1)
            journal.append_state(record.job_id, "running")
            journal.append_state(
                record.job_id, "done", stats={"shards_done": 1},
            )
        state = load_service_state(state_paths(tmp_path)["journal"])
        loaded = state.jobs[record.job_id]
        assert loaded.state == "done"
        assert loaded.stats == {"shards_done": 1}
        assert state.sequence == 1

    def test_torn_tail_is_truncated_on_reopen(self, tmp_path):
        record = JobRecord(job_id="job-0001-aaaa", tenant="t", spec=small_spec())
        with ServiceJournal(tmp_path) as journal:
            journal.append_submit(record, 1)
        path = state_paths(tmp_path)["journal"]
        with path.open("ab") as handle:
            handle.write(b'{"kind": "state", "job_id": "job-0001-a')  # SIGKILL
        state = load_service_state(path)
        assert state.torn_tail
        assert state.jobs[record.job_id].state == "queued"
        with ServiceJournal(tmp_path) as journal:  # reopen truncates
            journal.append_state(record.job_id, "done")
        final = load_service_state(path)
        assert not final.torn_tail
        assert final.jobs[record.job_id].state == "done"

    def test_version_mismatch_refused(self, tmp_path):
        path = state_paths(tmp_path)["journal"]
        path.write_text('{"kind": "service", "version": 99}\n')
        with pytest.raises(JournalError, match="version"):
            ServiceJournal(tmp_path)

    def test_unknown_record_kinds_are_ignored(self, tmp_path):
        with ServiceJournal(tmp_path) as journal:
            journal.append("audit", who="future-schema")
        state = load_service_state(state_paths(tmp_path)["journal"])
        assert state.jobs == {}


# ---------------------------------------------------------------------------
# Scheduler


class TestScheduler:
    def test_two_tenants_dedupe_and_match_direct_grid(self, data_env):
        spec = small_spec(algorithms=("DD", "GA"), max_evaluations=8)
        scheduler = Scheduler(data_env / "svc", workers=2, quota=4)
        scheduler.start()
        try:
            first = scheduler.submit(spec, tenant="alice")
            second = scheduler.submit(spec, tenant="bob")
            assert scheduler.wait_job(first, timeout=180) == "done"
            assert scheduler.wait_job(second, timeout=180) == "done"
        finally:
            scheduler.stop(drain=True)

        stats_a = scheduler.status(first)["job"]["stats"]
        stats_b = scheduler.status(second)["job"]["stats"]
        # overlapping submissions dedupe through the one shared cache:
        # at least one tenant's evaluations were someone else's work
        assert stats_a["persistent_hits"] + stats_b["persistent_hits"] > 0
        assert stats_a["evaluations"] == stats_b["evaluations"]

        direct = [r.to_json_dict() for r in run_grid(spec.jobs())]
        for job_id in (first, second):
            served = json.loads(
                results_path(data_env / "svc", job_id).read_text()
            )
            assert stripped(served) == stripped(direct)

    def test_concurrent_mixed_option_tenants_match_serial_grids(self, data_env):
        """Two tenants submit at once, over the same programs, specs that
        differ only in their options (plain; prune + shadow order +
        screen; a stochastic-rounding BW grid).  Two scheduler workers
        run their shards concurrently through one shared cache, yet each
        spec's results equal its own serial ``run_grid``."""
        programs = ("tridiag", "eos", "planckian")
        grid = dict(
            programs=programs, algorithms=("DD", "HR"),
            thresholds=(1e-8, 1e-10), max_evaluations=12,
        )
        submissions = {
            "alice": [
                GridSpec(**grid),
                GridSpec(
                    programs=programs, algorithms=("BW",),
                    thresholds=(1e-8,), max_evaluations=12,
                    rounding="stochastic",
                ),
            ],
            "bob": [GridSpec(**grid, prune=True, shadow=True, screen=True)],
        }
        scheduler = Scheduler(data_env / "svc", workers=2, quota=4)
        scheduler.start()
        job_ids: dict[str, list[str]] = {}
        barrier = threading.Barrier(len(submissions))

        def submit(tenant):
            barrier.wait(timeout=30)
            job_ids[tenant] = [
                scheduler.submit(spec, tenant=tenant)
                for spec in submissions[tenant]
            ]

        try:
            threads = [
                threading.Thread(target=submit, args=(tenant,))
                for tenant in submissions
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            for ids in job_ids.values():
                for job_id in ids:
                    assert scheduler.wait_job(job_id, timeout=300) == "done"
        finally:
            scheduler.stop(drain=True)

        served = {}
        for tenant, specs in submissions.items():
            for spec, job_id in zip(specs, job_ids[tenant]):
                served[spec] = stripped(json.loads(
                    results_path(data_env / "svc", job_id).read_text()
                ))
                direct = [r.to_json_dict() for r in run_grid(spec.jobs())]
                assert served[spec] == stripped(direct)
        # the options change the outcomes, so a leak between the two
        # tenants' shards would show
        plain, guided = submissions["alice"][0], submissions["bob"][0]
        assert served[plain] != served[guided]

    def test_quota_counts_active_jobs_per_tenant(self, tmp_path):
        scheduler = Scheduler(tmp_path / "svc", quota=1)  # never started
        scheduler.submit(small_spec(), tenant="alice")
        with pytest.raises(QuotaExceeded):
            scheduler.submit(small_spec(), tenant="alice")
        scheduler.submit(small_spec(), tenant="bob")  # separate budget
        scheduler.stop(drain=False)

    @pytest.mark.parametrize("setting,value,message", [
        ("workers", 0, "workers must be at least 1, got 0"),
        ("quota", 0, "quota must be at least 1, got 0"),
        ("shard_retries", -1, "shard_retries must be at least 0, got -1"),
        ("workers", 1.5, "workers must be an integer, got 1.5"),
    ])
    def test_bad_setting_refused_not_clamped(self, tmp_path, setting, value, message):
        with pytest.raises(ValueError, match=message):
            Scheduler(tmp_path / "svc", **{setting: value})  # never started
        assert not (tmp_path / "svc").exists()

    @pytest.mark.parametrize("command,flag,value,message", [
        ("serve", "--service-workers", "0", "must be at least 1, got 0"),
        ("serve", "--quota", "0", "must be at least 1, got 0"),
        ("serve", "--shard-retries", "-1", "must be at least 0, got -1"),
        ("serve", "--quota", "two", "must be an integer, got 'two'"),
        ("grid", "--grid-workers", "0", "must be at least 1, got 0"),
        ("grid", "--grid-workers", "-2", "must be at least 1, got -2"),
    ])
    def test_cli_refuses_bad_flag_value(
        self, tmp_path, capsys, command, flag, value, message,
    ):
        # parse only: a flag that slipped through must not start a daemon
        from repro.harness.cli import build_parser

        where = ["--state-dir", str(tmp_path / "svc")] if command == "serve" else [
            "--programs", "eos", "--algorithms", "DD", "--thresholds", "1e-8",
            "--output-dir", str(tmp_path / "svc"),
        ]
        with pytest.raises(SystemExit) as exit_info:
            build_parser().parse_args([command, *where, flag, value])
        assert exit_info.value.code == 2
        assert f"error: argument {flag}: {message}" in capsys.readouterr().err

    def test_submit_while_draining_rejected(self, tmp_path):
        scheduler = Scheduler(tmp_path / "svc")
        scheduler.drain()
        with pytest.raises(ServiceDraining):
            scheduler.submit(small_spec())
        scheduler.stop(drain=False)

    def test_cancel_queued_job(self, tmp_path):
        scheduler = Scheduler(tmp_path / "svc")  # workers never started
        job_id = scheduler.submit(small_spec())
        assert scheduler.cancel(job_id) == "cancelled"
        assert scheduler.status(job_id)["job"]["state"] == "cancelled"
        assert not results_path(tmp_path / "svc", job_id).exists()
        assert scheduler.cancel(job_id) == "cancelled"  # idempotent no-op
        scheduler.stop(drain=False)
        # the cancellation is durable: a reopened service keeps it
        reopened = Scheduler(tmp_path / "svc")
        assert reopened.status(job_id)["job"]["state"] == "cancelled"
        reopened.stop(drain=False)

    def test_cancel_running_job_stops_at_shard_boundary(self, data_env):
        cancelled = threading.Event()
        holder: dict[str, Scheduler] = {}

        def on_shard_start(job_id: str, key: str) -> None:
            if not cancelled.is_set():
                cancelled.set()
                holder["scheduler"].cancel(job_id)

        scheduler = Scheduler(
            data_env / "svc", workers=1,
            hooks=SchedulerHooks(shard_started=on_shard_start),
        )
        holder["scheduler"] = scheduler
        job_id = scheduler.submit(small_spec(algorithms=("DD", "GA")))
        scheduler.start()
        try:
            assert scheduler.wait_job(job_id, timeout=180) == "cancelled"
        finally:
            scheduler.stop(drain=True)
        stats = scheduler.status(job_id)["job"]["stats"]
        # the in-flight shard finished, the unstarted one was dropped
        assert stats["shards_done"] == 1
        assert stats["shards"] == 2

    def test_worker_crash_is_redispatched(self, data_env):
        crashes = {"left": 1}

        def crash_once(job_id: str, key: str) -> None:
            if crashes["left"] > 0:
                crashes["left"] -= 1
                raise RuntimeError("synthetic worker crash")

        scheduler = Scheduler(
            data_env / "svc", workers=1, shard_retries=2,
            hooks=SchedulerHooks(shard_started=crash_once),
        )
        scheduler.start()
        try:
            job_id = scheduler.submit(small_spec())
            assert scheduler.wait_job(job_id, timeout=180) == "done"
        finally:
            scheduler.stop(drain=True)
        stats = scheduler.status(job_id)["job"]["stats"]
        assert stats["redispatched_shards"] == 1
        assert stats["shards_done"] == 1

    def test_worker_crash_exhausts_retries(self, data_env):
        def always_crash(job_id: str, key: str) -> None:
            raise RuntimeError("synthetic worker crash")

        scheduler = Scheduler(
            data_env / "svc", workers=1, shard_retries=1,
            hooks=SchedulerHooks(shard_started=always_crash),
        )
        scheduler.start()
        try:
            job_id = scheduler.submit(small_spec())
            assert scheduler.wait_job(job_id, timeout=180) == "failed"
        finally:
            scheduler.stop(drain=True)
        job = scheduler.status(job_id)["job"]
        assert "WorkerCrash" in job["error"]
        assert job["stats"]["redispatched_shards"] == 1

    def test_unknown_algorithm_fails_its_job_and_the_worker_carries_on(self, data_env):
        scheduler = Scheduler(data_env / "svc", workers=1)
        scheduler.start()
        try:
            bad = scheduler.submit(GridSpec(
                programs=("eos",), algorithms=("XX",), thresholds=(1e-6,),
            ))
            good = scheduler.submit(small_spec())
            assert scheduler.wait_job(bad, timeout=180) == "failed"
            assert scheduler.wait_job(good, timeout=180) == "done"
        finally:
            scheduler.stop(drain=True)
        assert "MixPBenchError" in scheduler.status(bad)["job"]["error"]

    def test_redispatch_replays_the_dead_attempts_trials(self, data_env, monkeypatch):
        """A worker that dies after journaling every trial of its shard
        (here the final ``job_done`` append fails) is redispatched, and
        the retry replays those trials from the run journal: nothing is
        evaluated afresh, and the outcome is a direct grid's."""
        holder: dict[str, Scheduler] = {}
        append_job_done = RunJournal.append_job_done

        def fail_once(journal, key):
            if "failed" not in holder:
                holder["failed"] = True
                # an empty shared cache: only the run journal can replay
                holder["scheduler"].cache = EvaluationCache(data_env / "cold")
                raise OSError("synthetic disk error")
            append_job_done(journal, key)

        monkeypatch.setattr(RunJournal, "append_job_done", fail_once)
        scheduler = Scheduler(data_env / "svc", workers=1, shard_retries=1)
        holder["scheduler"] = scheduler
        spec = small_spec()
        scheduler.start()
        try:
            job_id = scheduler.submit(spec)
            assert scheduler.wait_job(job_id, timeout=180) == "done"
        finally:
            scheduler.stop(drain=True)
        stats = scheduler.status(job_id)["job"]["stats"]
        assert stats["redispatched_shards"] == 1
        assert stats["evaluations"] > 0
        assert stats["fresh_evaluations"] == 0
        direct = [r.to_json_dict() for r in run_grid(spec.jobs())]
        served = json.loads(results_path(data_env / "svc", job_id).read_text())
        assert stripped(served) == stripped(direct)

    def test_shards_start_first_come_first_served(self, data_env):
        """A small job queued ahead of a deeper one starts first, and
        stopping wakes the idle worker."""
        started: list[str] = []
        scheduler = Scheduler(
            data_env / "svc", workers=1,
            hooks=SchedulerHooks(
                shard_started=lambda job_id, key: started.append(job_id),
            ),
        )
        small = scheduler.submit(small_spec())
        deep = scheduler.submit(small_spec(algorithms=("DD", "GA")))
        scheduler.start()
        try:
            for job_id in (small, deep):
                assert scheduler.wait_job(job_id, timeout=180) == "done"
        finally:
            scheduler.stop(drain=True, timeout=30)
        assert started == [small, deep, deep]
        # stop woke the idle worker blocked on the empty queue
        assert not [
            thread for thread in threading.enumerate()
            if thread.name.startswith("mixpbench-svc-")
        ]

    def test_stop_without_drain_starts_no_new_shard(self, data_env):
        """``stop(drain=False)`` lets the running shard finish and starts
        no other; a reopened scheduler replays that shard from the run
        journal and runs the rest to a direct grid's results."""
        root = data_env / "svc"
        spec = small_spec(programs=("tridiag", "eos"), algorithms=("DD", "GA"))
        started: list[str] = []
        running = threading.Event()
        holder: dict[str, Scheduler] = {}

        def hold_first_shard(job_id: str, key: str) -> None:
            started.append(key)
            if len(started) > 1:
                return
            running.set()
            deadline = time.monotonic() + 60
            while not holder["scheduler"].status()["draining"]:
                assert time.monotonic() < deadline
                time.sleep(0.01)

        scheduler = Scheduler(
            root, workers=1, hooks=SchedulerHooks(shard_started=hold_first_shard),
        )
        holder["scheduler"] = scheduler
        job_id = scheduler.submit(spec)
        scheduler.start()
        assert running.wait(timeout=60)
        scheduler.stop(drain=False)
        assert len(started) == 1
        assert scheduler.status(job_id)["job"]["state"] == "running"

        reopened = Scheduler(root, workers=1)
        reopened.start()
        try:
            assert reopened.wait_job(job_id, timeout=300) == "done"
        finally:
            reopened.stop(drain=True)
        stats = reopened.status(job_id)["job"]["stats"]
        assert stats["shards_restored"] == 1
        assert stats["shards_done"] == spec.shards
        direct = [r.to_json_dict() for r in run_grid(spec.jobs())]
        served = json.loads(results_path(root, job_id).read_text())
        assert stripped(served) == stripped(direct)

    def test_unknown_job_and_bad_tenant(self, tmp_path):
        scheduler = Scheduler(tmp_path / "svc")
        with pytest.raises(UnknownJob):
            scheduler.cancel("job-9999-missing")
        with pytest.raises(MixPBenchError):
            scheduler.submit(small_spec(), tenant="no/slashes")
        scheduler.stop(drain=False)

    def test_recovery_resumes_killed_jobs_trial_by_trial(self, data_env):
        """A SIGKILL'd service's ledger says `running`; the reopened
        scheduler re-enqueues the job and its finished shard replays
        its journaled trials instead of recomputing them."""
        root = data_env / "svc"
        spec = small_spec(algorithms=("DD", "GA"))
        paths = state_paths(root)
        for name in ("cache", "runs", "jobs", "spool"):
            paths[name].mkdir(parents=True, exist_ok=True)

        # what the dead daemon left behind: an accepted job mid-run …
        record = JobRecord(job_id="job-0001-deadbeef", tenant="alice", spec=spec)
        with ServiceJournal(root) as journal:
            journal.append_submit(record, 1)
            journal.append_state(record.job_id, "running")
        # … whose first shard it had journaled to completion
        shards = spec.jobs()
        with RunJournal(paths["runs"], record.job_id, shards) as run_journal:
            run_shard(shards[0], journal=run_journal, key=job_key(0, shards[0]))

        scheduler = Scheduler(root, workers=1)
        assert scheduler.status(record.job_id)["job"]["state"] == "queued"
        scheduler.start()
        try:
            assert scheduler.wait_job(record.job_id, timeout=180) == "done"
        finally:
            scheduler.stop(drain=True)
        stats = scheduler.status(record.job_id)["job"]["stats"]
        assert stats["shards_restored"] == 1
        assert stats["shards_done"] == 2

        direct = [r.to_json_dict() for r in run_grid(spec.jobs())]
        served = json.loads(results_path(root, record.job_id).read_text())
        assert stripped(served) == stripped(direct)

    def test_recovery_fails_a_job_whose_journal_cannot_resume(self, tmp_path):
        """A queued job whose run journal was written for a different
        grid fingerprint, or in the version-1 format an older release
        wrote, is failed with the journal's reason; the scheduler still
        starts and recovers the other jobs."""
        root = tmp_path / "svc"
        paths = state_paths(root)
        paths["runs"].mkdir(parents=True, exist_ok=True)
        stale = JobRecord(job_id="job-0001-deadbeef", tenant="alice", spec=small_spec())
        other = JobRecord(job_id="job-0002-cafef00d", tenant="alice",
                          spec=small_spec(max_evaluations=5))
        old = JobRecord(job_id="job-0003-0ld0ld00", tenant="alice",
                        spec=small_spec(max_evaluations=6))
        with ServiceJournal(root) as journal:
            journal.append_submit(stale, 1)
            journal.append_submit(other, 2)
            journal.append_submit(old, 3)
            journal.append_state(old.job_id, "running")
        # the stale job's journal fingerprints a different shard list
        mismatched = small_spec(max_evaluations=3).jobs()
        RunJournal(paths["runs"], stale.job_id, mismatched).close()
        write_v1_journal(paths["runs"], old.job_id, old.spec.jobs())

        scheduler = Scheduler(root, workers=1)
        try:
            job = scheduler.status(stale.job_id)["job"]
            assert job["state"] == "failed"
            assert "refusing to resume" in job["error"]
            job = scheduler.status(old.job_id)["job"]
            assert job["state"] == "failed"
            assert "has version 1, this code writes 2" in job["error"]
            assert scheduler.status(other.job_id)["job"]["state"] == "queued"
        finally:
            scheduler.stop(drain=False)
        ledger = load_service_state(paths["journal"]).jobs
        assert ledger[stale.job_id].state == ledger[old.job_id].state == "failed"

    def test_ledger_spec_the_validator_now_rejects_still_loads(
        self, tmp_path, capsys,
    ):
        """Earlier releases journaled specs with out-of-range options
        (``executor_workers: 0`` and the like).  Such a job stays listed:
        failed with the reason if it had not finished, its recorded
        state if it had; the scheduler starts and the other jobs
        recover."""
        from repro.harness.cli import main

        root = tmp_path / "svc"
        old_spec = {**SMALL_JSON, "time_limit_seconds": 86400.0,
                    "executor": "process", "executor_workers": 0,
                    "trial_timeout": None, "max_retries": 0,
                    "prune": False, "shadow": False}
        queued = {"job_id": "job-0001-0ld0ld00", "tenant": "alice",
                  "spec": old_spec, "state": "queued", "error": None, "stats": {}}
        finished = {**queued, "job_id": "job-0002-0ld0ld00",
                    "spec": {**old_spec, "executor_workers": 1, "max_retries": -1}}
        valid = JobRecord(job_id="job-0003-cafef00d", tenant="alice", spec=small_spec())
        with ServiceJournal(root) as journal:
            journal.append("submit", job=queued, sequence=1)
            journal.append("submit", job=finished, sequence=2)
            journal.append_state(finished["job_id"], "done", stats={"shards_done": 1})
            journal.append_submit(valid, 3)

        scheduler = Scheduler(root, workers=1)
        try:
            job = scheduler.status(queued["job_id"])["job"]
            assert job["state"] == "failed"
            assert "executor_workers" in job["error"]
            assert job["label"] == "tridiag x DD @ 1e-08"
            assert scheduler.status(finished["job_id"])["job"]["state"] == "done"
            assert scheduler.status(valid.job_id)["job"]["state"] == "queued"
        finally:
            scheduler.stop(drain=False)

        assert main(["status", "--state-dir", str(root)]) == 0
        listing = capsys.readouterr().out
        for job_id, state in ((queued["job_id"], "failed"),
                              (finished["job_id"], "done"),
                              (valid.job_id, "queued")):
            [row] = [line for line in listing.splitlines() if job_id in line]
            assert state in row

    def test_recovery_finalizes_a_fully_journaled_job_with_zero_fresh_evaluations(
        self, data_env
    ):
        """If every shard was journaled before the crash, only the
        terminal ledger transition was lost: one worker replays every
        shard's journaled trials, executes none afresh, and writes the
        direct grid's results."""
        root = data_env / "svc"
        spec = small_spec()
        paths = state_paths(root)
        paths["runs"].mkdir(parents=True, exist_ok=True)
        record = JobRecord(job_id="job-0001-deadbeef", tenant="alice", spec=spec)
        with ServiceJournal(root) as journal:
            journal.append_submit(record, 1)
            journal.append_state(record.job_id, "running")
        shards = spec.jobs()
        with RunJournal(paths["runs"], record.job_id, shards) as run_journal:
            for index, shard in enumerate(shards):
                run_shard(shard, journal=run_journal, key=job_key(index, shard))

        # an empty shared cache: only the run journal can replay
        scheduler = Scheduler(root, workers=1)
        scheduler.start()
        try:
            assert scheduler.wait_job(record.job_id, timeout=180) == "done"
        finally:
            scheduler.stop(drain=True)
        stats = scheduler.status(record.job_id)["job"]["stats"]
        assert stats["shards_restored"] == 1
        assert stats["evaluations"] > 0
        assert stats["fresh_evaluations"] == 0
        direct = [r.to_json_dict() for r in run_grid(spec.jobs())]
        served = json.loads(results_path(root, record.job_id).read_text())
        assert stripped(served) == stripped(direct)


# ---------------------------------------------------------------------------
# Spool protocol + client


class TestSpoolAndClient:
    def _spool_submit(self, scheduler: Scheduler, payload: dict) -> dict:
        spool = scheduler.paths["spool"]
        (spool / "req-1.json").write_text(json.dumps(payload))
        assert scheduler.poll_spool() == 1
        return json.loads((spool / "req-1.ack.json").read_text())

    def test_spool_submission_acked(self, tmp_path):
        scheduler = Scheduler(tmp_path / "svc")
        ack = self._spool_submit(
            scheduler,
            {"tenant": "alice", "spec": small_spec().to_json_dict()},
        )
        scheduler.stop(drain=False)
        assert ack["ok"]
        assert scheduler.status(ack["job_id"])["job"]["tenant"] == "alice"

    def test_spool_malformed_spec_rejected(self, tmp_path):
        scheduler = Scheduler(tmp_path / "svc")
        ack = self._spool_submit(scheduler, {"tenant": "alice", "spec": {}})
        scheduler.stop(drain=False)
        assert not ack["ok"]
        assert "program" in ack["error"]

    @pytest.mark.parametrize("name,body", [
        ("req-1.json", [1, 2]),
        ("req-1.json", {"tenant": "alice", "spec": {**SMALL_JSON, "thresholds": ["abc"]}}),
        ("req-1.json", {"tenant": "alice", "spec": {**SMALL_JSON, "programs": 5}}),
        ("req-1.json", {"tenant": "alice", "spec": {**SMALL_JSON, "max_retries": "x"}}),
        ("req-1.json", {"tenant": ["alice"], "spec": SMALL_JSON}),
        ("req-1.cancel.json", "job-0001"),
        ("req-1.cancel.json", {"job_id": ["job-0001"]}),
        pytest.param("req-1.json", b'{"tenant": "\xff\xfe"}', id="not-utf8"),
    ])
    def test_poison_request_is_rejected_and_removed(self, tmp_path, name, body):
        """A malformed request gets an ``ok: false`` ack and is deleted,
        and the spool keeps serving: a valid submit after it is taken."""
        scheduler = Scheduler(tmp_path / "svc")
        spool = scheduler.paths["spool"]
        (spool / name).write_bytes(
            body if isinstance(body, bytes) else json.dumps(body).encode())
        (spool / "req-2.json").write_text(
            json.dumps({"tenant": "alice", "spec": SMALL_JSON}))
        try:
            assert scheduler.poll_spool() == 2
        finally:
            scheduler.stop(drain=False)
        poison = json.loads((spool / name.replace(".json", ".ack.json")).read_text())
        assert poison["ok"] is False and poison["error"]
        assert not (spool / name).exists()
        valid = json.loads((spool / "req-2.ack.json").read_text())
        assert valid["ok"]
        assert scheduler.status(valid["job_id"])["job"]["tenant"] == "alice"

    def test_spool_cancel_request(self, tmp_path):
        scheduler = Scheduler(tmp_path / "svc")
        job_id = scheduler.submit(small_spec())
        request_cancel(tmp_path / "svc", job_id)
        assert scheduler.poll_spool() == 1
        assert scheduler.status(job_id)["job"]["state"] == "cancelled"
        scheduler.stop(drain=False)

    def test_status_is_readable_without_a_daemon(self, tmp_path):
        scheduler = Scheduler(tmp_path / "svc")
        job_id = scheduler.submit(small_spec())
        scheduler.stop(drain=False)
        snapshot = service_status(tmp_path / "svc")
        assert snapshot["serving_pid"] is None
        assert [job["job_id"] for job in snapshot["jobs"]] == [job_id]
        assert job_status(tmp_path / "svc", job_id)["state"] == "queued"
        with pytest.raises(ServiceError, match="no such job"):
            job_status(tmp_path / "svc", "job-9999-missing")

    def test_submit_request_times_out_without_daemon(self, tmp_path):
        with pytest.raises(ServiceError, match="serve"):
            submit_request(
                tmp_path / "svc", small_spec(), timeout=0.2, poll_seconds=0.05,
            )

    def test_serve_loop_end_to_end_in_process(self, data_env):
        """The daemon loop itself: spool ingestion, pid file, stop-file
        drain — driven through the real client functions."""
        root = data_env / "svc"
        scheduler = Scheduler(root, workers=1)
        server = threading.Thread(
            target=scheduler.serve,
            kwargs={"poll_seconds": 0.02, "idle_exit_seconds": 60.0},
            daemon=True,
        )
        server.start()
        try:
            job_id = submit_request(root, small_spec(), tenant="alice", timeout=30)
            assert service_status(root)["serving_pid"] is not None
            assert attach(root, job_id, timeout=180) == "done"
        finally:
            (root / "stop").touch()
            server.join(timeout=30)
        assert not server.is_alive()
        assert not (root / "serve.pid").exists()
        assert service_status(root)["serving_pid"] is None

    def test_attach_streams_progress_and_returns_state(self, data_env):
        root = data_env / "svc"
        scheduler = Scheduler(root, workers=1)
        scheduler.start()
        lines: list[str] = []
        try:
            job_id = scheduler.submit(small_spec())
            state = attach(root, job_id, stream=lines.append, timeout=180)
        finally:
            scheduler.stop(drain=True)
        assert state == "done"
        assert any(line.startswith("shard ") for line in lines)
        assert any("state: done" in line for line in lines)
        with pytest.raises(ServiceError, match="no such job"):
            attach(root, "job-9999-missing")
