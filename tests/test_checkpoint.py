"""Run journals: durability, torn tails, resume, and grid collection.

The checkpoint layer (repro.core.checkpoint) must never lose a
completed trial, never replay a half-written one, and never resume
against the wrong grid; run_grid must restore finished jobs without
re-running them and must survive a worker exception without dropping
the rest of the grid.
"""

import copy
import json

import pytest

from repro.core.checkpoint import (
    JOURNAL_VERSION, JournalError, JournalTrialStore, RunJournal,
    grid_fingerprint, job_key, load_run_state,
)
from repro.harness import scheduler
from repro.harness.scheduler import JobResult, SearchJob, run_grid


def _jobs():
    return [
        SearchJob("tridiag", "DD", 1e-6, max_evaluations=4),
        SearchJob("tridiag", "GA", 1e-6, max_evaluations=4),
    ]


def _payloads(results):
    """JSON payloads with the telemetry block (which legitimately
    differs between a fresh and a replayed run) stripped."""
    payloads = []
    for result in results:
        payload = copy.deepcopy(result.to_json_dict())
        if payload["outcome"]:
            payload["outcome"]["metadata"].pop("eval_stats", None)
        payloads.append(payload)
    return payloads


class TestJournalBasics:
    def test_header_trials_and_job_done_round_trip(self, tmp_path):
        jobs = _jobs()
        with RunJournal(tmp_path, "r1", jobs) as journal:
            journal.append_trial("0000:a", "ctx", "d1", {"index": 1})
            journal.append_trial("0000:a", "ctx", "d2", {"index": 2})
            journal.append_trial("0001:b", "ctx", "d1", {"index": 1})
            journal.append_job_done("0000:a", {"outcome": None, "error": "x"})
        state = load_run_state(tmp_path / "r1" / "journal.jsonl")
        assert state.run_id == "r1"
        assert state.grid == grid_fingerprint(jobs)
        assert not state.torn_tail
        # job_done consumes the job's trial table; in-flight jobs keep theirs
        assert state.finished == {"0000:a": {"outcome": None, "error": "x"}}
        assert state.job_trials("0000:a") == {}
        assert state.job_trials("0001:b") == {
            "d1": {"context": "ctx", "record": {"index": 1}},
        }

    def test_missing_journal_loads_empty(self, tmp_path):
        state = load_run_state(tmp_path / "nope.jsonl")
        assert state.finished == {} and state.trials == {}
        assert not state.torn_tail

    def test_unknown_record_kinds_are_ignored(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        path.write_text(
            json.dumps({"kind": "run", "run_id": "r"}) + "\n"
            + json.dumps({"kind": "future-extension", "data": 1}) + "\n"
            + json.dumps({"kind": "job_done", "job": "k", "result": {}}) + "\n"
        )
        state = load_run_state(path)
        assert state.finished == {"k": {}}
        assert not state.torn_tail

    def test_job_key_survives_unknown_algorithm(self):
        key = job_key(3, SearchJob("tridiag", "ZZ", 1e-6))
        assert key == "0003:tridiag/ZZ@1e-06"

    @pytest.mark.parametrize("run_id", ["", "a/b", "a\\b"])
    def test_invalid_run_id_rejected(self, tmp_path, run_id):
        with pytest.raises(JournalError):
            RunJournal(tmp_path, run_id, [])


class TestTornTail:
    def test_torn_tail_detected_and_truncated_on_resume(self, tmp_path):
        with RunJournal(tmp_path, "r", []) as journal:
            journal.append_trial("k", "ctx", "d", {"index": 1})
        path = tmp_path / "r" / "journal.jsonl"
        intact = path.read_bytes()
        path.write_bytes(intact + b'{"kind": "trial", "job": "k"')

        state = load_run_state(path)
        assert state.torn_tail
        assert state.valid_bytes == len(intact)
        assert state.job_trials("k")["d"]["record"] == {"index": 1}

        RunJournal(tmp_path, "r", [], resume=True).close()
        assert path.read_bytes() == intact

    def test_mid_record_garbage_fences_everything_after(self, tmp_path):
        good = json.dumps({"kind": "run", "run_id": "r"}) + "\n"
        path = tmp_path / "journal.jsonl"
        after = json.dumps({"kind": "job_done", "job": "k", "result": {}})
        path.write_text(good + "not json\n" + after + "\n")
        state = load_run_state(path)
        assert state.torn_tail
        assert state.valid_bytes == len(good.encode())
        assert state.finished == {}  # the record *after* the tear is ignored

    def test_record_without_kind_is_a_tear(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        path.write_text(json.dumps({"job": "k"}) + "\n")
        state = load_run_state(path)
        assert state.torn_tail
        assert state.valid_bytes == 0


class TestJournalGuards:
    def test_fresh_open_refuses_existing_journal(self, tmp_path):
        RunJournal(tmp_path, "r", []).close()
        with pytest.raises(JournalError, match="already has a journal"):
            RunJournal(tmp_path, "r", [])

    def test_resume_requires_a_journal(self, tmp_path):
        with pytest.raises(JournalError, match="no journal"):
            RunJournal(tmp_path, "r", [], resume=True)

    def test_resume_refuses_a_different_grid(self, tmp_path):
        RunJournal(tmp_path, "r", _jobs()).close()
        other = [SearchJob("tridiag", "DD", 1e-8)]
        with pytest.raises(JournalError, match="different job grid"):
            RunJournal(tmp_path, "r", other, resume=True)

    def test_resume_refuses_a_different_version(self, tmp_path):
        RunJournal(tmp_path, "r", []).close()
        path = tmp_path / "r" / "journal.jsonl"
        lines = path.read_text().splitlines()
        header = json.loads(lines[0])
        header["version"] = JOURNAL_VERSION + 1
        lines[0] = json.dumps(header)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(JournalError, match="version"):
            RunJournal(tmp_path, "r", [], resume=True)

    def test_resume_requires_a_header(self, tmp_path):
        (tmp_path / "r").mkdir()
        (tmp_path / "r" / "journal.jsonl").write_text(
            json.dumps({"kind": "trial", "job": "k", "config": "d"}) + "\n"
        )
        with pytest.raises(JournalError, match="no run header"):
            RunJournal(tmp_path, "r", [], resume=True)


class _RecordingCache:
    """Minimal EvaluationCache double that remembers every put."""

    def __init__(self):
        self.data = {}
        self.puts = []

    def get(self, program, context, digest):
        return self.data.get((program, context, digest))

    def contains(self, program, context, digest):
        return (program, context, digest) in self.data

    def put(self, program, context, digest, record):
        self.puts.append((program, context, digest))
        self.data[(program, context, digest)] = dict(record)


class TestJournalTrialStore:
    def test_put_journals_and_forwards(self, tmp_path):
        inner = _RecordingCache()
        with RunJournal(tmp_path, "r", []) as journal:
            store = JournalTrialStore(journal, "0000:a", inner=inner)
            store.put("tridiag", "ctx", "d1", {"index": 1})
        state = load_run_state(tmp_path / "r" / "journal.jsonl")
        assert state.job_trials("0000:a")["d1"]["record"] == {"index": 1}
        assert inner.puts == [("tridiag", "ctx", "d1")]

    def test_get_replays_on_context_match_only(self, tmp_path):
        inner = _RecordingCache()
        inner.data[("tridiag", "other", "d1")] = {"index": 9}
        with RunJournal(tmp_path, "r", []) as journal:
            replay = {"d1": {"context": "ctx", "record": {"index": 1}}}
            store = JournalTrialStore(journal, "0000:a", replay, inner=inner)
            assert store.get("tridiag", "ctx", "d1") == {"index": 1}
            # stale context (changed threshold/metric/...) must not replay
            assert store.get("tridiag", "other", "d1") == {"index": 9}
            assert store.get("tridiag", "ctx", "d2") is None

    def test_contains_probes_journal_then_inner(self, tmp_path):
        inner = _RecordingCache()
        inner.data[("tridiag", "other", "d2")] = {"index": 9}
        with RunJournal(tmp_path, "r", []) as journal:
            replay = {"d1": {"context": "ctx", "record": {"index": 1}}}
            store = JournalTrialStore(journal, "0000:a", replay, inner=inner)
            assert store.contains("tridiag", "ctx", "d1")
            assert not store.contains("tridiag", "other", "d1")
            assert store.contains("tridiag", "other", "d2")
            assert not store.contains("tridiag", "ctx", "d2")
            assert not JournalTrialStore(journal, "0000:b").contains("tridiag", "ctx", "d1")

    def test_get_without_inner_or_replay_is_none(self, tmp_path):
        with RunJournal(tmp_path, "r", []) as journal:
            store = JournalTrialStore(journal, "0000:a")
            assert store.get("tridiag", "ctx", "d1") is None


class TestRunGridJournaling:
    def test_resume_restores_finished_jobs_without_rerunning(
        self, data_env, tmp_path, monkeypatch
    ):
        jobs = _jobs()
        runs = tmp_path / "runs"
        first = run_grid(jobs, run_id="r1", runs_dir=runs)
        assert all(result.ok for result in first)
        assert not any(result.resumed for result in first)

        def boom(*args, **kwargs):
            raise AssertionError("a finished job was re-run on resume")

        monkeypatch.setattr(scheduler, "run_shard", boom)
        second = run_grid(jobs, resume="r1", runs_dir=runs)
        assert all(result.resumed for result in second)
        assert _payloads(second) == _payloads(first)

    def test_resume_continues_from_a_mid_job_cut(self, data_env, tmp_path):
        jobs = _jobs()
        runs = tmp_path / "runs"
        reference = run_grid(jobs, run_id="ref", runs_dir=runs)

        # crash simulation: keep the header, the first job's completion
        # and two trials of the second job, then tear the next record
        lines = (runs / "ref" / "journal.jsonl").read_bytes().splitlines(keepends=True)
        kept = [lines[0]]
        done = [line for line in lines if b'"kind": "job_done"' in line][:1]
        second_trials = [
            line for line in lines
            if b'"kind": "trial"' in line and b"0001:" in line
        ][:2]
        kept.extend(done)
        kept.extend(second_trials)
        cut_dir = runs / "cut"
        cut_dir.mkdir(parents=True)
        (cut_dir / "journal.jsonl").write_bytes(
            b"".join(kept) + lines[-1][: len(lines[-1]) // 2]
        )

        resumed = run_grid(jobs, resume="cut", runs_dir=runs)
        assert resumed[0].resumed and not resumed[1].resumed
        assert _payloads(resumed) == _payloads(reference)
        stats = resumed[1].outcome.metadata["eval_stats"]
        assert stats["persistent_hits"] >= 1  # the journaled trials replayed

    def test_run_id_resume_mismatch_raises(self, tmp_path):
        with pytest.raises(ValueError, match="different runs"):
            run_grid([], run_id="a", resume="b", runs_dir=tmp_path)

    def test_failed_job_is_journaled_and_restored(self, data_env, tmp_path):
        jobs = [SearchJob("tridiag", "ZZ", 1e-6)]
        runs = tmp_path / "runs"
        first = run_grid(jobs, run_id="r", runs_dir=runs)
        assert not first[0].ok
        assert first[0].error_kind == "MixPBenchError"
        second = run_grid(jobs, resume="r", runs_dir=runs)
        assert second[0].resumed
        assert second[0].error_kind == "MixPBenchError"
        assert "unknown search strategy" in second[0].error


class TestGridCollection:
    """A worker exception inside the pool must cost one job, not the grid."""

    @pytest.mark.parametrize("workers", [1, 2])
    def test_escaped_exception_maps_to_its_job_only(
        self, data_env, monkeypatch, workers
    ):
        jobs = [
            SearchJob("tridiag", "DD", 1e-6, max_evaluations=2),
            SearchJob("tridiag", "GA", 1e-6, max_evaluations=2),
            SearchJob("tridiag", "CB", 1e-6, max_evaluations=2),
        ]
        real = scheduler.run_shard

        def flaky(job, **kwargs):
            if job.algorithm == "GA":
                raise RuntimeError("worker exploded outside run_shard's guard")
            return real(job, **kwargs)

        monkeypatch.setattr(scheduler, "run_shard", flaky)
        results = run_grid(jobs, workers=workers)
        assert [result.job for result in results] == jobs  # submission order
        assert results[0].ok and results[2].ok
        assert not results[1].ok
        assert results[1].error_kind == "RuntimeError"
        assert "worker exploded" in results[1].error

    def test_error_results_serialize(self, data_env, monkeypatch):
        monkeypatch.setattr(
            scheduler, "run_shard",
            lambda job, **kwargs: (_ for _ in ()).throw(OSError("disk gone")),
        )
        job = SearchJob("tridiag", "DD", 1e-6)
        result = run_grid([job], workers=2)[0]
        payload = result.to_json_dict()
        assert payload["error_kind"] == "OSError"
        restored = JobResult.from_json_dict(payload, job)
        assert restored.error_kind == "OSError"
        assert not restored.ok
