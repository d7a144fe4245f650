"""Property-based tests for the run journal (hypothesis).

Two invariants make checkpoint/resume trustworthy:

* **Truncation safety** — cutting a journal at *any* byte offset
  yields exactly the state of its complete-record prefix: no record is
  half-applied, no frankenstein record is ever parsed, and the torn
  flag fires iff the cut landed inside a record.
* **Resume equivalence** — any append / kill / resume interleaving
  (kill = truncate at an arbitrary point, possibly mid-record) ends in
  the same state as appending every record uninterrupted.
"""

import json

import hypothesis.strategies as st
from hypothesis import HealthCheck, given, settings

from repro.core.checkpoint import RunJournal, load_run_state

keys = st.sampled_from(["0000:a", "0001:b", "0002:c"])
digests = st.sampled_from(["d1", "d2", "d3"])
contexts = st.sampled_from(["ctx1", "ctx2"])

trial_records = st.builds(
    lambda key, ctx, digest, index: {
        "kind": "trial", "job": key, "context": ctx, "config": digest,
        "record": {"index": index},
    },
    keys, contexts, digests, st.integers(0, 9),
)
job_done_records = st.builds(lambda key: {"kind": "job_done", "job": key}, keys)
record_lists = st.lists(st.one_of(trial_records, job_done_records), max_size=10)

# the journal writes the file; hypothesis only varies the content, so
# reusing the function-scoped tmp_path across examples is safe
relaxed = settings(
    max_examples=40,
    deadline=None,  # appends fsync; disk latency must not flake the test
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)


def _serialize(records):
    return [(json.dumps(r, sort_keys=True) + "\n").encode() for r in records]


def _state_key(state):
    """The replayable substance of a RunState (meta aside): the set of
    finished keys and every job's trial table."""
    return (state.finished, state.trials)


def _reference_state(tmp_path, records, name):
    path = tmp_path / name
    path.write_bytes(b"".join(_serialize(records)))
    return load_run_state(path)


def _clear(path):
    """Hypothesis reuses the function-scoped tmp_path across examples;
    a fresh journal open refuses leftovers, so drop them explicitly."""
    if path.exists():
        path.unlink()


@relaxed
@given(records=record_lists, cut=st.integers(0, 1 << 12))
def test_any_truncation_yields_the_complete_prefix(tmp_path, records, cut):
    lines = _serialize(records)
    data = b"".join(lines)
    cut = min(cut, len(data))
    path = tmp_path / "journal.jsonl"
    path.write_bytes(data[:cut])

    state = load_run_state(path)  # must never raise

    consumed = 0
    complete = 0
    for line in lines:
        if consumed + len(line) > cut:
            break
        consumed += len(line)
        complete += 1
    assert state.valid_bytes == consumed
    assert state.torn_tail == (cut > consumed)
    expected = _reference_state(tmp_path, records[:complete], "expected.jsonl")
    assert _state_key(state) == _state_key(expected)


@relaxed
@given(
    records=record_lists,
    kill_after=st.integers(0, 10),
    tear_fraction=st.floats(0.0, 1.0),
)
def test_kill_and_resume_equals_uninterrupted(
    tmp_path, records, kill_after, tear_fraction
):
    kill_after = min(kill_after, len(records))

    def _append_all(journal, batch):
        for record in batch:
            if record["kind"] == "trial":
                journal.append_trial(
                    record["job"], record["context"], record["config"],
                    record["record"],
                )
            else:
                journal.append_job_done(record["job"])

    straight = tmp_path / "straight"
    _clear(straight / "r" / "journal.jsonl")
    with RunJournal(straight, "r", []) as journal:
        _append_all(journal, records)
    uninterrupted = load_run_state(straight / "r" / "journal.jsonl")
    # a live journal's state is what a reader parses back from its file
    assert _state_key(journal.state) == _state_key(uninterrupted)

    crashed = tmp_path / "crashed"
    path = crashed / "r" / "journal.jsonl"
    _clear(path)
    with RunJournal(crashed, "r", []) as journal:
        _append_all(journal, records[:kill_after])
    if kill_after < len(records):
        # the crash interrupts the next append mid-write
        torn = _serialize(records[kill_after : kill_after + 1])[0]
        with path.open("ab") as handle:
            handle.write(torn[: int(len(torn) * tear_fraction)])
    with RunJournal(crashed, "r", [], resume=True) as journal:
        tail = records[kill_after:]
        # a torn record was dropped by the resume truncation, so the
        # resumed writer re-appends it along with everything after it
        _append_all(journal, tail)
    resumed = load_run_state(path)

    assert not resumed.torn_tail
    assert _state_key(journal.state) == _state_key(resumed)
    assert _state_key(resumed) == _state_key(uninterrupted)


@relaxed
@given(records=record_lists, cut=st.integers(0, 1 << 12))
def test_resume_truncation_leaves_a_clean_journal(tmp_path, records, cut):
    root = tmp_path / "runs"
    path = root / "r" / "journal.jsonl"
    _clear(path)
    with RunJournal(root, "r", []) as journal:
        for record in records:
            if record["kind"] == "trial":
                journal.append_trial(
                    record["job"], record["context"], record["config"],
                    record["record"],
                )
            else:
                journal.append_job_done(record["job"])
    data = path.read_bytes()
    header_len = data.index(b"\n") + 1  # resume needs the run header
    cut = max(header_len, min(cut, len(data)))
    before = load_run_state(path)
    path.write_bytes(data[:cut])

    RunJournal(root, "r", [], resume=True).close()

    after = load_run_state(path)
    assert not after.torn_tail
    assert path.stat().st_size == after.valid_bytes
    # resuming never invents state the cut did not preserve
    assert set(after.finished) <= set(before.finished)
