"""Search-as-a-service: a sharded, multi-tenant grid daemon.

The service promotes ``mixpbench grid`` from a one-shot CLI into a
long-running system (``mixpbench serve`` / ``submit`` / ``status`` /
``attach`` / ``cancel``):

* :mod:`repro.service.spec` — the submittable :class:`GridSpec` and
  the ledger's :class:`JobRecord`;
* :mod:`repro.service.queue` — the durable on-disk queue: an fsync'd
  service journal plus the state-directory layout;
* :mod:`repro.service.scheduler` — the :class:`Scheduler`: per-tenant
  quotas, first-come, first-served shard dispatch over one FIFO
  queue, worker-crash redispatch, cancellation, drains, and crash
  recovery;
* :mod:`repro.service.client` — the daemon-free client half (spool
  submission handshake, read-only status, streaming attach).

See ``docs/service.md`` for the architecture walkthrough.
"""

from repro.service.client import (
    ATTACH_EXIT_CODES, ServiceError, attach, job_status, request_cancel,
    results_path, service_status, submit_request,
)
from repro.service.queue import (
    SERVICE_JOURNAL_VERSION, ServiceJournal, ServiceState,
    load_service_state, state_paths,
)
from repro.service.scheduler import (
    QuotaExceeded, Scheduler, SchedulerHooks, ServiceDraining, UnknownJob,
)
from repro.service.spec import (
    JOB_STATES, TERMINAL_STATES, GridSpec, JobRecord, SpecError,
)

__all__ = [
    "ATTACH_EXIT_CODES", "GridSpec", "JOB_STATES", "JobRecord",
    "QuotaExceeded", "SERVICE_JOURNAL_VERSION", "Scheduler",
    "SchedulerHooks", "ServiceDraining", "ServiceError", "ServiceJournal",
    "ServiceState", "SpecError", "TERMINAL_STATES", "UnknownJob",
    "attach", "job_status", "load_service_state", "request_cancel",
    "results_path", "service_status", "state_paths", "submit_request",
]
