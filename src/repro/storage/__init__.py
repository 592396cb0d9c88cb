"""Dropbox-like storage backend substrate (§5).

Functional pieces (real bytes flow through the real codec):

* :mod:`repro.storage.blockstore` — 4-MiB content-addressed chunk
  storage with round-trip admission.
* :mod:`repro.storage.safety` — shutoff switch, alert pipeline.
* :mod:`repro.storage.qualification` — the pre-deployment corpus run.
* :mod:`repro.storage.deployment` — qualified-build registry (and the
  §6.7 accidental-rollback anomaly).
* :mod:`repro.storage.sandbox` — the SECCOMP-analogue operation policy.

Simulation pieces (discrete-event models that regenerate the deployment
figures):

* :mod:`repro.storage.simclock` — event kernel.
* :mod:`repro.storage.blockserver` / :mod:`repro.storage.fleet` —
  processor-sharing servers, random load balancing, outsourcing (Fig 9/10).
* :mod:`repro.storage.workload` — diurnal/weekly arrival processes
  (Fig 5/13/14).
* :mod:`repro.storage.thp` — transparent-huge-pages stall model (Fig 12).
* :mod:`repro.storage.power` / :mod:`repro.storage.backfill` — backfill
  fleet and its power footprint (Fig 11, §5.6.1).
"""
