"""The performance harness behind ``benchmarks/perf/run.py``.

``harness`` holds the estimators (rounds, per-op quiet values, set-up
repetitions), ``oracle`` the independent answers every op is checked
against, ``procs`` the server subprocesses and HTTP clients, ``workloads``
one module per workload, ``report`` the run manifest and A/A comparison.
See ``benchmarks/perf/README.md`` for the rules and why they exist.
"""
