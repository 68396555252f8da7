"""End-to-end benchmark of the reduction system, with a traced per-layer run.

``perfbench/run.py`` is the entry point; ``workloads.py`` holds the
workload registry, ``reference.py`` the normalizing reference loop,
``tracing.py`` the span recorder, ``metrics.py`` the metric definitions
and ``gates.py`` the correctness checks.
"""
