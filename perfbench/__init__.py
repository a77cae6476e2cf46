"""Benchmark for mdp-workbench: seeded job streams, answer checks and tracing.

Run it from the repository root::

    python3 perfbench/run.py --workload enum-tables --seed 1 --seconds 20 --trace 0

See ``perfbench/README.md`` for the workloads, the metrics and the table of
which layer metric should move which end-to-end metric.
"""
