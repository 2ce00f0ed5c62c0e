"""End-to-end and per-layer benchmark of the iCPDA reproduction.

See ``perfbench/README.md`` for the workloads, the metrics and how to run.
"""
