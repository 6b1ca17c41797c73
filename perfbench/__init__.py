"""Whole-pipeline benchmark for the pointer-analysis package under ``src/``.

Run from the repository root::

    python3 perfbench/run.py --workload cli-suite --seed 1 --seconds 16 --trace 0

See ``perfbench/README.md`` for the workloads, the metrics and the
layer-to-metric mapping.
"""
