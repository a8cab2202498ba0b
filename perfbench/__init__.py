"""End-to-end and per-layer benchmark of the cpdlab command line.

Run ``python3 perfbench/run.py --workload paper-train --seed 7 --seconds 20
--trace 0`` from the repository root; see ``perfbench/README.md``.
"""
