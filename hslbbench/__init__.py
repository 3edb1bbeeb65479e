"""End-to-end benchmark of the HSLB pipeline and its serving tier.

Run it from the root of a checkout::

    python3 hslbbench/run.py --workload cesm-table3 --seed 1 --seconds 24 --trace 0

See ``hslbbench/NOTES.md`` for the workloads, the metrics and how they are
checked.
"""
