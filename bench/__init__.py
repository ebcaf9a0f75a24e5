"""The repo benchmark: four paper-shaped workloads measured from outside.

Nothing here is imported by ``src/repro``; every layer is timed around
its public functions.  See ``bench/README.md`` for the definitions.
"""
