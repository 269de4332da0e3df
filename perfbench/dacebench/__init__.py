"""The DACE benchmark harness: workloads, traced attribution, provenance.

``perfbench/run.py`` is the command-line entry point; this package holds
everything it drives.  The harness only calls the program's public API
and, in a traced run, wraps public functions from the outside
(:mod:`dacebench.trace`); it never edits ``src/``.
"""
