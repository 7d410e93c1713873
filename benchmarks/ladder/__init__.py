"""The layer ladder: the repo's one benchmark, measured from outside.

Four workloads (two simulated, two served), six end-to-end metrics and a
per-layer cost-per-transaction table.  Nothing under ``src/`` is edited:
every layer is timed through its public callables, wrapped at class level
by :mod:`benchmarks.ladder.layers`.

Run the full set with::

    PYTHONPATH=src python -m benchmarks.ladder [--seed N] [--workload NAME] [--trace]

or one measured run the way the driver does (``BENCHMARK.json``)::

    python3 benchmarks/ladder/run.py --workload des_eager_hot --seed 11 --seconds 30 --trace 0

See ``README.md`` beside this file for the metric and workload tables.
"""
