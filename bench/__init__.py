"""Benchmark of the repro library: the Fig. 6 optimization and three
verification Monte-Carlo workloads, end to end and per layer.

Run ``python3 -m bench`` from the repository root; see
``bench/README.md``.
"""
