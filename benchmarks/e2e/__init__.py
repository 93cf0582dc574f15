"""The repository's end-to-end regression benchmark (see README.md here).

``python3 -m benchmarks.e2e`` runs every workload; ``BENCHMARK.json`` at
the repository root names the metrics and their regression bounds.
"""
