"""Benchmark-suite configuration: everything here is a pytest-benchmark.

OpenBLAS runs on one thread, as in the test suite and the end-to-end
benchmark's children, so a benchmark's records match theirs.
"""

import os

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import sys  # noqa: E402

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
