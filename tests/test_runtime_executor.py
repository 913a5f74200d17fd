"""Tests for the runtime's pool factory (repro.runtime.make_scheduler).

``make_scheduler`` turns an :class:`~repro.core.options.Options` backend
string into the executor a campaign maps its work over.  The executor
behaviour itself (ordering, failures, worker death) is covered in
``test_async_engine.py``.
"""

import pytest

from repro.runtime.async_engine import (
    ProcessScheduler,
    SerialScheduler,
    ThreadScheduler,
    make_scheduler,
)


class TestFactory:
    def test_make_serial(self):
        assert isinstance(make_scheduler("serial"), SerialScheduler)

    def test_make_thread(self):
        ex = make_scheduler("thread", 2)
        assert isinstance(ex, ThreadScheduler) and ex.n_workers == 2
        ex.shutdown()

    def test_make_process(self):
        ex = make_scheduler("process", 1)
        assert isinstance(ex, ProcessScheduler) and ex.n_workers == 1
        ex.shutdown()

    def test_unknown_backend(self):
        with pytest.raises(ValueError):
            make_scheduler("quantum")
