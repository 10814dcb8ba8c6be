"""Ray task entry points of the resumable write path
(``pipelines/extract_pipeline.py``: staging and extraction).

``ray.cancel`` stops a running task by raising KeyboardInterrupt in it.  On
a fresh worker the first task is still importing numpy, pyarrow and pandas,
and an interrupt inside one of those imports leaves the package
half-initialized in that worker for good: every later task there fails with
"partially initialized module ...", Ray Data's tasks included.  So this
module imports nothing heavy — importing it is each task's function load —
and a task runs its imports with SIGINT ignored: a cancel arriving then is
dropped and that task runs to its end.  On a warm worker the imports are
no-ops and a cancel interrupts the work as before.
"""

from __future__ import annotations

import signal
import threading

import ray


def _pipeline():
    """``extract_pipeline``, imported with cancellation held off."""
    main = threading.current_thread() is threading.main_thread()  # signals need it
    prev = signal.signal(signal.SIGINT, signal.SIG_IGN) if main else None
    try:
        import pandas  # noqa: F401 - pyarrow's to_numpy imports it mid-task otherwise

        from .pipelines import extract_pipeline
    finally:
        if main:
            signal.signal(signal.SIGINT, prev)
    return extract_pipeline


@ray.remote
def stage_unit(unit: list[tuple], staging: str, name: str, num_partitions: int) -> None:
    """``extract_pipeline._stage_unit`` as a Ray task."""
    return _pipeline()._stage_unit(unit, staging, name, num_partitions)


@ray.remote
def extract_staged_files(srcs: list[str], dst: str, options, base_url: str,
                         batch_size: int) -> dict:
    """``extract_pipeline._extract_staged_files`` as a Ray task."""
    return _pipeline()._extract_staged_files(srcs, dst, options, base_url, batch_size)
