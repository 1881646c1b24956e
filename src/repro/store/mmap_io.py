"""Zero-copy model loading for read-only serving replicas.

A checkpoint stores each array as its own ``.npy`` file precisely so a
replica that only *serves* (no updating) can open the model with
``np.load(mmap_mode="r")``: the kernel maps the file pages, and a
mapped array costs no resident memory until a query touches a row
(benchmarked in ``benchmarks/bench_store_open.py``).

The mapped arrays are read-only; :class:`~repro.core.model.LSIModel`
never mutates its arrays, so the model behaves identically to a fully
loaded one — queries fault in exactly the pages they score against.

Both functions here are one call of the store's door
(:func:`repro.store.recovery.open_checkpoint`) and inherit its
integrity rule: the *newest* checkpoint is verified before it is opened
— one CRC pass over every array file, so open time is O(bytes); only a
checkpoint opened *by name* is O(header).  A caller that wants both the
model and the quantizer calls the door once and decodes both (the
tenant registry and the cluster do); calling both functions here
verifies twice.
"""

from __future__ import annotations

import pathlib

from repro.core.model import LSIModel
from repro.serving.ann import CoarseQuantizer
from repro.store.recovery import open_checkpoint

__all__ = ["open_latest_model", "open_latest_ann"]


def open_latest_model(
    data_dir: pathlib.Path,
    *,
    mmap: bool = True,
) -> LSIModel:
    """Map the newest valid checkpoint under a store data directory.

    The read-only replica entry point: point it at the same
    ``--data-dir`` a writer maintains and serve.  Note this reflects the
    last *checkpoint*, not the WAL tail — replicas trade bounded
    staleness for never touching the writer's log.
    """
    return open_checkpoint(data_dir, mmap=mmap).model()


def open_latest_ann(
    data_dir: pathlib.Path,
    *,
    mmap: bool = True,
) -> CoarseQuantizer:
    """Map the newest valid checkpoint's coarse quantizer."""
    return open_checkpoint(data_dir, mmap=mmap).ann()
