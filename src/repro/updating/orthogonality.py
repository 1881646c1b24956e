"""Orthogonality drift diagnostics for updated models (§4.3).

"The folding-in process corrupts the orthogonality of Û_k and V̂_k by
appending non-orthogonal submatrices ... the loss of orthogonality ...
can be measured by ‖ÛᵀÛ − I‖₂ and ‖V̂ᵀV̂ − I‖₂.  ... the amount by which
the folding-in method perturbs the orthogonality ... does indicate how
much distortion has occurred."

The paper flags correlating that loss with retrieval degradation as
"significant insights in the future"; :func:`fold_in_drift_curve` runs
that proposed experiment (used by ``benchmarks/bench_orthogonality.py``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from repro.core.model import LSIModel
from repro.linalg.orth import orthogonality_loss
from repro.obs.bridge import record_drift
from repro.updating.folding import fold_in_documents

__all__ = ["OrthogonalityReport", "drift_report", "fold_in_drift_curve"]


@dataclass(frozen=True)
class OrthogonalityReport:
    """Snapshot of a model's basis quality.

    Attributes
    ----------
    term_loss:
        ``‖ÛᵀÛ − I‖₂`` over the term vectors.
    doc_loss:
        ``‖V̂ᵀV̂ − I‖₂`` over the document vectors.
    provenance:
        Which pipeline produced the model (fold-in is the only one
        expected to show non-trivial loss).
    """

    term_loss: float
    doc_loss: float
    provenance: str


def drift_report(model: LSIModel) -> OrthogonalityReport:
    """Measure both orthogonality losses of a model.

    Each measurement is also published to the metrics registry
    (``orthogonality.term_loss`` / ``orthogonality.doc_loss`` gauges),
    so §4.3 drift is visible in ``python -m repro stats`` next to the
    serving and Lanczos metrics.
    """
    report = OrthogonalityReport(
        term_loss=orthogonality_loss(model.U),
        doc_loss=orthogonality_loss(model.V),
        provenance=model.provenance,
    )
    record_drift(report)
    return report


def fold_in_drift_curve(
    model: LSIModel,
    batches: Sequence[np.ndarray],
    *,
    metric: Callable[[LSIModel], float] | None = None,
) -> list[dict]:
    """Fold document batches in one at a time, recording loss (and an
    optional retrieval metric) after each batch.

    Parameters
    ----------
    model:
        The starting (clean) model.
    batches:
        Raw count blocks ``(m, p_i)`` to fold in sequentially.
    metric:
        Optional callable evaluated on each intermediate model (e.g.
        average precision over a fixed query set).

    Returns
    -------
    One record per state (including the initial one) with keys
    ``n_documents``, ``doc_loss``, ``term_loss`` and optionally ``metric``.
    """
    records = []

    def snap(current: LSIModel) -> None:
        rep = drift_report(current)
        rec = {
            "n_documents": current.n_documents,
            "doc_loss": rep.doc_loss,
            "term_loss": rep.term_loss,
        }
        if metric is not None:
            rec["metric"] = float(metric(current))
        records.append(rec)

    snap(model)
    current = model
    for b, batch in enumerate(batches):
        ids = [
            f"F{b}_{i}" for i in range(np.atleast_2d(batch).shape[-1])
        ]
        current = fold_in_documents(current, batch, ids)
        snap(current)
    return records
