"""§4.3 — orthogonality loss of folding-in, and its retrieval correlate.

Regenerates: the ‖V̂ᵀV̂ − I‖₂ growth curve as document batches are folded
in, side by side with a retrieval-quality metric — the experiment the
paper poses as future research ("monitoring the loss of orthogonality
... and correlating it to the number of relevant documents returned").
Times one drift-curve pass.
"""

import numpy as np

from conftest import emit
from repro.core.build import fit_lsi
from repro.corpus.synthetic import SyntheticSpec, topic_collection
from repro.evaluation.metrics import three_point_average_precision
from repro.retrieval.engine import LSIRetrieval
from repro.text.tdm import count_vector
from repro.text.tokenizer import tokenize
from repro.updating.orthogonality import fold_in_drift_curve


def test_orthogonality_drift_vs_retrieval(benchmark, synonymy_collection):
    col = synonymy_collection
    head = col.documents[: col.n_documents // 2]
    tail = col.documents[col.n_documents // 2 :]
    model = fit_lsi(head, k=12, scheme="log_entropy", seed=0)

    batch_size = 20
    batches = []
    for lo in range(0, len(tail), batch_size):
        chunk = tail[lo : lo + batch_size]
        counts = np.stack(
            [count_vector(tokenize(t), model.vocabulary) for t in chunk],
            axis=1,
        )
        batches.append(counts)

    def metric(m):
        eng = LSIRetrieval(m)
        scores = []
        for qi, q in enumerate(col.queries):
            ranked = [j for j, _ in eng.search(q) if j < m.n_documents]
            rel = {d for d in col.relevant(qi) if d < m.n_documents}
            if rel:
                scores.append(three_point_average_precision(ranked, rel))
        return float(np.mean(scores))

    records = benchmark(fold_in_drift_curve, model, batches, metric=metric)

    rows = [f"{'docs':>6s}{'‖V̂ᵀV̂−I‖₂':>14s}{'3-pt avg prec':>16s}"]
    for r in records:
        rows.append(
            f"{r['n_documents']:>6d}{r['doc_loss']:>14.4f}{r['metric']:>16.3f}"
        )
    emit("§4.3 — fold-in orthogonality drift vs retrieval quality", rows)

    losses = [r["doc_loss"] for r in records]
    assert losses[0] < 1e-10          # clean SVD starts orthonormal
    assert losses[-1] > losses[0]     # drift accumulates
    assert max(losses) == losses[-1] or max(losses) > 0.01
