"""repro — a reproduction of Berry, Dumais & Letsche (SC '95),
"Computational Methods for Intelligent Information Access".

The package implements Latent Semantic Indexing end to end, from scratch:

* a sparse-matrix substrate (:mod:`repro.sparse`: one compressed-column
  type) and the numerical linear algebra LSI runs on (:mod:`repro.linalg`)
  — single-vector Lanczos truncated SVD, with LAPACK for the small dense
  solves;
* text processing (:mod:`repro.text`) and term weighting
  (:mod:`repro.weighting`), including the paper's log×entropy scheme;
* the LSI core (:mod:`repro.core`): model fitting, Eq. 6 queries, cosine
  retrieval;
* updating (:mod:`repro.updating`): folding-in, the three SVD-updating
  phases of §4, orthogonality diagnostics, and the Table 7 cost model;
* retrieval engines and evaluation (:mod:`repro.retrieval`,
  :mod:`repro.evaluation`), corpora and generators (:mod:`repro.corpus`),
  the §5.4 applications (:mod:`repro.apps`), and the row partition and
  exact top-k merge the cluster tier shards by (:mod:`repro.parallel`);
* the query-serving fast path (:mod:`repro.serving`): the cached
  per-model document index and the one exact ranking behind every
  search entry point (an fp32 scan picks candidates, fp64 rescoring
  ranks them), with the full-width fp64 cosine kernel as its reference.

Quick start::

    from repro import fit_lsi, project_query, rank_documents

    model = fit_lsi(documents, k=100, scheme="log_entropy")
    qhat = project_query(model, "age of children with blood abnormalities")
    for doc_id, cosine in rank_documents(model, qhat)[:10]:
        print(doc_id, cosine)
"""

from repro.core import (
    LSIModel,
    fit_lsi,
    fit_lsi_from_tdm,
    nearest_terms,
    project_query,
    rank_documents,
    retrieve,
)
from repro.errors import (
    ConvergenceError,
    DeadlineExceededError,
    EvaluationError,
    ModelStateError,
    ReproError,
    ServerOverloadError,
    ShapeError,
    SparseFormatError,
    VocabularyError,
)
from repro.retrieval import KeywordRetrieval, LSIRetrieval
from repro.text import ParsingRules
from repro.updating import (
    fold_in_documents,
    fold_in_terms,
    fold_in_texts,
    update_documents,
    update_terms,
    update_weights,
)
from repro.weighting import WeightingScheme

__version__ = "1.0.0"

__all__ = [
    "__version__",
    "LSIModel",
    "fit_lsi",
    "fit_lsi_from_tdm",
    "project_query",
    "rank_documents",
    "retrieve",
    "nearest_terms",
    "LSIRetrieval",
    "KeywordRetrieval",
    "ParsingRules",
    "WeightingScheme",
    "fold_in_documents",
    "fold_in_terms",
    "fold_in_texts",
    "update_documents",
    "update_terms",
    "update_weights",
    "ReproError",
    "ShapeError",
    "SparseFormatError",
    "ConvergenceError",
    "VocabularyError",
    "ModelStateError",
    "EvaluationError",
    "ServerOverloadError",
    "DeadlineExceededError",
]
