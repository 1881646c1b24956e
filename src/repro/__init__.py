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

import importlib

__version__ = "1.0.0"

#: The quick-start names, each resolved from the module that defines it
#: on first access (PEP 562): ``import repro`` loads no subpackage, so a
#: ``python -m repro`` process imports only what its command runs.
_QUICK_START = {
    "LSIModel": "repro.core.model",
    "fit_lsi": "repro.core.build",
    "fit_lsi_from_tdm": "repro.core.build",
    "project_query": "repro.core.query",
    "rank_documents": "repro.core.similarity",
    "retrieve": "repro.core.similarity",
    "nearest_terms": "repro.core.similarity",
    "LSIRetrieval": "repro.retrieval.engine",
    "KeywordRetrieval": "repro.retrieval.keyword",
    "ParsingRules": "repro.text.parser",
    "WeightingScheme": "repro.weighting.schemes",
    "fold_in_documents": "repro.updating.folding",
    "fold_in_terms": "repro.updating.folding",
    "fold_in_texts": "repro.updating.folding",
    "update_documents": "repro.updating.svd_update",
    "update_terms": "repro.updating.svd_update",
    "update_weights": "repro.updating.svd_update",
    "ReproError": "repro.errors",
    "ShapeError": "repro.errors",
    "SparseFormatError": "repro.errors",
    "ConvergenceError": "repro.errors",
    "VocabularyError": "repro.errors",
    "ModelStateError": "repro.errors",
    "EvaluationError": "repro.errors",
    "ServerOverloadError": "repro.errors",
    "DeadlineExceededError": "repro.errors",
}

__all__ = ["__version__", *_QUICK_START]


def __getattr__(name: str):
    try:
        module = _QUICK_START[name]
    except KeyError:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}"
        ) from None
    value = getattr(importlib.import_module(module), name)
    globals()[name] = value
    return value
