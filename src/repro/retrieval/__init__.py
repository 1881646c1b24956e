"""Retrieval engines and interactive-retrieval machinery.

* :mod:`repro.retrieval.keyword` — the standard keyword vector method
  (SMART-style), the baseline every §5 comparison is made against.
* :mod:`repro.retrieval.engine` — the LSI retrieval engine.
* :mod:`repro.retrieval.feedback` — relevance feedback (§5.1): replace
  the query with the mean of relevant document vectors, or Rocchio
  reweighting.
* :mod:`repro.retrieval.filtering` — information filtering (§5.3):
  standing interest profiles matched against a document stream.
"""

from repro.retrieval.engine import LSIRetrieval
from repro.retrieval.keyword import KeywordRetrieval
from repro.retrieval.feedback import (
    mean_relevant_query,
    rocchio,
)
from repro.retrieval.filtering import FilteringProfile, stream_filter
from repro.retrieval.multitopic import (
    MultiTopicQuery,
    multi_topic_scores,
    multi_topic_search,
)
from repro.retrieval.composite import CompositeQuery

__all__ = [
    "LSIRetrieval",
    "KeywordRetrieval",
    "mean_relevant_query",
    "rocchio",
    "FilteringProfile",
    "stream_filter",
    "MultiTopicQuery",
    "multi_topic_scores",
    "multi_topic_search",
    "CompositeQuery",
]
