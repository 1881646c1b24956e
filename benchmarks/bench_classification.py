"""§5.7 — LSI dimensions as predictor variables for classification.

Regenerates the related-work recipe (Hull; Yang & Chute; Wu et al.):
LSI-derived features match or beat raw term-vector features for document
classification while using an order of magnitude fewer dimensions —
"using the LSI-derived dimensions effectively reduces the number of
predictor variables".  Times the LSI-feature train+test cycle.
"""

import numpy as np

from conftest import emit
from repro.apps.classification import (
    CentroidClassifier,
    classification_accuracy,
    lsi_features,
)
from repro.core.build import fit_lsi
from repro.corpus.synthetic import SyntheticSpec, topic_collection
from repro.text.tdm import build_tdm, count_vector
from repro.text.tokenizer import tokenize


def test_lsi_features_vs_raw_terms(benchmark):
    n_topics = 5
    col = topic_collection(
        SyntheticSpec(
            n_topics=n_topics, docs_per_topic=24, doc_length=40,
            concepts_per_topic=12, synonyms_per_concept=3,
            queries_per_topic=0, polysemy=0.3,
            background_vocab=30, background_rate=0.3,
        ),
        seed=13,
    )
    labels = [t for t in range(n_topics) for _ in range(24)]
    train_idx = [i for i in range(len(labels)) if i % 2 == 0]
    test_idx = [i for i in range(len(labels)) if i % 2 == 1]
    train_docs = [col.documents[i] for i in train_idx]
    test_docs = [col.documents[i] for i in test_idx]
    y_train = [labels[i] for i in train_idx]
    y_test = [labels[i] for i in test_idx]

    # LSI features: k = 10 predictors.
    def lsi_cycle():
        model = fit_lsi(train_docs, k=10, scheme="log_entropy", seed=0)
        Xtr = lsi_features(model, train_docs)
        Xte = lsi_features(model, test_docs)
        clf = CentroidClassifier.fit(Xtr, y_train, discriminant=True)
        return classification_accuracy(clf, Xte, y_test), model.n_terms

    lsi_acc, n_terms = benchmark(lsi_cycle)

    # Raw term features: m predictors.
    tdm = build_tdm(train_docs)
    Xtr_raw = np.stack(
        [count_vector(tokenize(t), tdm.vocabulary) for t in train_docs]
    )
    Xte_raw = np.stack(
        [count_vector(tokenize(t), tdm.vocabulary) for t in test_docs]
    )
    raw_clf = CentroidClassifier.fit(Xtr_raw, y_train)
    raw_acc = classification_accuracy(raw_clf, Xte_raw, y_test)

    rows = [
        f"{'features':<24s}{'dims':>6s}{'accuracy':>10s}",
        f"{'raw term vectors':<24s}{tdm.n_terms:>6d}{raw_acc:>10.3f}",
        f"{'LSI dimensions':<24s}{10:>6d}{lsi_acc:>10.3f}",
        f"chance = {1 / n_topics:.2f} ({n_topics} classes)",
        "§5.7: LSI reduces the predictor count for downstream "
        "classifiers (Hull; Yang & Chute; Wu et al.)",
    ]
    emit("§5.7 — LSI features for classification", rows)

    assert lsi_acc > 0.8
    assert lsi_acc >= raw_acc - 0.05
    assert 10 < tdm.n_terms / 5  # an order-of-magnitude style reduction