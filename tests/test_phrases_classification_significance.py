"""Tests for LSI-feature classification."""

import numpy as np
import pytest

from repro.apps.classification import (
    CentroidClassifier,
    classification_accuracy,
    lsi_features,
)
from repro.core.build import fit_lsi
from repro.corpus.synthetic import SyntheticSpec, topic_collection
from repro.errors import ShapeError


# --------------------------------------------------------------------- #
# classification
# --------------------------------------------------------------------- #
@pytest.fixture(scope="module")
def labelled_corpus():
    col = topic_collection(
        SyntheticSpec(n_topics=4, docs_per_topic=16, doc_length=40,
                      concepts_per_topic=10, synonyms_per_concept=3,
                      queries_per_topic=0),
        seed=13,
    )
    labels = [t for t in range(4) for _ in range(16)]
    # interleave train/test
    train_idx = [i for i in range(64) if i % 2 == 0]
    test_idx = [i for i in range(64) if i % 2 == 1]
    return col, labels, train_idx, test_idx


def test_lsi_classifier_beats_chance(labelled_corpus):
    col, labels, train_idx, test_idx = labelled_corpus
    model = fit_lsi(
        [col.documents[i] for i in train_idx], k=8,
        scheme="log_entropy", seed=0,
    )
    X_train = lsi_features(model, [col.documents[i] for i in train_idx])
    X_test = lsi_features(model, [col.documents[i] for i in test_idx])
    clf = CentroidClassifier.fit(X_train, [labels[i] for i in train_idx])
    acc = classification_accuracy(clf, X_test, [labels[i] for i in test_idx])
    assert acc > 0.8  # 4 classes, chance = 0.25


def test_discriminant_weighting_not_worse(labelled_corpus):
    col, labels, train_idx, test_idx = labelled_corpus
    model = fit_lsi(
        [col.documents[i] for i in train_idx], k=8,
        scheme="log_entropy", seed=0,
    )
    X_train = lsi_features(model, [col.documents[i] for i in train_idx])
    X_test = lsi_features(model, [col.documents[i] for i in test_idx])
    y_train = [labels[i] for i in train_idx]
    y_test = [labels[i] for i in test_idx]
    plain = CentroidClassifier.fit(X_train, y_train)
    disc = CentroidClassifier.fit(X_train, y_train, discriminant=True)
    assert disc.discriminant is not None
    acc_p = classification_accuracy(plain, X_test, y_test)
    acc_d = classification_accuracy(disc, X_test, y_test)
    assert acc_d >= acc_p - 0.1


def test_classifier_validation():
    with pytest.raises(ShapeError):
        CentroidClassifier.fit(np.zeros((3, 2)), [0, 1])  # length mismatch
    with pytest.raises(ShapeError):
        CentroidClassifier.fit(np.zeros((3, 2)), [0, 0, 0])  # one class
    clf = CentroidClassifier.fit(np.eye(4), [0, 0, 1, 1])
    with pytest.raises(ShapeError):
        clf.predict(np.zeros((1, 9)))


def test_classification_accuracy_empty():
    clf = CentroidClassifier.fit(np.eye(4), [0, 0, 1, 1])
    assert classification_accuracy(clf, np.zeros((0, 4)), []) == 0.0

