"""§5.4 — the no-stemming claim: doctor / doctors / doctoral.

Regenerates: "no stemming is used to collapse words with the same
morphology.  If words with the same stem are used in similar documents
they will have similar vectors ...; otherwise, they will not.  (doctor
is quite near doctors but not as similar to doctoral.)" — measured as
cos(base, inflection) vs cos(base, derivation) over generated word
families.  Times the model fit on the morphology corpus.
"""

import numpy as np

from conftest import emit
from repro.core.build import fit_lsi
from repro.core.similarity import term_cosines
from repro.corpus.morphology import morphology_corpus


def test_morphological_neighbours(benchmark):
    corpus = morphology_corpus(n_families=8, seed=3)

    model = benchmark(
        fit_lsi, corpus.documents, 16, scheme="log_entropy", seed=0
    )

    infl, deriv = [], []
    for base, inflection, derivation in corpus.families:
        v = model.vocabulary
        ci, cd = term_cosines(
            model, base, [v.id_of(inflection), v.id_of(derivation)]
        )
        infl.append(float(ci))
        deriv.append(float(cd))

    rows = [f"{'family':<10s}{'cos(base, infl)':>16s}{'cos(base, deriv)':>17s}"]
    for (base, _, _), ci, cd in zip(corpus.families, infl, deriv):
        rows.append(f"{base:<10s}{ci:>16.3f}{cd:>17.3f}")
    rows.append(
        f"means: inflection {np.mean(infl):.3f} vs derivation "
        f"{np.mean(deriv):.3f}"
    )
    rows.append("paper: 'doctor is quite near doctors but not as similar "
                "to doctoral' — with no stemming anywhere")
    emit("§5.4 — morphology without stemming", rows)

    assert np.mean(infl) > 0.85
    assert np.mean(infl) > np.mean(deriv) + 0.3
    assert all(ci > cd for ci, cd in zip(infl, deriv))
