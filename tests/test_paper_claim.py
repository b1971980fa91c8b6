"""The paper's claim on seeded data: a lag mixture fitted to sequences drawn
from a known lag mixture beats a first-order fit and Kneser-Ney order 3 on
held-out data, and recovers the lag weights.

The sizes, seeds and training settings below were fixed before the first
run.  A failure is a finding about the trainer; the data stays as it is.
"""

import numpy as np
import pytest

from lamp.baselines import fit_kneser_ney, ngram_perplexity
from lamp.core import (
    EVALUATION_FLOOR,
    Corpus,
    HistoryDistribution,
    LampModel,
    SparseStochasticMatrix,
    Vocabulary,
    generate,
    perplexity,
)
from lamp.data import split
from lamp.learn import TrainConfig, alternate_minimize

N_STATES = 40
SUCCESSORS = 3
K = 4
DECAY = 0.6
SEQUENCES = 60
LENGTH = 150
ROUNDS = 3.5


def true_model(rng):
    """Each row moves to SUCCESSORS distinct random states with Dirichlet(1)
    weights; lag weights are proportional to DECAY**i."""
    dense = np.zeros((N_STATES, N_STATES))
    for row in dense:
        row[rng.choice(N_STATES, SUCCESSORS, replace=False)] = rng.dirichlet(np.ones(SUCCESSORS))
    w = DECAY ** np.arange(K)
    return LampModel(HistoryDistribution.from_weights(w / w.sum()),
                     SparseStochasticMatrix.from_dense(dense), Vocabulary.from_size(N_STATES))


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_lamp_beats_first_order_and_kneser_ney_and_recovers_w(seed):
    truth = true_model(np.random.default_rng(seed))
    corpus = Corpus.from_sequences(truth.vocab, [
        generate(truth, start=s % N_STATES, length=LENGTH, seed=1000 * seed + s) for s in range(SEQUENCES)
    ])
    train, test = split(corpus, 0.8, seed)

    lamp, _ = alternate_minimize(train, TrainConfig(k=K, rounds=ROUNDS))
    first_order, _ = alternate_minimize(train, TrainConfig(k=1, rounds=ROUNDS))
    kn = fit_kneser_ney(train, 3, discount=0.75)

    ppl = perplexity(lamp, test, floor=EVALUATION_FLOOR)
    assert ppl < perplexity(first_order, test, floor=EVALUATION_FLOOR)
    assert ppl < ngram_perplexity(kn, test)
    assert np.max(np.abs(lamp.w.weights - truth.w.weights)) <= 0.05
