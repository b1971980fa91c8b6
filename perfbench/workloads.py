"""Workload definitions and the seeded input generator.

Every input is made here from the run's seed with numpy alone: the
generating models, the text corpus sampled from them, the slow-mixing chain
that the mixing analyses run on, and the per-lag model that is lifted.  The
sampler is the benchmark's own, so a change to the program's generator can
never change the inputs.

All generating matrices share one shape.  Row i holds a ring edge to i+1
with a fixed probability, a skip edge to i+2 (the two cycles of lengths n
and n-1 make the chain aperiodic), and a fixed number of random successors;
the skip and random edges share the rest of the mass by Dirichlet weights.
The ring probability sets how slowly the chain mixes, whatever the seed.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    n: int                  # states of the generating model
    successors: int         # random successors per row, besides ring and skip edges
    ring: float             # probability of the ring edge i -> i+1
    k: int                  # lags of the generating model and of training
    decay: float            # lag weights proportional to decay**i
    sequences: int          # corpus lines
    length: int             # states per line
    sessions: bool          # start each line with a token of its own (a session id)
    rounds: float           # lamp train --rounds
    plain_eval: str         # held-out evaluate without --floor: "run", "fails" or "skip"
    chain_n: int            # states of the chain analyzed by mixing and bound; 0: the generating model
    chain_ring: float       # ring probability of that chain
    exponent_steps: int     # lamp analyze exponent --steps
    generate_length: int    # lamp generate --length
    glamp_n: int            # states of the per-lag model that is lifted
    glamp_k: int            # lags of that model; the lift has glamp_n**glamp_k states


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="wide",
            why="2000 sparse states, short lines: per-row and per-sequence Python work in learn, data and serialization",
            n=2000, successors=3, ring=0.3, k=4, decay=0.6,
            sequences=700, length=40, sessions=True, rounds=2.5, plain_eval="fails",
            chain_n=100, chain_ring=0.8, exponent_steps=20_000, generate_length=20_000,
            glamp_n=8, glamp_k=3,
        ),
        Workload(
            name="deep",
            why="150 states, k=8, long lines: near-dense trained rows, so scoring and the initializer cost per position and lag",
            n=150, successors=3, ring=0.3, k=8, decay=0.85,
            sequences=40, length=500, sessions=False, rounds=1.5, plain_eval="run",
            chain_n=100, chain_ring=0.8, exponent_steps=20_000, generate_length=20_000,
            glamp_n=8, glamp_k=3,
        ),
        Workload(
            name="chain",
            why="slowly mixing 600-state chain, an 8000-state lift and a small corpus: analysis and glamp carry the load",
            n=600, successors=2, ring=0.7, k=3, decay=0.6,
            sequences=40, length=200, sessions=False, rounds=1.5, plain_eval="skip",
            chain_n=0, chain_ring=0.7, exponent_steps=50_000, generate_length=50_000,
            glamp_n=20, glamp_k=3,
        ),
    )
}

#: Tolerances and settings the stages pass to the command line.
DELTA = 0.01
EPSILON = 1.0
BOUND_T = 100
STATIONARY_TOL = 1e-10
SPLIT = 0.9
KN_ORDER = 3


@dataclass(frozen=True)
class Chain:
    """A generating model held as rectangular arrays: row i of ``cols`` lists
    the successors of state i and the same row of ``probs`` their probabilities."""

    w: np.ndarray
    cols: np.ndarray
    probs: np.ndarray

    @property
    def n(self) -> int:
        return self.cols.shape[0]

    def dense(self) -> np.ndarray:
        out = np.zeros((self.n, self.n))
        np.add.at(out, (np.repeat(np.arange(self.n), self.cols.shape[1]), self.cols.ravel()), self.probs.ravel())
        return out


@dataclass(frozen=True)
class Inputs:
    """Everything a round needs, as written to the work directory."""

    workload: Workload
    gen: Chain              # generates the corpus; stationary, exponent and generate run on it
    chain: Chain            # mixing and bound run on it
    glamp_w: np.ndarray
    glamp_mats: tuple       # dense per-lag matrices of the lifted model
    glamp_lag_map: tuple
    lines: list             # corpus text lines
    paths: dict


def lag_weights(k: int, decay: float) -> np.ndarray:
    raw = decay ** np.arange(1, k + 1, dtype=np.float64)
    return raw / raw.sum()


def ring_chain(rng: np.random.Generator, n: int, successors: int, ring: float, w: np.ndarray) -> Chain:
    cols = np.empty((n, successors + 2), dtype=np.int64)
    probs = np.empty((n, successors + 2))
    offsets = np.arange(3, n)
    for i in range(n):
        cols[i, 0] = (i + 1) % n
        cols[i, 1] = (i + 2) % n
        cols[i, 2:] = (i + rng.choice(offsets, size=successors, replace=False)) % n
    probs[:, 0] = ring
    probs[:, 1:] = (1.0 - ring) * rng.dirichlet(np.full(successors + 1, 2.0), size=n)
    order = np.argsort(cols, axis=1)
    return Chain(w, np.take_along_axis(cols, order, 1), np.take_along_axis(probs, order, 1))


def sample(rng: np.random.Generator, chain: Chain, sequences: int, length: int) -> np.ndarray:
    """(sequences, length) state ids drawn from the lag-mixture process: each
    step draws a lag from w and the next state from the row of the state at
    that lag, clamped to the first state near the start."""
    cum = np.cumsum(chain.probs, axis=1)
    cum[:, -1] = 1.0
    lag_cum = np.cumsum(chain.w)
    lag_cum[-1] = 1.0
    out = np.empty((sequences, length), dtype=np.int64)
    out[:, 0] = rng.integers(chain.n, size=sequences)
    rows = np.arange(sequences)
    for t in range(1, length):
        lag = np.searchsorted(lag_cum, rng.random(sequences), side="right") + 1
        src = out[rows, np.maximum(t - lag, 0)]
        pick = (cum[src] <= rng.random(sequences)[:, None]).sum(axis=1)
        out[:, t] = chain.cols[src, pick]
    return out


def model_doc(chain: Chain) -> dict:
    n = chain.n
    return {
        "k": int(chain.w.size),
        "w": [float(v) for v in chain.w],
        "n": n,
        "vocab": [f"s{i}" for i in range(n)],
        "matrix": [[i, int(c), float(p)] for i in range(n) for c, p in zip(chain.cols[i], chain.probs[i])],
    }


def glamp_doc(w: np.ndarray, mats: tuple, lag_map: tuple) -> dict:
    n = mats[0].shape[0]
    return {
        "k": int(w.size),
        "w": [float(v) for v in w],
        "n": n,
        "vocab": [f"g{i}" for i in range(n)],
        "lag_map": list(lag_map),
        "matrices": [
            [[i, j, float(m[i, j])] for i in range(n) for j in range(n) if m[i, j] > 0.0] for m in mats
        ],
    }


def _write_json(doc: dict, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, sort_keys=True, separators=(",", ":"))
        fh.write("\n")


def make_inputs(workload: Workload, seed: int, workdir: str) -> Inputs:
    """Generate every input of one run from its seed and write it to ``workdir``."""
    rng = np.random.default_rng([seed, sum(map(ord, workload.name))])
    w = lag_weights(workload.k, workload.decay)
    gen = ring_chain(rng, workload.n, workload.successors, workload.ring, w)
    if workload.chain_n:
        chain = ring_chain(rng, workload.chain_n, 2, workload.chain_ring, lag_weights(3, 0.6))
    else:
        chain = gen
    names = np.array([f"s{i}" for i in range(workload.n)])
    states = sample(rng, gen, workload.sequences, workload.length)
    lines = [" ".join(names[row]) for row in states]
    if workload.sessions:
        lines = [f"u{i} {line}" for i, line in enumerate(lines)]
    gn = workload.glamp_n
    glamp_w = lag_weights(workload.glamp_k, 0.6)
    glamp_mats = tuple(rng.dirichlet(np.ones(gn), size=gn) for _ in range(2))
    glamp_lag_map = (1,) + (2,) * (workload.glamp_k - 1)

    os.makedirs(workdir, exist_ok=True)
    paths = {
        key: os.path.join(workdir, name)
        for key, name in (
            ("corpus", "corpus.txt"), ("gen", "gen.json"), ("chain", "chain.json"),
            ("glamp", "glamp.json"), ("cache", "cache.json"), ("train", "cache.train.json"),
            ("test", "cache.test.json"), ("model", "model.json"), ("report", "model.report.jsonl"),
            ("eval", "eval.json"), ("eval_floor", "eval_floor.json"), ("eval_train", "eval_train.json"), ("kn", "kn.json"),
            ("pi", "pi.json"), ("mix", "mix.json"), ("bound", "bound.json"), ("exp", "exp.json"),
            ("generated", "generated.json"),
        )
    }
    with open(paths["corpus"], "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines))
        fh.write("\n")
    _write_json(model_doc(gen), paths["gen"])
    _write_json(model_doc(chain), paths["chain"])
    _write_json(glamp_doc(glamp_w, glamp_mats, glamp_lag_map), paths["glamp"])
    return Inputs(workload, gen, chain, glamp_w, glamp_mats, glamp_lag_map, lines, paths)
