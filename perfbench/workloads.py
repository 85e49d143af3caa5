"""Workloads: the model files each one writes at set-up and the jobs it runs.

A job is one model file run through one library entry point with the CLI
defaults.  The benchmark seed only chooses the corpus-mixed models; the two
ladders are fixed inputs, so the seed leaves them unchanged.

Nothing here imports ``finhopf`` at module level: the import is part of the
set-up time the worker measures.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path

WORKLOADS = ("cgk-pairh3", "axioms-sl2", "corpus-mixed")

# Short rungs: every job repeats many times in a run, so its median over
# the passes is steady on a shared machine (see README.md).
PAIRH3_TRUNCATIONS = (4, 6)
SL2_TRUNCATIONS = (4, 6)

# Entry point -> keyword arguments: the defaults of the matching CLI command.
ENTRY_DEFAULTS = {
    "cgk": {"samples": 60, "seed": 11},
    "check-axioms": {"samples": 100, "seed": 1},
    "roundtrip": {"samples": 60, "seed": 11},
}


@dataclass(frozen=True)
class Job:
    entry: str  # a key of ENTRY_DEFAULTS
    model: str  # model name; the file is <model>.json in the work directory

    @property
    def key(self) -> str:
        return f"{self.entry}:{self.model}"


def sl2_model(truncation: int) -> dict:
    """sl2 = span(H, E, F) over one point, with Z/2 acting by the Chevalley
    involution H -> -H, E <-> F.

    [H, E] = 2E, [H, F] = -2F, [E, F] = H.  The fiber is not nilpotent, so PBW
    straightening keeps producing bracket terms, and the involution makes
    every transport along the non-unit arrow a real substitution.
    """
    return {
        "format": "hopf-algebroid-model",
        "version": 1,
        "kind": "convolution",
        "base": ["x"],
        "groupoid": {
            "arrows": [
                {"id": "e", "src": "x", "tgt": "x"},
                {"id": "s", "src": "x", "tgt": "x"},
            ],
            "units": {"x": "e"},
            "inverse": {"e": "e", "s": "s"},
            "compose": [
                ["e", "e", "e"],
                ["e", "s", "s"],
                ["s", "e", "s"],
                ["s", "s", "e"],
            ],
        },
        "bundle": [{
            "point": "x",
            "basis": ["H", "E", "F"],
            "brackets": [
                ["H", "E", {"E": 2}],
                ["H", "F", {"F": -2}],
                ["E", "F", {"H": 1}],
            ],
        }],
        "action": [
            {"arrow": "e", "matrix": [[1, 0, 0], [0, 1, 0], [0, 0, 1]]},
            {"arrow": "s", "matrix": [[-1, 0, 0], [0, 0, 1], [0, 1, 0]]},
        ],
        "truncation": truncation,
    }


def corpus_seeds(seed: int, strata) -> list[int]:
    """One ``random_model`` seed from each stratum, chosen by the bench seed.

    The strata split the lighter half of the seed pool by recorded job time
    (see ``record_reference.py``), so every bench seed draws the same mix of
    models and the corpus cost hardly depends on the seed.
    """
    rng = random.Random(seed)
    return [rng.choice(stratum) for stratum in strata]


def model_documents(workload: str, seed: int, strata) -> tuple[dict, list[Job]]:
    """The model documents a workload needs, by name, and its job list."""
    from finhopf import models

    if workload == "cgk-pairh3":
        docs = {}
        for n in PAIRH3_TRUNCATIONS:
            doc = models.pairh3_model()
            doc["truncation"] = n
            docs[f"pairh3-N{n}"] = doc
        return docs, [Job("cgk", name) for name in docs]
    if workload == "axioms-sl2":
        docs = {f"sl2-N{n}": sl2_model(n) for n in SL2_TRUNCATIONS}
        return docs, [Job("check-axioms", name) for name in docs]
    if workload == "corpus-mixed":
        docs, jobs = {}, []
        for s in corpus_seeds(seed, strata):
            name = f"random-{s}"
            docs[name] = models.random_model(s)
            jobs += [Job("check-axioms", name), Job("roundtrip", name)]
        docs["z2line"] = models.z2line_model()
        docs["funs3"] = models.funs3_model()
        jobs += [
            Job("check-axioms", "z2line"), Job("roundtrip", "z2line"),
            Job("check-axioms", "funs3"), Job("cgk", "funs3"),
        ]
        return docs, jobs
    raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")


def write_inputs(workload: str, seed: int, strata, workdir: Path) -> tuple[dict, list[Job]]:
    """Write every model file of the workload into ``workdir``.

    The bench-only sl2 model is loaded back and must pass ``validate()``,
    so the axioms-sl2 workload never runs on a model with broken structure.
    """
    from finhopf import modelio

    docs, jobs = model_documents(workload, seed, strata)
    for name, doc in docs.items():
        modelio.save_model(doc, workdir / f"{name}.json")
    if workload == "axioms-sl2":
        for name in docs:
            violations = modelio.load_carrier(workdir / f"{name}.json").validate()
            if violations:
                raise RuntimeError(f"bench model {name} is invalid: {violations}")
    return docs, jobs
