"""Correctness checks for every job: known answers and canonical digests.

Known answers come from the mathematics, not from the code under test:
every convolution model decomposes (verdict ISO, axioms pass, primitive
ranks equal the fiber dimensions read from the model file, the round trip
holds), and Fun(S3) does not (primitive rank 0, two spectral arrows, theta
of rank 2 against dimension 6).

The digest hashes the exact outputs of a job: primitive bases, spectral
representatives, action matrices, theta matrices and ranks, and each law's
``checked`` count with the resample count.  It is compared against
``reference.json``, so a faster path must give the same Fractions and the
same canonical bases.
"""

from __future__ import annotations

import hashlib
import json

FUNS3_EXPECT = {
    "verdict": "NOT_ISO",
    "prim_ranks": {"pt": 0},
    "spectral_arrows": 2,
    "theta": {"pt": [2, 6]},
}


def expectations(name: str, doc: dict) -> dict:
    """The known answers for a model document."""
    if name == "funs3":
        return FUNS3_EXPECT
    if doc["kind"] != "convolution":
        raise ValueError(f"no known answers for table model {name!r}")
    return {
        "verdict": "ISO",
        "prim_ranks": {b["point"]: len(b["basis"]) for b in doc["bundle"]},
    }


def _label(label):
    if isinstance(label, tuple):
        arrow, mono = label
        return [arrow, list(mono)]
    return label


def _element(e):
    return sorted([_label(l), str(c)] for l, c in e.coeffs.items())


def _matrix(m):
    return [[str(x) for x in row] for row in m.data]


def _laws(checks):
    return [[c.name, c.ok, c.checked] for c in checks]


def _axioms(report):
    return {"mode": report.mode, "resampled": report.resampled, "laws": _laws(report.checks)}


def _analysis(a):
    out = {
        "axioms": _axioms(a.axiom_report) if a.axiom_report else None,
        "decision": a.decision.to_json(),
    }
    if a.prim is not None:
        out["primitives"] = {
            p: [_element(b) for b in basis] for p, basis in a.prim.per_point.items()
        }
    if a.gsp is not None:
        g = a.gsp.groupoid
        out["spectral"] = {
            arrow: [g.source[arrow], g.target[arrow], _element(rep)]
            for arrow, rep in a.gsp.representatives.items()
        }
    if a.prim_action is not None:
        out["action"] = {arrow: _matrix(m) for arrow, m in a.prim_action.matrices.items()}
    if a.theta is not None:
        out["theta"] = {
            p: {"matrix": _matrix(m), "rank": a.theta.ranks[p]}
            for p, m in a.theta.matrices.items()
        }
        out["theta_hom"] = _laws(a.theta.hom_checks)
    return out


def canonical_outputs(entry: str, result) -> dict:
    """The exact outputs of one job as plain JSON data."""
    if entry == "check-axioms":
        return _axioms(result)
    if entry == "cgk":
        return _analysis(result)
    if entry == "roundtrip":
        return result.to_json()
    raise ValueError(f"unknown entry point {entry!r}")


def digest(entry: str, result) -> str:
    text = json.dumps(canonical_outputs(entry, result), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:20]


def known_answer_problems(entry: str, result, expect: dict) -> list[str]:
    """Every model in the benchmark passes the axioms; the rest is ``expect``."""
    if entry == "check-axioms":
        return [] if result.ok else ["axioms fail: " + ", ".join(c.name for c in result.failures())]
    decision = result.decision
    problems = []
    if entry == "roundtrip" and not result.ok:
        problems.append("round trip fails")
    if decision.axioms_ok is not True:
        problems.append(f"axioms_ok is {decision.axioms_ok}")
    if decision.verdict != expect["verdict"]:
        problems.append(f"verdict {decision.verdict}, expected {expect['verdict']}")
    if decision.prim_ranks != expect["prim_ranks"]:
        problems.append(f"primitive ranks {decision.prim_ranks}, expected {expect['prim_ranks']}")
    if "spectral_arrows" in expect and decision.spectral_arrows != expect["spectral_arrows"]:
        problems.append(f"{decision.spectral_arrows} spectral arrows, expected {expect['spectral_arrows']}")
    for p, (rank, dim) in expect.get("theta", {}).items():
        got = decision.theta.get(p, {})
        if (got.get("rank"), got.get("dim")) != (rank, dim):
            problems.append(f"theta at {p}: {got}, expected rank {rank} of {dim}")
    return problems


def job_problems(entry: str, result, expect: dict, reference_digest: str | None) -> list[str]:
    """Everything wrong with a finished job; empty when it is correct."""
    problems = known_answer_problems(entry, result, expect)
    got = digest(entry, result)
    if got != reference_digest:
        problems.append(f"digest {got} differs from reference {reference_digest}")
    return problems
