"""The three workloads: inputs made from the seed, the femforge calls that
produce a verdict, and the known answers each verdict is checked against.

Every known answer is written here by hand; none is read from femforge.
"""

from __future__ import annotations

import contextlib
import io
import json
import random

WORKLOADS = ("verify-d2", "certify-d3", "enrich-d3")

# `femforge verify --d 2 --k 1..4` over every family on the reference
# triangle: 37 runnable cells and 11 cells below a family's degree floor.
VERIFY_SUMMARY = {"pass": 115, "fail": 0, "skip": 11}
VERIFY_CHECKS = 126

# (family, k, dimension of the shape space) on a tetrahedron:
#   BDM_4         = P_4(K; R^3)  = 3 * C(7, 3)                 = 105
#   DivDiv_4      = P_4(K; S)    = 6 * C(7, 3)                 = 210
#   HdivS_minus_2 = P_2(K; S) + enrichment = 6 * C(5, 3) + 3 * C(4, 2) = 78
# The enrichment adds the divergences of degree k that P_k(S) misses modulo
# rigid motions: 3 * (C(k+3, 3) - C(k+2, 3)) = 3 * C(k+2, 2) fields.
# HdivS_minus takes k=2, not 3: at k=3 one run takes about 37 s, which
# the benchmark's time budget for all its runs cannot afford.
CELLS = {
    "certify-d3": (("BDM", 4, 105), ("DivDiv", 4, 210)),
    "enrich-d3": (("HdivS_minus", 2, 78),),
}

CHECKS_PER_CELL = 3  # dimension, unisolvence rank, trace block


def _det3(rows) -> int:
    (a, b, c), (d, e, f), (g, h, i) = rows
    return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)


def random_simplex(rng: random.Random) -> list[list[int]]:
    """A non-degenerate tetrahedron with integer vertices in [-3, 3]^3."""
    while True:
        verts = [[rng.randint(-3, 3) for _ in range(3)] for _ in range(4)]
        edges = [[v[t] - verts[0][t] for t in range(3)] for v in verts[1:]]
        if _det3(edges):
            return verts


# The cost of exact elimination depends on the bit sizes of the geometry, so
# independent random tetrahedra differ by 2x in run time, and ten seeds
# would measure the geometry rather than the code.  Every seed therefore
# certifies one tetrahedron (the first draw of random.Random(0)) under a
# seeded reflection of the axes: the vertex coordinates change with the seed,
# the bit sizes and the elimination steps do not.
BASE_SIMPLEX = random_simplex(random.Random(0))


def reflected_simplex(seed: int) -> list[list[int]]:
    rng = random.Random(seed)
    signs = [rng.choice((-1, 1)) for _ in range(3)]
    return [[s * x for s, x in zip(signs, v)] for v in BASE_SIMPLEX]


def verify_argv(seed: int) -> list[str]:
    return ["verify", "--d", "2", "--k", "1..4", "--seed", str(seed), "--jobs", "1"]


def make_job(workload: str, seed: int) -> dict:
    """Everything the child needs to run ``workload`` for ``seed``."""
    if workload == "verify-d2":
        return {"workload": workload, "argv": verify_argv(seed), "jobs": 1}
    if workload in CELLS:
        return {"workload": workload, "vertices": reflected_simplex(seed),
                "cells": [[family, k] for family, k, _ in CELLS[workload]]}
    raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")


# -- inside the child ------------------------------------------------------------


def _cli_report(argv: list[str]) -> dict:
    from femforge import cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = cli.main(list(argv))
    return {"rc": rc, "report": out.getvalue()}


def run(job: dict) -> dict:
    """The timed femforge calls of one run, from the first call to the verdict."""
    if "argv" in job:
        return _cli_report(job["argv"])
    from femforge.elements import build_element, check_unisolvence, trace_block_rank
    from femforge.simplex import build_frame

    frame = build_frame(job["vertices"])
    cells = []
    for family, k in job["cells"]:
        elem = build_element(frame, family, k)
        uni = check_unisolvence(elem)
        block = trace_block_rank(elem)
        cells.append({"family": family, "k": k, "dim": elem.space.dim, "unisolvent": uni.passed,
                      "rank": uni.got, "trace_block": block.passed})
    return {"cells": cells}


# -- the gate ------------------------------------------------------------------------


def expected_checks(job: dict) -> int:
    if "argv" in job:
        return VERIFY_CHECKS + 2
    return CHECKS_PER_CELL * len(job["cells"])


def gate_report(text: str, rc: int) -> tuple[int, int]:
    """(checks attempted, checks that differ from the known answer) for a
    verify report: every non-skipped check passes, the summary is 115/0/11
    and the exit code is 0."""
    checks = json.loads(text)["checks"]
    statuses = [c["status"] for c in checks]
    counts = {s: statuses.count(s) for s in VERIFY_SUMMARY}
    attempted = len(statuses) + 2
    failed = sum(s not in ("pass", "skip") for s in statuses)
    failed += counts != VERIFY_SUMMARY or len(statuses) != VERIFY_CHECKS
    failed += rc != 0
    return attempted, failed


def gate_cells(workload: str, cells: list[dict]) -> tuple[int, int]:
    """(checks attempted, checks that differ from the known answer) for
    certified elements: dimension and DoF rank equal the closed form and the
    shared DoF block pins down the traces."""
    known = {(family, k): dim for family, k, dim in CELLS[workload]}
    attempted = failed = 0
    for cell in cells:
        dim = known.get((cell["family"], cell["k"]))
        verdicts = (cell["dim"] == dim,
                    cell["unisolvent"] is True and cell["rank"] == dim,
                    cell["trace_block"] is True)
        attempted += len(verdicts)
        failed += verdicts.count(False)
    missing = max(0, CHECKS_PER_CELL * len(known) - attempted)
    return attempted + missing, failed + missing


def gate(job: dict, outcome: dict) -> tuple[int, int]:
    """Checks attempted and failed for one run; an exception fails them all."""
    if "error" not in outcome:
        try:
            if "argv" in job:
                return gate_report(outcome["report"], outcome["rc"])
            return gate_cells(job["workload"], outcome["cells"])
        except (ValueError, KeyError, TypeError):
            pass
    n = expected_checks(job)
    return n, n
