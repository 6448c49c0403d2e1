"""Seeded job generators and job runners for the benchmark workloads.

A workload hands out its jobs in cycles.  A cycle is a balanced block: on
every seed it holds the same mix of job kinds and the same strata of scale
factors, while the seed picks the values inside each stratum, the tour roots,
the exponents and the order.  The timed loop stops only at a cycle boundary,
so every run measures whole blocks and the cost of a run does not swing with
which heavy jobs a seed happens to draw.

The program receives only the generated inputs: matrices, words and scales,
or for ``degree-cli`` an omega JSON file and a command line.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
from dataclasses import dataclass
from typing import Dict, Iterator, List

Rows = List[List[int]]

MAX_ID = "S43-max"
DIGITS = 50

# The triangle and the missing-edge 4x4 of the ray experiments.
TRIANGLE = [[0, 1, 1], [1, 0, 1], [1, 1, 0]]
MISSING_EDGE = [[0, 0, 1, 2], [0, 0, 1, 1], [1, 1, 0, 1], [2, 1, 1, 0]]

# degree-cli puts the S43-max jobs of a cycle on this log-spaced grid of k
# with unit exponents.  A job costs 1-2 s where the leading eigenvalue is
# found and about 7 s where today's root finder gives up (from somewhere
# between k = 32 and k = 48 on these words), so a seeded k near that edge
# would swing a run by seconds.  On the grid every cycle holds the same two
# failures, at k = 81 and k = 243.
MAX_GRID = (1, 3, 9, 27, 81, 243)


@dataclass
class Context:
    """What the job runners need: the imported package, the catalog as plain
    rows and as the program's own matrices, and the input-file directory."""

    pk: object
    rows: Dict[str, Rows]
    omegas: Dict[str, object]
    workdir: str


def neighbours(rows: Rows, v: int) -> List[int]:
    """Curves meeting curve ``v`` (1-based), in increasing order."""
    return [j + 1 for j, x in enumerate(rows[v - 1]) if x != 0 and j != v - 1]


def tour(rows: Rows, root: int) -> List[int]:
    """Depth-first tour of a spanning tree from ``root``.

    Each tree edge is walked once each way, so the closed path is
    contractible and visits every curve; the return to ``root`` is the
    wrap-around step.
    """
    seen = {root}
    path = [root]
    stack = [(root, iter(neighbours(rows, root)))]
    while stack:
        v, rest = stack[-1]
        w = next((w for w in rest if w not in seen), None)
        if w is None:
            stack.pop()
            if stack:
                path.append(stack[-1][0])
            continue
        seen.add(w)
        path.append(w)
        stack.append((w, iter(neighbours(rows, w))))
    return path[:-1] if len(path) > 1 else path


def log_uniform(rng: random.Random, stratum: int, strata: int, top: int) -> int:
    """An integer ``k`` in ``[1, top]``, log-uniform inside one of ``strata``
    equal slices of ``log k``."""
    u = (stratum + rng.random()) / strata
    return max(1, min(top, round(top ** u)))


# ---------------------------------------------------------------------------
# recipe-max
# ---------------------------------------------------------------------------

def recipe_cycles(rng: random.Random, catalog: Dict[str, Rows]) -> Iterator[list]:
    """One ``run_recipe`` job per cycle; the roots run through shuffled
    passes over all 24 curves, so a run draws distinct tours."""
    rows = catalog[MAX_ID]
    roots = list(range(1, len(rows) + 1))
    while True:
        rng.shuffle(roots)
        for root in roots:
            gamma = tour(rows, root)
            yield [{"kind": "recipe", "entry": MAX_ID, "root": root,
                    "gamma": gamma, "powers": [1] * len(gamma), "window": 3}]


def recipe_warmup(catalog: Dict[str, Rows]) -> dict:
    """A recipe with a window of one scale: a third of a timed job."""
    gamma = tour(catalog[MAX_ID], 1)
    return {"kind": "recipe", "entry": MAX_ID, "root": 1, "gamma": gamma,
            "powers": [1] * len(gamma), "window": 1}


def run_recipe_job(ctx: Context, job: dict):
    word = ctx.pk.core.TwistWord(tuple(job["gamma"]), tuple(job["powers"]))
    return ctx.pk.cli.run_recipe(ctx.omegas[job["entry"]], word, k_max=256,
                                 window=job["window"], digits=DIGITS)


# ---------------------------------------------------------------------------
# degree-cli
# ---------------------------------------------------------------------------

def degree_cycles(rng: random.Random, catalog: Dict[str, Rows]) -> Iterator[list]:
    """Each cycle holds, for every catalog entry, one job in each of six
    equal slices of ``log k`` over ``[1, 256]``, with a tour from a seeded
    root and exponents in 1..3 (S43-max: the fixed grid, exponents 1)."""
    ids = sorted(catalog)
    while True:
        jobs = []
        for stratum, grid_k in enumerate(MAX_GRID):
            for cid in ids:
                rows = catalog[cid]
                gamma = tour(rows, rng.randint(1, len(rows)))
                if cid == MAX_ID:
                    k, powers = grid_k, [1] * len(gamma)
                else:
                    k = log_uniform(rng, stratum, len(MAX_GRID), 256)
                    powers = [rng.randint(1, 3) for _ in gamma]
                jobs.append({"kind": "degree", "entry": cid, "k": k,
                             "gamma": gamma, "powers": powers})
        rng.shuffle(jobs)
        yield jobs


def degree_warmup(catalog: Dict[str, Rows]) -> dict:
    gamma = tour(catalog["Mr-5"], 1)
    return {"kind": "degree", "entry": "Mr-5", "k": 2, "gamma": gamma,
            "powers": [1] * len(gamma)}


def omega_path(workdir: str, job: dict) -> str:
    return os.path.join(workdir, f"{job['entry']}-k{job['k']}.json")


def write_omega_files(jobs: list, catalog: Dict[str, Rows], workdir: str) -> None:
    """Write the scaled matrix of every job as a CLI omega file.  Files are
    always written, never reused, so a run reads only its own inputs."""
    os.makedirs(workdir, exist_ok=True)
    for job in jobs:
        rows = [[job["k"] * x for x in row] for row in catalog[job["entry"]]]
        with open(omega_path(workdir, job), "w") as fh:
            json.dump({"n": len(rows), "entries": rows}, fh)


def degree_argv(job: dict, workdir: str) -> List[str]:
    return ["degree", "--omega", omega_path(workdir, job),
            "--gamma", ",".join(map(str, job["gamma"])),
            "--powers", ",".join(map(str, job["powers"])),
            "--digits", str(DIGITS), "--json"]


class ExitStatus(Exception):
    """``penner`` returned a non-zero exit code."""


def run_degree_job(ctx: Context, job: dict) -> str:
    """``penner degree --json`` in-process; returns what it printed."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = ctx.pk.cli.main(degree_argv(job, ctx.workdir))
    if code != 0:
        raise ExitStatus(f"exit {code}: {err.getvalue().strip()}")
    return out.getvalue()


# ---------------------------------------------------------------------------
# limit-boundary
# ---------------------------------------------------------------------------

# Entries small enough for the eigenvector power iteration to stay cheap.
EIG_MAX_N = 8


def limit_cycles(rng: random.Random, catalog: Dict[str, Rows]) -> Iterator[list]:
    """Each cycle holds one limit-map job per catalog entry, three convergent
    and one divergent ray experiment, and two eigenvector estimates.  The
    limit maps dominate, as exact work in ``p_gamma``; the rays are few so
    that ``pf_eigenvalue`` and ``polyroots`` stay a small share.  With 26
    jobs the median job is a limit map on ``Mr-8`` or ``N32-rank7``, inside a
    cluster of near-equal costs; with 25 it fell in the gap below them and
    jumped between runs."""
    ids = sorted(catalog)
    small = [cid for cid in ids if len(catalog[cid]) <= EIG_MAX_N]
    while True:
        jobs = []
        for cid in ids:
            rows = catalog[cid]
            gamma = tour(rows, rng.randint(1, len(rows)))
            position = rng.randint(1, len(gamma))
            vertex = rng.choice(neighbours(rows, gamma[position - 1]))
            jobs.append({"kind": "fgamma", "entry": cid, "gamma": gamma,
                         "position": position, "vertex": vertex})
        for kind, k_lo, k_hi, count in (("ray-convergent", 2, 8, 3),
                                         ("ray-divergent", 16, 32, 1)):
            n = len(TRIANGLE if kind == "ray-convergent" else MISSING_EDGE)
            for _ in range(count):
                k0 = rng.randint(k_lo, k_hi)
                jobs.append({"kind": kind, "gamma": list(range(1, n + 1)),
                             "powers": [rng.randint(1, 3) for _ in range(n)],
                             "scales": [k0 << j for j in range(4)]})
        for _ in range(2):
            cid = rng.choice(small + ["triangle"])
            rows = TRIANGLE if cid == "triangle" else catalog[cid]
            gamma = tour(rows, rng.randint(1, len(rows)))
            jobs.append({"kind": "eigenvector", "entry": cid, "gamma": gamma,
                         "powers": [rng.randint(1, 3) for _ in gamma],
                         "k": log_uniform(rng, 0, 1, 64)})
        rng.shuffle(jobs)
        yield jobs


def limit_warmup(catalog: Dict[str, Rows]) -> dict:
    return {"kind": "ray-convergent", "gamma": [1, 2, 3], "powers": [1, 1, 1],
            "scales": [4, 8, 16, 32]}


def job_omega(job: dict, catalog: Dict[str, Rows]) -> Rows:
    """The unscaled intersection matrix a job runs on."""
    if job["kind"] == "ray-convergent" or job.get("entry") == "triangle":
        return TRIANGLE
    if job["kind"] == "ray-divergent":
        return MISSING_EDGE
    return catalog[job["entry"]]


def run_limit_job(ctx: Context, job: dict):
    pk = ctx.pk
    omega = pk.core.validate_omega(job_omega(job, ctx.rows))
    kind = job["kind"]
    if kind == "fgamma":
        limit = pk.boundary.f_gamma(omega, job["gamma"])
        same = pk.boundary.homotopy_invariance_check(
            omega, job["gamma"], job["position"], job["vertex"])
        return limit, same
    word = pk.core.TwistWord(tuple(job["gamma"]), tuple(job["powers"]))
    if kind == "eigenvector":
        return pk.boundary.eigenvector_asymptotics(omega, word, k=job["k"],
                                                   digits=DIGITS)
    return pk.boundary.ray_convergence_experiment(omega, word, job["scales"],
                                                  digits=DIGITS)
