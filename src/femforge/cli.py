"""Command-line front end: dimension tables, verification grids, element export.

Exit codes: 0 all checks pass, 1 usage error, 2 at least one falsification,
3 output I/O error.  Reports are byte-deterministic for a fixed configuration
(including the seed); wall-clock timings go to stderr only.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import random
import sys
import time
from fractions import Fraction

from . import spaces
from .conformity import Patch, conformity_check, green_identity_check, reflected_patch
from .elements import FAMILIES, build_element, check_unisolvence, element_to_json, trace_block_rank
from .poly import Polynomial, grad, koszul_dot_x, koszul_x, koszul_xxT, divdiv, div, monomials
from .report import CheckResult
from .simplex import SimplexFrame, random_frame, reference_simplex

DEFAULT_MAX_K = 6
ELEMENT_FAMILIES = tuple(FAMILIES)
PSEUDO_FAMILIES = ("decomp", "green", "ops")


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit code 2; usage is 1 here
        self.exit(1, f"{self.prog}: error: {message}\n")


def _parse_range(text: str) -> tuple[int, int]:
    if ".." in text:
        lo, hi = text.split("..", 1)
        return int(lo), int(hi)
    v = int(text)
    return v, v


def _load_frame_file(path: str) -> SimplexFrame:
    """Simplex description: {"d": int, "vertices": [["num/den" | number, ...], ...]}."""
    with open(path) as fh:
        data = json.load(fh)
    try:
        verts = [[Fraction(str(x)) for x in v] for v in data["vertices"]]
        d = data["d"]
    except (TypeError, ZeroDivisionError) as err:
        raise ValueError(f"malformed simplex description: {err}") from None
    if type(d) is not int:  # not a float, a string or a bool (an int subclass)
        raise ValueError(f"d must be a JSON integer, not {json.dumps(d)}")
    fr = SimplexFrame(verts)
    if fr.d != d:
        raise ValueError(f"simplex file declares d={d} but has {fr.d}+1 coordinates")
    return fr


# One frame per (d, --simplex mode) for the non-random modes, and its
# reflected patch, shared by the grid cells of one ``main`` call or of one
# worker process; ``main`` clears both on return, so nothing outlives the call.
@functools.lru_cache(maxsize=None)
def _fixed_frame(d: int, mode: str) -> SimplexFrame:
    # mode is "ref" or a path to a JSON simplex description, whose d main checks
    return reference_simplex(d) if mode == "ref" else _load_frame_file(mode)


@functools.lru_cache(maxsize=None)
def _fixed_patch(d: int, mode: str) -> Patch:
    return reflected_patch(_fixed_frame(d, mode))


def _make_frame(d: int, mode: str, seed: int, key: str) -> tuple[SimplexFrame, dict]:
    if mode != "random":
        return _fixed_frame(d, mode), {"simplex": mode}
    rng = random.Random(f"{seed}:{key}")
    fr = random_frame(d, rng)
    verts = [[f"{x.numerator}/{x.denominator}" for x in v] for v in fr.vertices]
    return fr, {"simplex": "random", "seed": seed, "vertices": verts}


# -- check runners -----------------------------------------------------------------


def _cell_checks_element(family: str, k: int, frame: SimplexFrame, patch: Patch) -> list[CheckResult]:
    elem = build_element(frame, family, k)
    out = [check_unisolvence(elem), trace_block_rank(elem)]
    for res in out:
        res.check_id = f"{res.check_id}-{family}"
    return out + [conformity_check(patch, family, k)]


def _random_homogeneous(rng, d: int, r: int) -> Polynomial:
    terms = {}
    for exps in monomials(d, r):
        if sum(exps) == r:
            c = rng.randint(-9, 9)
            if c:
                terms[(0, exps)] = Fraction(c)
    if not terms:
        terms[(0, (r,) + (0,) * (d - 1))] = Fraction(1)
    return Polynomial(d, "scalar", terms)


def _cell_checks_ops(d: int, r: int, seed: int):
    rng = random.Random(f"{seed}:ops:{d}:{r}")
    q = _random_homogeneous(rng, d, r)
    euler_grad = koszul_dot_x(grad(q)) == q.scale(r)
    euler_div = div(koszul_x(q)) == q.scale(r + d)
    dd = divdiv(koszul_xxT(q)) == q.scale((r + 1 + d) * (r + d))
    ctx = {"d": d, "degree": r}
    return [
        ("ops", d, r, CheckResult("euler-position-gradient", euler_grad, context=dict(ctx))),
        ("ops", d, r, CheckResult("euler-divergence-position", euler_div, context=dict(ctx))),
        ("ops", d, r, CheckResult("divdiv-koszul-eigenvalue", dd, context=dict(ctx))),
    ]


def _dims_checks(d: int, k: int):
    frame = _fixed_frame(d, "ref")
    out = []

    def add(check_id, got, expected):
        out.append(
            ("dims", d, k, CheckResult(check_id, got == expected, expected=expected, got=got,
                                       context={"d": d, "k": k}))
        )

    add("dim-bubble-vector", spaces.bubble_space(frame, "div_vector", k).dim,
        spaces.dim_bubble_vector(d, k))
    e0, e0perp = spaces.split_bubble(frame, "div_vector", k)
    add("dim-kernel-bubble-vector", e0.dim, spaces.dim_E0_vector(d, k))
    add("dim-complement-bubble-vector", e0perp.dim, spaces.dim_E0perp_vector(d, k))
    add("dim-trace-vector",
        spaces.trace_matrix(frame, spaces.build_standard(frame, "P_vector", k), "vector_normal").rank(),
        spaces.dim_trace_vector(d, k))
    add("dim-bubble-enriched-vector", spaces.bubble_space(frame, "div_RT_minus", k).dim,
        spaces.dim_bubble_rt(d, k))
    add("dim-edge-space", spaces.build_standard(frame, "ND", k).dim, spaces.dim_ND(d, k))
    if k >= 2:
        add("dim-bubble-sym", spaces.bubble_space(frame, "div_sym", k).dim,
            spaces.dim_bubble_sym(d, k))
        add("dim-bubble-sym-generators", spaces.bubble_sym_generators(frame, k).dim,
            spaces.dim_bubble_sym(d, k))
        s0, s0perp = spaces.split_bubble(frame, "div_sym", k)
        add("dim-kernel-bubble-sym", s0.dim, spaces.dim_E0_sym(d, k))
        add("dim-complement-bubble-sym", s0perp.dim, spaces.dim_E0perp_sym(d, k))
        add("dim-trace-sym",
            spaces.trace_matrix(frame, spaces.build_standard(frame, "P_sym", k), "tensor_normal").rank(),
            spaces.dim_trace_sym(d, k))
        if d == 3:
            add("dim-boundary-total-3d", spaces.dim_trace_sym(3, k), 6 * (k + 1) ** 2)
    return out


# -- report assembly -----------------------------------------------------------------


def _entry(family, d, k, res: CheckResult) -> dict:
    data = res.as_dict()
    data["family"] = family
    data["d"] = d
    data["k"] = k
    return data


def _summary(entries: list[dict]) -> dict[str, int]:
    return {status: sum(1 for e in entries if e["status"] == status) for status in ("pass", "fail", "skip")}


def _render_json(config: dict, entries: list[dict]) -> str:
    doc = {"schema": "femforge-report/1", "config": config, "checks": entries, "summary": _summary(entries)}
    return json.dumps(doc, sort_keys=True, indent=1) + "\n"


def _render_markdown(config: dict, entries: list[dict]) -> str:
    lines = ["# femforge verification report", ""]
    lines.append("config: `" + json.dumps(config, sort_keys=True) + "`")
    lines.append("")
    lines.append("| check | family | d | k | status | expected | got |")
    lines.append("|---|---|---|---|---|---|---|")
    for e in entries:
        exp = json.dumps(e.get("expected", "")) if "expected" in e else ""
        got = json.dumps(e.get("got", "")) if "got" in e else ""
        lines.append(
            f"| {e['id']} | {e['family']} | {e['d']} | {e['k']} | {e['status']} | {exp} | {got} |"
        )
    lines.append("")
    lines.append("summary: " + ", ".join(f"{n} {status}" for status, n in _summary(entries).items()))
    lines.append("")
    return "\n".join(lines)


def _emit(text: str, out_path: str | None) -> int:
    if out_path is None:
        sys.stdout.write(text)
        return 0
    try:
        with open(out_path, "w") as fh:
            fh.write(text)
    except OSError as err:
        print(f"femforge: cannot write {out_path}: {err}", file=sys.stderr)
        return 3
    return 0


# -- subcommands ------------------------------------------------------------------------


def _run_cells(tasks, args) -> list:
    """The checks of every grid cell, in task order; with --jobs > 1 the cells
    run in a pool of worker processes."""
    run = functools.partial(_run_task, args=args)
    workers = min(args.jobs, len(tasks), os.cpu_count() or 1)
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            chunks = list(pool.map(run, tasks))
    else:
        chunks = map(run, tasks)
    return [r for chunk in chunks for r in chunk]


def _report(args, config: dict, skips: list[dict], tasks, key) -> int:
    """Run the grid cells, write the report of their checks and the skips,
    ordered by ``key``, and return the exit code."""
    t0 = time.monotonic()
    results = _run_cells(tasks, args)
    print(f"{config['command']} grid of {len(tasks)} cells in {time.monotonic() - t0:.1f}s", file=sys.stderr)
    entries = sorted(skips + [_entry(*r) for r in results], key=key)
    text = _render_json(config, entries) if args.format == "json" else _render_markdown(config, entries)
    return _emit(text, args.out) or (2 if any(e["status"] == "fail" for e in entries) else 0)


def _cmd_dims(args) -> int:
    skips, tasks = _run_family_grid(args, ["dims"])
    if tasks is None:
        return 1
    config = {"command": "dims", "d": list(args.d), "k": list(args.k)}
    return _report(args, config, skips, tasks, lambda e: (e["d"], e["k"]))


# the lowest degree each pseudo-family's checks are stated for
_PSEUDO_FLOORS = {"decomp": 1, "green": 0, "ops": 0, "dims": 1}


def _run_family_grid(args, families):
    """Skip entries for the cells below a family's degree floor and the tasks
    of the others; tasks is None (after a message) if a family has none."""
    d_lo, d_hi = args.d
    k_lo, k_hi = args.k
    entries = []
    tasks = []
    for fam in families:
        for d in range(d_lo, d_hi + 1):
            floor = FAMILIES[fam].floor(d) if fam in FAMILIES else _PSEUDO_FLOORS[fam]
            for k in range(k_lo, k_hi + 1):
                if k >= floor:
                    tasks.append(("elem" if fam in FAMILIES else fam, fam, d, k))
                    continue
                entries.append({"id": f"unisolvence-{fam}" if fam in FAMILIES else fam, "family": fam,
                                "d": d, "k": k, "status": "skip",
                                "context": {"reason": f"below degree floor {floor}"}})
    empty = [fam for fam in families if not any(task[1] == fam for task in tasks)]
    if empty:
        print(f"femforge: no runnable (d, k) cells for: {', '.join(empty)} "
              "(below the degree floor?)", file=sys.stderr)
        return entries, None
    return entries, tasks


def _run_task(task, args):
    """The checks of one grid cell, as (family, d, k, result) tuples."""
    kind, fam, d, k = task
    if kind == "ops":
        return _cell_checks_ops(d, k, args.seed)
    if kind == "dims":
        return _dims_checks(d, k)
    frame, sinfo = _make_frame(d, args.simplex, args.seed, f"{fam}:{d}:{k}")
    if kind == "elem":
        patch = reflected_patch(frame) if args.simplex == "random" else _fixed_patch(d, args.simplex)
        results = _cell_checks_element(fam, k, frame, patch)
        stability_floor = FAMILIES[fam].stability_floor
        if stability_floor is not None:
            sinfo = dict(sinfo, stability_range=bool(k >= stability_floor(d)))
    elif kind == "decomp":
        results = spaces.certify_decompositions(frame, k)
    else:
        results = [green_identity_check(frame, k, k, samples=20, seed=args.seed + 17 * d + k)]
    for res in results:
        res.context.update(sinfo)
    return [(fam, d, k, res) for res in results]


def _cmd_verify(args) -> int:
    families = list(dict.fromkeys(args.family or [*ELEMENT_FAMILIES, *PSEUDO_FAMILIES]))
    for fam in families:
        if fam not in ELEMENT_FAMILIES and fam not in PSEUDO_FAMILIES:
            print(f"femforge: unknown family {fam!r}", file=sys.stderr)
            return 1
    skip_entries, tasks = _run_family_grid(args, families)
    if tasks is None:
        return 1
    config = {
        "command": "verify",
        "families": sorted(families),
        "d": list(args.d),
        "k": list(args.k),
        "simplex": args.simplex,
        "seed": args.seed,
    }
    return _report(args, config, skip_entries, tasks, lambda e: (e["family"], e["d"], e["k"], e["id"]))


def _cmd_export(args) -> int:
    families = list(dict.fromkeys(args.family or ["BDM"]))
    for fam in families:
        if fam not in ELEMENT_FAMILIES:
            print(f"femforge: unknown element family {fam!r}", file=sys.stderr)
            return 1
    skips, tasks = _run_family_grid(args, families)
    if tasks is None:
        return 1
    for e in skips:
        print(f"femforge: skip {e['family']} d={e['d']} k={e['k']} ({e['context']['reason']})",
              file=sys.stderr)
    outdir = args.out or "."
    try:
        os.makedirs(outdir, exist_ok=True)
    except OSError as err:
        print(f"femforge: cannot create {outdir}: {err}", file=sys.stderr)
        return 3
    for _, fam, d, k in tasks:
        frame, _ = _make_frame(d, args.simplex, args.seed, f"export:{fam}:{d}:{k}")
        elem = build_element(frame, fam, k)
        if not check_unisolvence(elem).passed:
            print(f"femforge: {fam} d={d} k={k} failed unisolvence", file=sys.stderr)
            return 2
        data = element_to_json(elem)
        path = os.path.join(outdir, f"{fam}_d{d}_k{k}.json")
        try:
            with open(path, "w") as fh:
                json.dump(data, fh, sort_keys=True, indent=1)
                fh.write("\n")
        except OSError as err:
            print(f"femforge: cannot write {path}: {err}", file=sys.stderr)
            return 3
        print(f"wrote {path}", file=sys.stderr)
    return 0


def _build_parser() -> _Parser:
    parser = _Parser(prog="femforge", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, default_d="2..3", default_k="1..4", family_help=None, geometry=True, report=True):
        """Only the options a subcommand reads: --simplex and --seed place
        element cells, --format and --jobs make a report of grid cells."""
        if family_help is not None:
            p.add_argument("--family", action="append", help=family_help)
        p.add_argument("--d", type=_parse_range, default=_parse_range(default_d),
                       help="dimension or range a..b (supported: 2..4)")
        p.add_argument("--k", type=_parse_range, default=_parse_range(default_k),
                       help="degree or range a..b")
        if geometry:
            p.add_argument("--simplex", default="ref",
                           help="'ref', 'random', or a path to a JSON simplex description")
            p.add_argument("--seed", type=int, default=0)
        p.add_argument("--out", default=None)
        if report:
            p.add_argument("--format", choices=("json", "markdown"), default="json")
            p.add_argument("--jobs", type=int, default=1)

    p_dims = sub.add_parser("dims", help="dimension formulas vs computed ranks")
    common(p_dims, geometry=False)
    p_ver = sub.add_parser("verify", help="run the verification suites over a grid")
    common(p_ver, family_help="repeatable; defaults to every family and pseudo-family")
    p_exp = sub.add_parser("export", help="export elements as JSON")
    common(p_exp, default_k="1..1", family_help="repeatable; defaults to BDM", report=False)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    d_lo, d_hi = args.d
    k_lo, k_hi = args.k
    if not (2 <= d_lo <= d_hi <= 4):
        parser.error("dimension range must lie within 2..4")
    if getattr(args, "jobs", 1) < 1:
        parser.error("--jobs must be at least 1")
    if k_lo > k_hi or k_hi > DEFAULT_MAX_K:
        parser.error(f"degree range must be increasing and capped at {DEFAULT_MAX_K}")
    commands = {"dims": _cmd_dims, "verify": _cmd_verify, "export": _cmd_export}
    try:
        if getattr(args, "simplex", "ref") not in ("ref", "random"):
            try:
                fr = _fixed_frame(d_lo, args.simplex)
            except (OSError, ValueError, KeyError) as err:
                parser.error(f"cannot read simplex file {args.simplex}: {err}")
            if (d_lo, d_hi) != (fr.d, fr.d):
                parser.error(f"simplex file has d={fr.d}; pass --d {fr.d}..{fr.d}")
        return commands[args.command](args)
    finally:
        _fixed_frame.cache_clear()
        _fixed_patch.cache_clear()


if __name__ == "__main__":
    sys.exit(main())
