"""Command-line interface.

Subcommands: verify (acceptance suite), sample (random cones and the
Poisson hull process), enumerate (cell census), pht (tessellation cells),
profile (rescaled conditional profiles), density (evaluate densities from
a config file), converge (sweeps over n), plot (SVG rendering).

The environment variable CONEHULL_SEED overrides --seed everywhere.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from . import __version__
from .acceptance import CRITERIA, all_passed, format_record_line, run_all
from .arrangement import arrangement_face_census, enumerate_cones, schlaefli_count
from .densities import (
    Ball,
    CoordinateRep,
    HalfSpace,
    eval_phi,
    eval_phi_n,
    exterior_inverse_power_integral,
    pc_beta_prime,
)
from .errors import ConehullError, ConfigError, NotPointed
from .geometry import Polytope, face_counts_spherical
from .harness import PROFILES, records_to_csv
from .profiles import sample_Pn_star, sample_Qn_star
from .rng import RngStream
from .samplers import (
    sample_cover_efron,
    sample_poisson_Pi,
    sample_r_n,
    sample_s_minus_e,
    sample_schlaefli_cone,
)
from .svg import render_svg
from .tessellation import (
    cell_features,
    sample_typical_cell,
    sample_zero_cell,
)


def _seed(args) -> int:
    env = os.environ.get("CONEHULL_SEED")
    if env is not None:
        return int(env)
    return args.seed


def _emit(obj, out):
    out.write(json.dumps(obj) + "\n")


def verify_config(cfg) -> dict:
    """A `verify --config` object, checked; a ConfigError names the bad field."""
    if not isinstance(cfg, dict):
        raise ConfigError("config: must be a JSON object")
    for key, value in cfg.items():
        if key in ("seed", "workers"):
            if type(value) is not int:
                raise ConfigError(f"{key}: must be an integer")
        elif key == "profile" and (not isinstance(value, str) or value not in PROFILES):
            raise ConfigError(f"profile: unknown profile {value!r}")
        elif key == "criteria" and (not isinstance(value, list) or any(c not in CRITERIA for c in value)):
            raise ConfigError(f"criteria: must be a list of names from {','.join(CRITERIA)}")
        elif key not in ("seed", "workers", "profile", "criteria"):
            raise ConfigError(f"{key}: unknown config field")
    return cfg


def cmd_verify(args) -> int:
    criteria = args.criteria.split(",") if args.criteria else None
    seed, workers, profile = _seed(args), args.workers, args.profile
    if args.config:
        with open(args.config, "r", encoding="utf-8") as fh:
            cfg = verify_config(json.load(fh))
        seed = cfg.get("seed", seed)
        workers = cfg.get("workers", workers)
        profile = cfg.get("profile", profile)
        criteria = cfg.get("criteria", criteria)
        if os.environ.get("CONEHULL_SEED") is not None:
            seed = int(os.environ["CONEHULL_SEED"])
    records = run_all(seed=seed, workers=workers, profile=profile, criteria=criteria)
    for rec in records:
        print(format_record_line(rec))
    csv_text = records_to_csv(records)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(csv_text)
    else:
        sys.stdout.write(csv_text)
    ok = all_passed(records)
    print(f"acceptance: {'PASS' if ok else 'FAIL'} ({sum(1 for r in records if r.passed)}"
          f"/{len(records)} checks)")
    return 0 if ok else 1


def _cone_summary(cone) -> dict:
    try:
        f = face_counts_spherical(cone)
        return {"f_vector": [int(x) for x in f]}
    except (NotPointed, ConehullError):
        return {"f_vector": None, "pointed": False}


def cmd_sample(args) -> int:
    out = sys.stdout
    for rep in range(args.reps):
        rng = RngStream(_seed(args), rep).generator()
        if args.kind == "pi":
            pts = sample_poisson_Pi(args.d, rng)
            _emit({"kind": "pi", "points": np.round(pts, 12).tolist()}, out)
            continue
        if args.kind == "schlaefli":
            s = sample_schlaefli_cone(args.n, args.d, rng)
        elif args.kind == "cover-efron":
            s = sample_cover_efron(args.n, args.d, rng)
        elif args.kind == "rn":
            s = sample_r_n(args.n, args.d, rng)
        elif args.kind == "s-minus-e":
            s = sample_s_minus_e(args.n, args.d, rng)
        else:
            raise ConehullError(f"unknown kind {args.kind}")
        rec = {
            "kind": s.kind,
            "trials": s.trials,
            "generators": np.round(s.generators, 12).tolist(),
        }
        if s.cone is not None:
            rec["signs"] = [int(x) for x in s.cone.signs]
            rec.update(_cone_summary(s.cone))
        _emit(rec, out)
    return 0


def cmd_enumerate(args) -> int:
    rng = RngStream(_seed(args), 0).generator()
    from .samplers import sample_uniform_sphere_batch

    normals = sample_uniform_sphere_batch(args.dim - 1, args.n, rng)
    arr = enumerate_cones(normals)
    record = {
        "dim": args.dim,
        "n": args.n,
        "seed": _seed(args),
        "cells": arr.n_cells,
        "expected": schlaefli_count(args.n, args.dim),
        "sign_vectors": [[int(x) for x in c.signs] for c in arr.cells],
    }
    if args.census and args.n >= args.dim:
        census = arrangement_face_census(arr)
        record["census"] = {
            "arrangement_faces": {str(k): v for k, v in census.arrangement_faces.items()},
            "cell_face_sums": {str(k): v for k, v in census.cell_face_sums.items()},
            "spherical_means": {
                str(k): [v.numerator, v.denominator] for k, v in census.spherical_means.items()
            },
        }
    _emit(record, sys.stdout)
    return 0


def cmd_pht(args) -> int:
    if args.scene and (args.typical or args.d != 2):
        raise ConfigError("--scene: draws a planar zero cell with its lines; needs --d 2 "
                          "and no --typical")
    out = sys.stdout
    scene = None
    for rep in range(args.reps):
        rng = RngStream(_seed(args), rep).generator()
        if args.typical:
            w = sample_typical_cell(
                args.d, args.gamma, rng, method=args.typical, window_radius=args.R
            )
            poly, weight, method = w.polytope, w.weight, w.method
        else:
            z = sample_zero_cell(args.d, args.gamma, rng)
            poly, weight, method = z.polytope, 1.0, "zero-cell"
        feats = cell_features(poly)
        _emit(
            {
                "method": method,
                "volume": feats.volume,
                "f_vector": list(feats.f_vector),
                "inradius": feats.inradius,
                "diameter": feats.diameter,
                "weight": weight,
            },
            out,
        )
        if rep == 0 and args.scene:
            scene = {
                "window_radius": z.radius,
                "chords": [
                    [float(h.direction[0]), float(h.direction[1]), h.distance]
                    for h in z.hyperplanes
                ],
                "polygons": [poly.vertices.tolist()],
            }
    if scene is not None:
        with open(args.scene, "w", encoding="utf-8") as fh:
            json.dump(scene, fh, indent=1)
    return 0


def cmd_profile(args) -> int:
    out = sys.stdout
    sampler = sample_Pn_star if args.kind == "pn" else sample_Qn_star
    attempts_total = 0
    for rep in range(args.reps):
        rng = RngStream(_seed(args), rep).generator()
        s = sampler(args.n, args.d, rng)
        attempts_total += s.attempts
        _emit(
            {
                "kind": args.kind,
                "polytope": s.polytope.to_json(),
                "f0": s.polytope.n_vertices,
                "attempts": s.attempts,
                "bounded_fraction_so_far": (rep + 1) / attempts_total,
            },
            out,
        )
    return 0


def cmd_density(args) -> int:
    with open(args.config, "r", encoding="utf-8") as fh:
        spec = json.load(fh)
    kind = args.eval
    if kind == "phi":
        rep = CoordinateRep.from_json(spec)
        value, err = eval_phi(rep), 0.0
    elif kind == "phin":
        rep = CoordinateRep.from_json(spec)
        value, err = eval_phi_n(rep, int(args.n)), 0.0
    elif kind == "pc":
        d = int(spec["dim"])
        if "radius" in spec:
            region = Ball(float(spec["radius"]))
        elif "offset" in spec:
            region = HalfSpace(np.asarray(spec["normal"], float), float(spec["offset"]))
        else:
            region = Polytope(d, np.asarray(spec["points"], float))
        value, err = pc_beta_prime(region, d), 0.0
    elif kind == "exterior":
        d = int(spec["dim"])
        tol = 1e-10
        value = exterior_inverse_power_integral(
            Polytope(d, np.asarray(spec["points"], float)), d, tol=tol
        )
        err = 0.0 if d <= 2 else tol * value
    else:
        raise ConehullError(f"unknown density {kind}")
    _emit({"eval": kind, "value": value, "error": err}, sys.stdout)
    return 0


def cmd_converge(args) -> int:
    seed = _seed(args)
    rows = []
    ns = [int(x) for x in args.n_list.split(",")]
    if args.quantity == "qn-f0":
        for n in ns:
            vals = []
            for rep in range(args.reps):
                rng = RngStream(seed, n * 1_000_003 + rep).generator()
                vals.append(sample_Qn_star(n, args.d, rng).polytope.n_vertices)
            rows.append((n, float(np.mean(vals)), float(np.std(vals) / math.sqrt(len(vals)))))
    elif args.quantity == "pn-bounded":
        for n in ns:
            attempts = 0
            for rep in range(args.reps):
                rng = RngStream(seed, n * 1_000_003 + rep).generator()
                attempts += sample_Pn_star(n, args.d, rng).attempts
            frac = args.reps / attempts
            rows.append((n, frac, math.sqrt(frac * (1 - frac) / attempts)))
    elif args.quantity == "l1-density":
        from .acceptance import _l1_rep

        vals = {n: [] for n in ns}
        for rep in range(args.reps):
            rng = RngStream(seed, rep).generator()
            for n, v in zip(ns, _l1_rep(rng, rep, ns=tuple(ns))):
                vals[n].append(v)
        for n in ns:
            rows.append(
                (n, float(np.mean(vals[n])), float(np.std(vals[n]) / math.sqrt(len(vals[n]))))
            )
    else:
        raise ConehullError(f"unknown quantity {args.quantity}")
    print("n,estimate,std_error")
    for n, est, se in rows:
        print(f"{n},{est:.12g},{se:.12g}")
    return 0


def cmd_plot(args) -> int:
    with open(args.input, "r", encoding="utf-8") as fh:
        scene = json.load(fh)
    objects = [{"type": "circle", "radius": scene["window_radius"]}]
    for ux, uy, t in scene.get("chords", []):
        objects.append({"type": "chord", "direction": [ux, uy], "distance": t})
    for poly in scene.get("polygons", []):
        objects.append({"type": "polygon", "vertices": poly})
    render_svg(objects, args.svg, world_radius=1.05 * scene["window_radius"])
    print(f"wrote {args.svg}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="conehull",
        description="Random conical tessellations, Poisson hyperplane tessellations, "
        "and the acceptance suite verifying their limit relations.",
    )
    p.add_argument("--version", action="version", version=f"conehull {__version__}")
    sub = p.add_subparsers(dest="command", required=True)

    v = sub.add_parser("verify", help="run the acceptance suite (exit code 0/1)")
    v.add_argument("--seed", type=int, default=42, help="master seed (CONEHULL_SEED overrides)")
    v.add_argument("--workers", type=int, default=1, help="parallel worker processes")
    v.add_argument("--profile", choices=("quick", "full"), default="full")
    v.add_argument("--criteria", default="", help=f"comma list from {','.join(CRITERIA)}")
    v.add_argument("--out", default="", help="write the CSV here instead of stdout")
    v.add_argument("--config", default="", help="JSON file with seed/workers/profile/criteria")
    v.set_defaults(fn=cmd_verify)

    s = sub.add_parser("sample", help="draw random cones or the Poisson hull process")
    s.add_argument("--kind", required=True,
                   choices=("schlaefli", "cover-efron", "rn", "s-minus-e", "pi"))
    s.add_argument("--d", type=int, default=2)
    s.add_argument("--n", type=int, default=6)
    s.add_argument("--reps", type=int, default=1)
    s.add_argument("--seed", type=int, default=0)
    s.set_defaults(fn=cmd_sample)

    e = sub.add_parser("enumerate", help="enumerate the cells of a random arrangement")
    e.add_argument("--dim", type=int, default=3, help="ambient dimension (d+1)")
    e.add_argument("--n", type=int, default=4)
    e.add_argument("--seed", type=int, default=0)
    e.add_argument("--census", action="store_true", help="include the face census")
    e.set_defaults(fn=cmd_enumerate)

    t = sub.add_parser("pht", help="Poisson hyperplane tessellation cells")
    t.add_argument("--d", type=int, default=2)
    t.add_argument("--gamma", type=float, default=0.5)
    t.add_argument("--R", type=float, default=40.0, help="window radius for --typical window")
    t.add_argument("--reps", type=int, default=1)
    t.add_argument("--seed", type=int, default=0)
    t.add_argument("--typical", choices=("window", "importance"), default="")
    t.add_argument("--scene", default="", help="write a plottable scene JSON here")
    t.set_defaults(fn=cmd_pht)

    f = sub.add_parser("profile", help="rescaled conditional profiles of random cones")
    f.add_argument("--kind", required=True, choices=("pn", "qn"))
    f.add_argument("--d", type=int, default=2)
    f.add_argument("--n", type=int, default=64)
    f.add_argument("--reps", type=int, default=1)
    f.add_argument("--seed", type=int, default=0)
    f.set_defaults(fn=cmd_profile)

    de = sub.add_parser("density", help="evaluate densities from a JSON config")
    de.add_argument("--eval", required=True, choices=("phi", "phin", "pc", "exterior"))
    de.add_argument("--config", required=True)
    de.add_argument("--n", type=int, default=100, help="n for phin")
    de.set_defaults(fn=cmd_density)

    c = sub.add_parser("converge", help="sweep an estimate over n")
    c.add_argument("--quantity", required=True, choices=("qn-f0", "pn-bounded", "l1-density"))
    c.add_argument("--n-list", default="16,64,256")
    c.add_argument("--d", type=int, default=2)
    c.add_argument("--reps", type=int, default=100)
    c.add_argument("--seed", type=int, default=0)
    c.set_defaults(fn=cmd_converge)

    pl = sub.add_parser("plot", help="render a scene JSON to SVG")
    pl.add_argument("--input", required=True)
    pl.add_argument("--svg", required=True)
    pl.set_defaults(fn=cmd_plot)

    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ConehullError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
