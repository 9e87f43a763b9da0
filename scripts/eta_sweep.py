#!/usr/bin/env python3
"""Sweep the infinitesimal eta invariant over a one-parameter family of
irreducible profiles and write the results to CSV.

The family interpolates the slope of phi while keeping phi(0) fixed, which
varies the boundary transgression without touching the boundary metric scale.
Useful for probing how the boundary correction moves against the bulk term;
whether the transgression vanishes for special (e.g. conformally Einstein)
profiles is an open question this sweep only samples, never settles.

Usage:
    python scripts/eta_sweep.py [--points 21] [--out eta_sweep.csv]
"""

import argparse
import csv
import sys

import numpy as np

from equichar.app import RunConfig, eta_invariant
from equichar.skr import SKRProfile


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--points", type=int, default=21)
    ap.add_argument("--phi0", type=float, default=0.5)
    ap.add_argument("--c-bar", type=float, default=-1.0)
    ap.add_argument("--base-curv", type=float, default=2.0)
    ap.add_argument("--tau-min", type=float, default=-0.5)
    ap.add_argument("--out", default="eta_sweep.csv")
    args = ap.parse_args(argv)

    slopes = np.linspace(-0.4, 0.4, args.points)
    rows = []
    for slope in slopes:
        try:
            p = SKRProfile.irreducible_polynomial(
                [args.phi0, args.phi0 * slope],
                args.c_bar,
                base_curv=args.base_curv,
                tau_min=args.tau_min,
            )
        except Exception as exc:
            print(f"skip slope {slope:+.3f}: {exc}", file=sys.stderr)
            continue
        rep = eta_invariant(RunConfig(profile=p))
        rows.append(
            {
                "slope": slope,
                "bulk": rep.bulk_integral["value"],
                "boundary": rep.boundary_integral["value"],
                "tl3": rep.tl3_closed["value"],
                "eta": rep.eta["value"],
                "eta_error": rep.eta["error"],
            }
        )
        print(f"slope {slope:+.3f}  bulk {rows[-1]['bulk']:+.6e}  "
              f"TL3 {rows[-1]['tl3']:+.6e}  eta {rows[-1]['eta']:+.6e}")

    with open(args.out, "w", newline="\n") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)
    print(f"wrote {args.out} ({len(rows)} rows)")


if __name__ == "__main__":
    main()
