#!/usr/bin/env python3
"""Sweep the Maurer-Cartan characterization against the direct identity.

Draws operators over the corpus setups plus setups with randomly sampled
closed twists, and reports the exact agreement count between "Maurer-Cartan
defect vanishes" and the direct twisted Rota-Baxter check.  On every
operator that passes, it also compares d_T f, from the derived brackets,
with (-1)^n delta_CE f of the induced structure (`linfty.compare_dt_ce`)
for a drawn cochain f of each degree 0, 1 and 2.  Any disagreement would be
a sign error in the bracket transcription; the run stops at the first one
and exits 1.
"""
import argparse
import random
import time
from math import comb

from twistrb import corpus
from twistrb.linfty import compare_dt_ce, mc_defect
from twistrb.multilin import Cochain
from twistrb.operators import check_trb


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--count", type=int, default=200)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    rng = random.Random(args.seed)
    print(f"seed: {args.seed}")

    frames = [(name, setup) for name, setup, _ in corpus.trb_instances()]
    start = time.monotonic()
    checked = passes = compared = 0
    while checked < args.count:
        if checked % 5 == 4:
            setup = next(iter(corpus.random_setups(rng, 1)))
            name = "random-twist"
        else:
            name, setup = frames[rng.randrange(len(frames))]
        t = corpus.random_operator(rng, setup)
        mc_zero = mc_defect(setup, t)[0].is_zero()
        direct = check_trb(setup, t).ok
        if mc_zero != direct:
            print(f"DISAGREEMENT on {name}: mc={mc_zero} direct={direct}")
            return 1
        passes += direct
        checked += 1
        if not direct:
            continue
        n, m = setup.operator_shape()
        for degree in range(3):
            f = Cochain(degree, m, n, corpus.random_matrix(rng, n, comb(m, degree)))
            if not compare_dt_ce(setup, t, f):
                print(f"DISAGREEMENT on {name}: d_T and delta_CE differ on a degree-{degree} cochain")
                return 1
            compared += 1
    elapsed = time.monotonic() - start
    print(f"{checked} instances, {passes} operators passed both routes, "
          f"100% agreement, {elapsed:.2f}s")
    print(f"{compared} cochains of degrees 0-2 on the passing operators: d_T equals delta_CE on each")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
