#!/usr/bin/env python3
"""Sweep the Maurer-Cartan characterization against the direct identity.

Draws operators over the corpus setups plus setups with randomly sampled
closed twists, and reports the exact agreement count between "Maurer-Cartan
defect vanishes" and the direct twisted Rota-Baxter check.  Any disagreement
would be a sign error in the bracket transcription; the run aborts on the
first one.
"""
import argparse
import random
import time

from twistrb import corpus
from twistrb.linfty import mc_defect
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
    checked = passes = 0
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
    elapsed = time.monotonic() - start
    print(f"{checked} instances, {passes} operators passed both routes, "
          f"100% agreement, {elapsed:.2f}s")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
