#!/usr/bin/env python3
"""One-off re-measurement of the baselines quoted in ROADMAP.md.

    python3 perfbench/baselines.py

Not a workload: it takes minutes (the first item alone about three) and is run
by hand; BASELINES.md records one run and whether each quoted figure was
confirmed or corrected.  It uses the benchmark's generator and traced
harness:

1. h7 `cohomology-of-t --nmax 2` (the bracket3 route), sparse and dense
   operators, against `ce-cohomology --nmax 2` on the induced structure;
2. `mc_defect` against `check_trb`, on passing operators and on random,
   mostly failing ones;
3. assembly and Fraction rank of the 245x147 degree-2 CE matrix of h7.
"""
from __future__ import annotations

import argparse
import os
import shutil
import statistics
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEED = 0
sys.path.insert(0, os.path.join(ROOT, "src"))

from twistrb import cli, corpus  # noqa: E402
from twistrb.liealg import Representation, ce_differential, lie_algebra_from_cochain  # noqa: E402
from twistrb.operators import induced_action_matrices, induced_bracket_cochain  # noqa: E402

import families  # noqa: E402
from run import WORK_DIR, run_job  # noqa: E402
from tracing import Tracer  # noqa: E402


def traced(tracer, fn):
    tracer.reset()
    t0 = perf_counter()
    fn()
    return tracer.summary(perf_counter() - t0)


def cli_job(name, argv):
    return families.Job(name, argv[0], argv, lambda code, out: None)


def item_dt_route(tracer, rng, w):
    print("1. h7 operator cohomology, --nmax 2")
    for tag, make in (("h7_sparse", families.sparse_operator), ("h7_dense", families.dense_operator)):
        setup, t = make(rng, 3)
        _, path = families.ladder_instance(w, tag, setup, t)
        ind = w.write(tag + "-induced", families.induced_doc(setup, t))
        ce = traced(tracer, lambda: run_job(cli, cli_job("ce", ["ce-cohomology", ind, "--nmax", "2", "--json"]), tracer))
        print(f"   {tag}: ce-cohomology on the induced structure {ce['wall_s']:.2f} s "
              f"(ce_differential {ce['inclusive_s'].get('liealg.ce_differential', 0):.2f} s, "
              f"rref {ce['inclusive_s'].get('exactlin.rref', 0):.2f} s)")
        dt = traced(tracer, lambda: run_job(cli, cli_job("dt", ["cohomology-of-t", path, "--nmax", "2", "--json"]), tracer))
        print(f"   {tag}: cohomology-of-t {dt['wall_s']:.2f} s "
              f"(d_t_matrix {dt['inclusive_s'].get('linfty.d_t_matrix', 0):.2f} s, "
              f"bracket3 {dt['inclusive_s'].get('linfty.bracket3', 0):.2f} s over {dt['calls'].get('linfty.bracket3', 0)} calls, "
              f"rref {dt['inclusive_s'].get('exactlin.rref', 0):.2f} s)")


def item_mc_vs_trb(tracer, rng):
    print("2. mc_defect against check_trb (one call each per operator)")
    from twistrb.linfty import mc_defect
    from twistrb.operators import check_trb

    def ratio(pairs):
        mc = trb = 0.0
        for setup, t in pairs:
            s = traced(tracer, lambda: (check_trb(setup, t), mc_defect(setup, t)))
            mc += s["inclusive_s"]["linfty.mc_defect"]
            trb += _outer_trb(tracer)
        return mc, trb

    passing = [families.trb_frame(rng, k)[1:] for k in range(200)]
    setups = [setup for _, setup, _ in corpus.trb_instances()]
    failing = [(s, corpus.random_operator(rng, s)) for s in (setups[k % len(setups)] for k in range(200))]
    for label, pairs in (("passing, dims 2-5", passing), ("random corpus operators", failing)):
        mc, trb = ratio(pairs)
        npass = sum(check_trb(s, t).ok for s, t in pairs)
        print(f"   {label}: {len(pairs)} operators ({npass} pass), mc_defect {mc:.3f} s, "
              f"check_trb {trb:.3f} s, ratio {mc / trb:.1f}x")


def _outer_trb(tracer):
    """Time of check_trb spans that are not inside mc_defect."""
    total = 0.0
    for rec in tracer.spans:
        if rec[0] != "operators.check_trb":
            continue
        parent = rec[3]
        if parent < 0 or tracer.spans[parent][0] != "linfty.mc_defect":
            total += rec[2] - rec[1]
    return total


def item_rank(tracer, rng, w):
    print("3. the 245x147 degree-2 CE matrix of the h7 induced structure")
    for tag, make in (("h7_sparse", families.sparse_operator), ("h7_dense", families.dense_operator)):
        setup, t = make(rng, 3)
        algebra = lie_algebra_from_cochain(induced_bracket_cochain(setup, t))
        rep = Representation(setup.dim, induced_action_matrices(setup, t))
        box = {}
        asm = traced(tracer, lambda: box.setdefault("d2", ce_differential(algebra, rep, 2)))
        d2 = box["d2"]
        ranks = [traced(tracer, d2.rank)["inclusive_s"]["exactlin.rank"] for _ in range(3)]
        r = d2.rank()
        assembly = asm["inclusive_s"]["liealg.ce_differential"]
        nnz = sum(1 for x in d2.entries if x)
        dens = max(x.denominator for x in d2.entries)
        print(f"   {tag}: {d2.rows}x{d2.cols}, {100 * nnz / len(d2.entries):.1f}% nonzero, largest denominator {dens}, "
              f"assembly {assembly:.2f} s, rank {r} in {statistics.median(ranks):.3f} s (median of 3)")


def main() -> int:
    argparse.ArgumentParser(description=__doc__).parse_args()
    work = os.path.join(ROOT, WORK_DIR, f"baselines-{os.getpid()}")
    rng = families.Source(f"baselines:{SEED}")
    tracer = Tracer()
    tracer.install(extra_modules=[families, sys.modules[__name__]])
    try:
        w = families.Writer(work)
        print(f"seed: {SEED}")
        item_dt_route(tracer, rng, w)
        item_mc_vs_trb(tracer, rng)
        item_rank(tracer, rng, w)
    finally:
        tracer.uninstall()
        shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
