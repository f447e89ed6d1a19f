"""The benchmark's workloads, and the child process that runs one of them.

Run as a script, this file is one repetition of a workload in a fresh
interpreter:

    python3 perfbench/jobs.py SRC_DIR WORKLOAD SEED TRACE_FILE

It imports mkpolys from SRC_DIR, runs the workload's jobs one after
another in the order the seed gives, and prints one JSON line with the
time the import finished, each job's start, end and verdict, and the
process's peak RSS.  WORKLOAD "probe" stops after the import.  With a
TRACE_FILE other than "-", the layer wrappers of spans.py are installed
and the spans are written there at exit.  Otherwise the jobs are paced
(pace.py): each job also reports the kernel samples taken during it and
the time they took, and the repetition its CPU time without them.

Jobs call mkpolys only through module attributes (`mkengine.build_family`,
not a name bound at import), so that installed wrappers are the functions
that run.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import resource
import sys
import time
from fractions import Fraction

from pace import Pacer
from spans import Tracer

HERE = os.path.dirname(os.path.abspath(__file__))
GOLDEN = os.path.join(HERE, "golden.json")
M = 40  # series precision of every check: identities hold mod v^(M+1)
PRE_JOB_SAMPLES = 3  # kernel samples taken just before each untraced job


# -- compute-rank2: `mkpolys compute` on integer orbit-sum inputs ---------

COMPUTE_CASES = (("AIIIb", 0), ("AIIIb", 2), ("CI", 0), ("DI", 0))


def compute_stdout(family, level):
    """What `mkpolys compute` prints for the case, and its exit code."""
    from mkpolys import cli
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(["compute", "--family", family, "--n", "2", "--level",
                         str(level), "--bound", "4", "--format", "json"])
    return code, buf.getvalue()


def compute_job(family, level, golden):
    def run():
        code, out = compute_stdout(family, level)
        digest = hashlib.sha256(out.encode()).hexdigest()
        return code == 0 and digest == golden[compute_name(family, level)]
    return run


def compute_name(family, level):
    return "compute %s n=2 l=%d" % (family, level)


# -- selfcheck-rank2: eigen self-check plus Gram agreement ------------------

SELFCHECK_LEVELS = (1,)  # l=0 would add 7 s to a repetition


def selfcheck_job(level):
    def run():
        from mkpolys import mkengine, roots
        entry = roots.satake_catalog("AIIIb", 2)
        # verify=True raises ValueError when an eigenfunction check fails
        fam = mkengine.build_family(entry, level, 4, verify=True)
        return gram_agrees(fam, entry, level, Fraction(0))
    return run


def gram_agrees(fam, entry, level, sigma):
    from mkpolys import mkengine
    return all(
        mkengine.dual_path_agree(
            fam[lam], mkengine.build_polynomial_gs(entry, level, lam, M, sigma), M)
        for lam in fam)


# -- orthogonality-rank1: series and pairing layers, rank-one chains -------

def ai1_level_job(level):
    def run():
        from mkpolys import mkengine, roots
        from mkpolys.galg import GAElem
        from mkpolys.scalars import SC_ONE
        entry = roots.satake_catalog("AI1", 1)
        fam = mkengine.build_family(entry, level, 10)
        ok = mkengine.verify_orthogonality(fam, entry, level, M)["pass"]
        ok = ok and gram_agrees(fam, entry, level, Fraction(0))
        ok = ok and all(mkengine.check_bar_invariance(P) for P in fam.values())
        nxt = mkengine.build_family(entry, level + 1, 10)
        for top in range(2, 11, 2):
            lam = (top,)
            d = mkengine.connection_coeffs(fam, nxt, lam)
            rebuilt = GAElem(1)
            for mu, c in d.items():
                rebuilt = rebuilt + nxt[mu].as_gaelem(1).scale(c)
            ok = (ok and set(d) == {lam, (top - 2,)} and d[lam] == SC_ONE
                  and rebuilt == fam[lam].as_gaelem(1))
        return ok
    return run


def aivm_job():
    from mkpolys import mkengine, roots
    sigma = Fraction(1, 2)
    entry = roots.satake_catalog("AIVm", 1, 2)
    fam = mkengine.build_family(entry, 1, 8, sigma)
    return (mkengine.verify_orthogonality(fam, entry, 1, M, sigma)["pass"]
            and gram_agrees(fam, entry, 1, sigma))


def chain_job(family, n, sigma, levels):
    """Solved rank-one chains equal their closed forms and square to the
    level factors, exactly."""
    def run():
        from mkpolys import qsp1, roots, weights
        from mkpolys.scalars import SC_ONE
        rs1 = roots.build_root_system(1)
        if family == "AI1":
            mod = qsp1.build_rank1("AI1")
            entry = roots.satake_catalog("AI1", 1)
        else:
            mod = qsp1.build_rank1("AIV", n, (SC_ONE, qsp1.aiiia_parameter(sigma, n)))
            entry = roots.satake_catalog("AIVm", 1, n)
        ok = True
        for l in levels:
            chain = qsp1.chain_res(mod, l)
            factor = weights.poch_to_gaelem(weights.shift_factor(entry, l, rs1, sigma))
            ok = (ok and chain == qsp1.fundamental_res(family, n, l, sigma)
                  and chain * chain.bar() == factor)
        return ok
    return run


def workload_jobs(name):
    """The workload's jobs as (job name, callable returning True on
    success), in their fixed order."""
    if name == "compute-rank2":
        with open(GOLDEN) as fh:
            golden = json.load(fh)
        return [(compute_name(f, l), compute_job(f, l, golden))
                for f, l in COMPUTE_CASES]
    if name == "selfcheck-rank2":
        return [("selfcheck AIIIb n=2 l=%d" % l, selfcheck_job(l))
                for l in SELFCHECK_LEVELS]
    if name == "orthogonality-rank1":
        jobs = [("AI1 l=%d bound 10" % l, ai1_level_job(l)) for l in (0, 1, 2)]
        jobs.append(("AIVm m=2 s=1/2 l=1 bound 8", aivm_job))
        jobs.append(("chains AI1 l=1..8", chain_job("AI1", 1, Fraction(0), range(1, 9))))
        signed = [s * l for l in range(1, 7) for s in (1, -1)]
        for n in (2, 3):
            for sigma in (Fraction(0), Fraction(1, 2)):
                jobs.append(("chains AIV n=%d s=%s l=+-1..6" % (n, sigma),
                             chain_job("AIV", n, sigma, signed)))
        return jobs
    raise ValueError("unknown workload %r" % name)


WORKLOADS = ("compute-rank2", "selfcheck-rank2", "orthogonality-rank1")


def main(argv):
    src, workload, seed, trace_file = argv[1], argv[2], int(argv[3]), argv[4]
    sys.path.insert(0, src)
    import mkpolys.cli  # what the `mkpolys` command imports
    ready = time.perf_counter()
    if not os.path.abspath(mkpolys.__file__).startswith(os.path.abspath(src) + os.sep):
        print("mkpolys was not imported from %s" % src, file=sys.stderr)
        return 2
    out = {"ready": ready, "jobs": []}
    if workload != "probe":
        jobs = workload_jobs(workload)
        random.Random(seed).shuffle(jobs)
        tracer = pacer = None
        if trace_file != "-":
            tracer = Tracer()
            tracer.install()
        else:
            pacer = Pacer()
            cpu0, mark0 = time.process_time(), pacer.mark()
            pacer.install()
        for name, run in jobs:
            if tracer is not None:
                tracer.job = name
            else:
                # a job shorter than the timer interval still gets samples
                first = pacer.mark()
                for _ in range(PRE_JOB_SAMPLES):
                    pacer.sample()
                before = pacer.mark()
            start = time.perf_counter()
            try:
                ok, error = bool(run()), None
            except Exception as exc:  # a failed job is counted, not fatal
                ok, error = False, "%s: %s" % (type(exc).__name__, exc)
            end = time.perf_counter()
            job = {"name": name, "start": start, "end": end, "ok": ok, "error": error}
            if pacer is not None:
                after = pacer.mark()
                job["kernel_inv_sum"] = after[0] - first[0]
                job["kernel_count"] = after[1] - first[1]
                job["kernel_s"] = after[2] - before[2]  # spent inside [start, end]
            out["jobs"].append(job)
        if tracer is not None:
            tracer.uninstall()
            tracer.dump(trace_file)
        else:
            pacer.uninstall()
            out["cpu_s"] = time.process_time() - cpu0 - (pacer.busy - mark0[2])
    out["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
