"""The benchmark's workloads: the kerrqgt command lines each one runs.

Each workload is a list of CLI invocations of ``kerrqgt.cli.main`` into one
fresh output directory.  The program sees only these generated arguments;
the seed enters through them alone.

Three scales exist.  ``bench`` is what BENCHMARK.json measures.  ``full`` is
the paper-default configuration (one ``paper`` iteration takes about two
minutes on a 2-core machine, too long for the per-run budget) and is there
for reference measurements.  ``tiny`` is the smoke-test scale, also used to
warm up before timing; the paper's tolerances do not hold there.

Why each workload:

* ``paper``: the README flow (scaling, k0 reusing the scaling report, plots,
  then an unchanged scaling rerun that must be a no-op).  The full-spectrum
  tensor kernel dominates; part of it is serial peak search, part goes
  through the thread pool.  At ``bench`` scale the sizes and the Fock cutoff
  are halved (sizes 150-350, cutoff 400, same cutoff-to-size ratio), the
  collapse grid is 4x coarser, and the K = 0 cutoffs are the paper's; every
  acceptance target of criteria 1-5 still holds there.  It ignores the seed.
* ``phase-diagram``: the order-parameter grid.  Every point calls
  ``ground_state`` (both parity sectors) and never the tensor kernel, so a
  tensor-only change should leave it unchanged.  The seed picks the 4 drive
  phases.
* ``qgt-both``: the tensor by the spectral sum and by finite differences at
  every point.  The finite-difference stencils solve the even sector about 7
  more times per point and use only its ground vector.  It runs on 2 pool
  threads like the other two: single-threaded, its time followed the speed
  of whichever of the 2 vCPUs it ran on, and iterations of the same inputs
  spread by 0.7-1.1x of their median against 0.9-1.1x on 2 threads.  The
  seed shifts the eps grid by up to +-0.005 and picks the drive phase.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

SCALES = ("bench", "full", "tiny")
NAMES = ("paper", "phase-diagram", "qgt-both")

PAPER_K0_CUTOFFS = (200, 283, 400, 566, 800, 1131, 1600)

PAPER = {
    "bench": dict(sizes=(150, 200, 250, 300, 350), n_cut=400, bracket=(0.99, 1.40),
                  window=(0.95, 1.06), step=0.004, ncut_list=PAPER_K0_CUTOFFS),
    "full": dict(sizes=(300, 400, 500, 600, 700), n_cut=800, bracket=(0.99, 1.40),
                 window=(0.95, 1.06), step=0.001, ncut_list=PAPER_K0_CUTOFFS),
    "tiny": dict(sizes=(40, 50, 60, 70, 85), n_cut=200, bracket=(1.05, 1.45),
                 window=(1.05, 1.40), step=0.01, ncut_list=(60, 84, 120, 170, 240)),
}
PHASE_DIAGRAM = {
    "bench": dict(size=800, eps=(0.0, 1.5, 31), n_phi=4, n_cut=360),
    "full": dict(size=2000, eps=(0.0, 1.5, 31), n_phi=4, n_cut=800),
    "tiny": dict(size=200, eps=(0.0, 1.5, 7), n_phi=2, n_cut=160),
}
QGT = {
    "bench": dict(sizes=(150, 250, 350), eps=(0.95, 1.06, 8), n_cut=400),
    "full": dict(sizes=(300, 500, 700), eps=(0.95, 1.06, 8), n_cut=800),
    "tiny": dict(sizes=(40, 60), eps=(0.95, 1.06, 3), n_cut=120),
}


@dataclass(frozen=True)
class Step:
    label: str
    argv: tuple


@dataclass(frozen=True)
class Workload:
    name: str
    steps: tuple
    params: dict  # what the correctness checks need to know about the inputs


def _ints(values) -> str:
    return ",".join(str(v) for v in values)


def _num(x: float) -> str:
    return f"{x:.6f}"


def _span(lo: float, hi: float) -> str:
    return f"{_num(lo)}:{_num(hi)}"


def _grid(lo: str, hi: str, n: int) -> list[float]:
    """The grid the CLI builds (np.linspace) from the same argument strings."""
    lo_f, hi_f = float(lo), float(hi)
    if n == 1:
        return [lo_f]
    return [lo_f + (hi_f - lo_f) * i / (n - 1) for i in range(n)]


def paper(scale: str, seed: int) -> Workload:
    c = PAPER[scale]
    scaling = ("scaling", "--threads", "2", "--L-list", _ints(c["sizes"]),
               "--ncut", str(c["n_cut"]), "--bracket", _span(*c["bracket"]),
               "--eps-window", _span(*c["window"]), "--eps-step", repr(c["step"]))
    k0 = ("k0", "--threads", "2", "--ncut-list", _ints(c["ncut_list"]),
          "--L-list", _ints(c["sizes"]), "--ncut", str(c["n_cut"]))
    steps = (Step("scaling", scaling), Step("k0", k0), Step("plots", ("plots",)),
             Step("rerun", scaling))
    return Workload("paper", steps,
                    dict(sizes=c["sizes"], ncut_list=c["ncut_list"]))


def phase_diagram(scale: str, seed: int) -> Workload:
    c = PHASE_DIAGRAM[scale]
    rng = random.Random(f"phase-diagram:{seed}")
    lo = rng.uniform(0.0, math.pi)
    hi = lo + rng.uniform(0.5 * math.pi, math.pi)
    eps_lo, eps_hi, n_eps = _num(c["eps"][0]), _num(c["eps"][1]), c["eps"][2]
    phi_lo, phi_hi = _num(lo), _num(hi)
    argv = ("phase-diagram", "--threads", "2", "--L", str(c["size"]),
            "--eps", f"{eps_lo}:{eps_hi}:{n_eps}",
            "--phi", f"{phi_lo}:{phi_hi}:{c['n_phi']}", "--ncut", str(c["n_cut"]))
    return Workload("phase-diagram", (Step("phase-diagram", argv),),
                    dict(size=float(c["size"]), eps=_grid(eps_lo, eps_hi, n_eps),
                         phi=_grid(phi_lo, phi_hi, c["n_phi"])))


def qgt_both(scale: str, seed: int) -> Workload:
    c = QGT[scale]
    rng = random.Random(f"qgt-both:{seed}")
    offset = rng.uniform(-0.005, 0.005)
    phi = _num(rng.uniform(0.0, 2.0 * math.pi))
    eps_lo, eps_hi, n_eps = _num(c["eps"][0] + offset), _num(c["eps"][1] + offset), c["eps"][2]
    argv = ("qgt", "--threads", "2", "--L-list", _ints(c["sizes"]),
            "--eps", f"{eps_lo}:{eps_hi}:{n_eps}", "--phi", phi,
            "--method", "both", "--ncut", str(c["n_cut"]))
    return Workload("qgt-both", (Step("qgt", argv),),
                    dict(sizes=c["sizes"], eps=_grid(eps_lo, eps_hi, n_eps)))


BUILDERS = {"paper": paper, "phase-diagram": phase_diagram, "qgt-both": qgt_both}


def build(name: str, scale: str, seed: int) -> Workload:
    return BUILDERS[name](scale, seed)
