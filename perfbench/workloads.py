"""Op lists of the three benchmark workloads.

An op is one call a user makes: mostly an ``ergolab`` CLI argv, otherwise
a call of the public API where the CLI has no route.  Every op is plain
data, so the worker (which imports ergolab) and the checks (which never do)
read the same description.  ``Op.argv`` takes the output directory of
the op in the current pass.

Op sizes are set so that in each workload one CLI op sits at the median
time of the ops that do not fail, well apart from its neighbours, since
``op_p50_s`` then reads that op's time (``cuts3``, ``hamming-equi``,
``sturmian``; see README.md).

Two ops carry ``fault``: they fail today because of a program fault, on
inputs that do not depend on the workload seed, and are counted as failed
rather than making the run incorrect.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

FAULT_SEED = 42  # the seed the two program faults were first seen at


@dataclass(frozen=True)
class Op:
    name: str
    check: str                      # key into checks.CHECKS
    seed: int
    params: dict = field(default_factory=dict)
    command: Optional[str] = None   # CLI subcommand; None for an API op
    api: Optional[str] = None       # key into worker.API for an API op
    fault: Optional[str] = None     # why this op is expected to fail today

    def argv(self, out: str) -> list:
        argv = ["--seed", str(self.seed), "--out", out, self.command]
        for key, val in self.params.items():
            if isinstance(val, (list, tuple)):
                val = ",".join(str(v) for v in val)
            argv += ["--" + key.replace("_", "-"), str(val)]
        return argv


def _cli(name, check, seed, command, fault=None, **params):
    return Op(name=name, check=check, seed=seed, params=params,
              command=command, fault=fault)


def _api(name, check, seed, api, **params):
    return Op(name=name, check=check, seed=seed, params=params, api=api)


def cover_curves(seed: int) -> list:
    """Complexity curves and cover numbers on circle samples."""
    return [
        _cli("halves", "curve", seed, "complexity", system="rotation:golden",
             target="halves", eps=0.1, horizons=[8, 64, 256, 1024], samples=600),
        _cli("halves-small", "curve", seed, "complexity", system="rotation:golden",
             target="halves", eps=0.2, horizons=[16, 64, 256], samples=300),
        _cli("cuts3", "curve", seed, "complexity", system="rotation:golden",
             target="cuts:0:0.3:0.7", eps=0.1, horizons=[8, 64, 256, 1024],
             samples=700),
        _cli("fbar-char", "curve", seed, "complexity", system="rotation:golden",
             target="character:1", eps=0.2, horizons=[16, 64, 256], samples=500),
        _api("fhat-cover", "fhat_cover", seed, "fhat_cover",
             system="rotation:golden", target="character:1", eps=0.2,
             horizon=128, samples=400),
        _cli("bernoulli", "curve", seed, "complexity", system="bernoulli:0.5",
             target="cylinder:0", eps=0.1, horizons=[8, 16, 32, 64], samples=800),
        _cli("report", "report", seed, "report", samples=600),
        _cli("bernoulli16-ceiling", "curve", FAULT_SEED, "complexity",
             fault="classify_boundedness calls a curve stuck at the sample "
                   "ceiling 'bounded'",
             system="bernoulli:0.5:4", target="cylinder:0,1:4", eps=0.1,
             horizons=[8, 16, 32, 64], samples=600),
    ]


def cluster_rows(seed: int) -> list:
    """Readers of a few rows or blocks of a distance matrix."""
    return [
        _cli("fbar-equi", "meanequi", seed, "meanequi", system="rotation:golden",
             target="character:1", eps=0.5, samples=800, horizon=128),
        _cli("hamming-equi", "meanequi", seed, "meanequi",
             system="rotation:golden", target="halves", eps=0.2, samples=1000,
             horizon=2048),
        _cli("cuts3-equi", "meanequi", seed, "meanequi", system="rotation:golden",
             target="cuts:0:0.3:0.7", eps=0.3, samples=300, horizon=256),
        _cli("doubling-equi-failure", "meanequi_failure", FAULT_SEED, "meanequi",
             fault="report._run_meanequi writes null for an "
                   "EquipartitionFailure",
             system="doubling", target="character:1", eps=0.5, k_max=10,
             samples=400, horizon=256),
        _api("verify-limsup", "verify", seed, "verify", system="rotation:golden",
             target="character:1", eps=0.5, samples=600, horizon=128,
             mode="limsup"),
        _api("verify-uniform", "verify", seed, "verify", system="rotation:golden",
             target="character:1", eps=0.5, samples=300, horizon=128,
             mode="uniform"),
        _cli("spectral-rotation", "spectral", seed, "spectral",
             system="rotation:golden", target="character:1",
             horizons=[64, 256, 1024], radius=0.5, samples=1500),
        _cli("spectral-doubling", "spectral", seed, "spectral", system="doubling",
             target="character:1", horizons=[16, 32, 128], radius=1.0,
             samples=400),
    ]


def symbolic_orbits(seed: int) -> list:
    """Families whose points are Python objects."""
    return [
        _cli("expansivity-doubling", "expansivity", seed, "expansivity",
             system="doubling", target="indicator:halves:0", delta=0.4,
             pairs=2000, horizon=1024),
        _cli("expansivity-rotation", "expansivity", seed, "expansivity",
             system="rotation:golden", target="character:1", delta=0.4,
             pairs=2000, horizon=1024),
        _cli("odometer", "curve", seed, "complexity", system="odometer:2",
             target="cylinder:0,1,2:2", eps=0.1, horizons=[8, 16, 32],
             samples=150),
        _cli("sturmian", "curve", seed, "complexity", system="sturmian",
             target="cylinder:0", eps=0.1, horizons=[8, 128, 512, 1024],
             samples=600),
        _cli("name-doubling", "name", seed, "name", system="doubling",
             target="halves", n=4096),
        _cli("name-bernoulli", "name", seed, "name", system="bernoulli:0.5",
             target="cylinder:0", n=4096),
        _cli("name-odometer", "name", seed, "name", system="odometer:2",
             target="cylinder:0,1,2:2", n=6144),
        _api("eigen-doubling", "eigen", seed, "eigen", system="doubling",
             target="character:1", lam=1.0, samples=12000),
        _api("eigen-rotation", "eigen", seed, "eigen", system="rotation:golden",
             target="character:1", lam="theta", samples=4000),
    ]


WORKLOADS = {
    "cover-curves": cover_curves,
    "cluster-rows": cluster_rows,
    "symbolic-orbits": symbolic_orbits,
}


def ops_for(workload: str, seed: int) -> list:
    try:
        make = WORKLOADS[workload]
    except KeyError:
        raise SystemExit(f"unknown workload {workload!r}; "
                         f"expected one of {sorted(WORKLOADS)}") from None
    return make(seed)
