"""Checks of every op's output, made apart from the program.

This module never imports ``ergolab``.  It regenerates each op's samples
from the splitmix64 hash chain that ``src/ergolab/rng.py`` documents
(sample j of a stream is a pure function of (seed, tag, j)), computes
names and distances itself, and compares the outputs with closed forms
and with properties the estimators must have:

* fbar and fhat of ``character:1`` on a rotation equal 2 sin(pi arc(x, y))
  at every horizon, so equipartitions, cover numbers and verify reports
  are recomputed from that closed form;
* Hamming cover numbers are recounted by a plain greedy over independently
  computed names; where no ball holds two distinct words (1/n >= eps, or
  the odometer, whose names are (X + i) mod 8) K must equal the fewest
  distinct words whose mass exceeds 1 - eps;
* covered mass is compared with 1 - eps exactly, on integer counts;
* rotation Koopman distances are 2 |sin(pi (a - b) theta)|, which fixes
  the greedy orbit count; doubling characters are orthonormal, so the
  count at radius 1 is N and distances sit near sqrt 2 within a
  Hoeffding slack;
* expansivity shares are recounted pair by pair;
* rotation, sturmian and odometer curves are never ``growing`` and
  bernoulli curves never ``bounded``; a curve whose last three estimates
  sit at the sample ceiling may carry any verdict but ``bounded``; every
  other curve's verdict follows the classifier's documented rule on the
  reported estimates; rotation orbits are ``ap`` and doubling orbits
  ``not_ap``;
* every CSV file equals the rendering of its bundle's values.

A check raises ``CheckError`` with a reason; ``check_op`` returns it.
"""

from __future__ import annotations

import csv
import io
import json
import math
from fractions import Fraction

import numpy as np

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0

# stream tags, as fixed in the program's modules and in worker.py
TAG_POINT = 101      # systems: sample j of a sampler stream
TAG_SYMBOL = 7       # systems: symbol i of a point's two-sided stream
TAG_CURVE = 31       # cover.complexity_curve samples
TAG_PAIR = (41, 42)  # equicont.mean_expansivity_estimate pair sides
TAG_L2 = 51          # spectral sample set
TAG_EQUI = 71        # report meanequi samples
TAG_API = 97         # worker.py API-op samples

_TOL = 1e-9  # closed form against the program's floating-point sums


class CheckError(Exception):
    pass


def need(cond, msg: str) -> None:
    if not cond:
        raise CheckError(msg)


# ---------------------------------------------------------------------------
# splitmix64 hash chain

_G = np.uint64(0x9E3779B97F4A7C15)
_M1 = np.uint64(0xBF58476D1CE4E5B9)
_M2 = np.uint64(0x94D049BB133111EB)


def _mix(z):
    with np.errstate(over="ignore"):
        z = z + _G
        z = (z ^ (z >> np.uint64(30))) * _M1
        z = (z ^ (z >> np.uint64(27))) * _M2
        return z ^ (z >> np.uint64(31))


def hash64(*parts):
    """h = mix(h ^ part) over the parts, starting from 0; parts broadcast."""
    h = np.uint64(0)
    for p in parts:
        if isinstance(p, (int, np.integer)):
            p = np.uint64(int(p) & (2**64 - 1))
        h = _mix(h ^ p)
    return h


def child(seed: int, tag: int) -> int:
    return int(hash64(seed, tag))


def uniform01(h):
    return (np.asarray(h, dtype=np.uint64) >> np.uint64(11)) * 2.0 ** -53


def _stream_hashes(seeds, lo: int, hi: int):
    """(m, hi-lo) hashes of symbol indices lo..hi-1 of each point's stream."""
    i = np.arange(lo, hi, dtype=np.int64)
    zig = np.where(i >= 0, 2 * i, -2 * i - 1).astype(np.uint64)
    return hash64(np.asarray(seeds, dtype=np.uint64)[:, None], TAG_SYMBOL,
                  zig[None, :])


# ---------------------------------------------------------------------------
# Systems, samples and names


def parse_system(text: str) -> dict:
    parts = text.split(":")
    fam = parts[0]
    if fam in ("rotation", "sturmian"):
        golden = len(parts) < 2 or parts[1] == "golden"
        return {"family": fam, "theta": GOLDEN if golden else float(parts[1])}
    if fam == "bernoulli":
        p = float(parts[1]) if len(parts) > 1 else 0.5
        k = int(parts[2]) if len(parts) > 2 else 2
        probs = (1.0 - p, p) if k == 2 else (1.0 - p,) + (p / (k - 1),) * (k - 1)
        return {"family": fam, "thresholds": tuple(np.cumsum(probs)[:-1])}
    if fam == "odometer":
        base = int(parts[1])
        return {"family": fam, "base": base,
                "thresholds": tuple(np.arange(1, base) / base)}
    if fam == "doubling":
        return {"family": fam}
    raise CheckError(f"no check model for system {text!r}")


def parse_partition(text: str) -> dict:
    parts = text.split(":")
    if parts[0] == "halves":
        return {"cuts": (0.0, 0.5)}
    if parts[0] == "cuts":
        return {"cuts": tuple(sorted(float(c) % 1.0 for c in parts[1:]))}
    if parts[0] == "cylinder":
        coords = sorted(int(c) for c in parts[1].split(","))
        return {"coords": coords, "alphabet": int(parts[2]) if len(parts) > 2 else 2}
    raise CheckError(f"no check model for partition {text!r}")


def samples(system: dict, plan_seed: int, count: int) -> np.ndarray:
    """Circle positions, sturmian angles, or per-point stream seeds."""
    h = hash64(plan_seed, TAG_POINT, np.arange(count, dtype=np.uint64))
    if system["family"] in ("rotation", "sturmian"):
        return uniform01(h)
    return h


def _symbols(system: dict, pts, lo: int, hi: int) -> np.ndarray:
    fam = system["family"]
    if fam == "sturmian":
        theta = system["theta"]
        k = np.arange(lo, hi)
        return ((pts[:, None] + k[None, :] * theta) % 1.0 >= 1.0 - theta).astype(
            np.int64)
    u = uniform01(_stream_hashes(pts, lo, hi))
    out = np.zeros(u.shape, dtype=np.int64)
    for t in system["thresholds"]:
        out += u >= t
    return out


def doubling_bits(pts, n: int) -> np.ndarray:
    return (_stream_hashes(pts, 0, n) >> np.uint64(63)).astype(np.int64)


def doubling_values(pts, n: int) -> np.ndarray:
    """x, Tx, ..., T^{n-1}x: 53-bit windows of the bit stream (exact)."""
    bits = doubling_bits(pts, n + 52).astype(np.float64)
    weights = 0.5 ** np.arange(1, 54)
    return np.lib.stride_tricks.sliding_window_view(bits, 53, axis=1) @ weights


def circle_orbit(system: dict, pts, n: int) -> np.ndarray:
    if system["family"] == "rotation":
        return (pts[:, None] + np.arange(n)[None, :] * system["theta"]) % 1.0
    if system["family"] == "doubling":
        return doubling_values(pts, n)
    raise CheckError(f"{system['family']} has no circle values")


def names(system: dict, part: dict, pts, n: int) -> np.ndarray:
    """(m, n) labels of the orbit of every point under the partition."""
    if "cuts" in part:
        cuts = np.asarray(part["cuts"])
        if system["family"] == "doubling" and part["cuts"] == (0.0, 0.5):
            return doubling_bits(pts, n)  # first bit of the expansion
        vals = circle_orbit(system, pts, n)
        return (np.searchsorted(cuts, vals, side="right") - 1) % len(cuts)
    coords, alpha = part["coords"], part["alphabet"]
    if system["family"] == "odometer":
        # +1 with carries: the first k digits count up mod base**k
        base = system["base"]
        need(coords == list(range(len(coords))) and alpha == base,
             "odometer model needs cylinder coords 0..k-1 in its base")
        digits = _symbols(system, pts, 0, len(coords))
        start = digits @ (base ** np.arange(len(coords)))
        return (start[:, None] + np.arange(n)[None, :]) % base ** len(coords)
    stream = _symbols(system, pts, 0, coords[-1] + n)
    return sum(stream[:, c:c + n] * alpha ** j for j, c in enumerate(coords))


def hamming_matrix(labels: np.ndarray) -> np.ndarray:
    """Fraction of differing positions, from agreement counts by GEMM."""
    m, n = labels.shape
    agree = np.zeros((m, m))
    for s in np.unique(labels):
        onehot = (labels == s).astype(np.float64)
        agree += onehot @ onehot.T
    return (n - np.rint(agree).astype(np.int64)) / n


def arc(a, b):
    t = np.abs(a - b) % 1.0
    return np.minimum(t, 1.0 - t)


def chord_matrix(x: np.ndarray) -> np.ndarray:
    """fbar = fhat of character:1 under a rotation: 2 sin(pi arc(x, y))."""
    return 2.0 * np.sin(np.pi * arc(x[:, None], x[None, :]))


# ---------------------------------------------------------------------------
# Reference computations


def mass_exceeds(covered: int, total: int, eps: float) -> bool:
    """covered / total > 1 - eps, exactly."""
    return Fraction(covered, total) > 1 - Fraction(eps)


def greedy_cover(balls: np.ndarray, eps: float) -> list:
    """Plain greedy over unit-weight samples: the uncovered candidate that
    covers most uncovered samples, lowest index on ties."""
    m = balls.shape[0]
    mat = balls.astype(np.float64)
    uncovered = np.ones(m, dtype=bool)
    covered, centers = 0, []
    while not mass_exceeds(covered, m, eps):
        gains = mat @ uncovered
        gains[~uncovered] = -1.0
        i = int(np.argmax(gains))
        need(gains[i] > 0, "reference greedy ran out of candidates")
        centers.append(i)
        covered += int(gains[i])
        uncovered &= ~balls[i]
    return centers


def fewest_words(labels: np.ndarray, eps: float) -> int:
    """Fewest distinct words whose sample mass exceeds 1 - eps."""
    _, counts = np.unique(labels, axis=0, return_counts=True)
    total = 0
    for k, c in enumerate(sorted(counts, reverse=True), 1):
        total += int(c)
        if mass_exceeds(total, labels.shape[0], eps):
            return k
    raise CheckError("distinct words never exceed the mass target")


def sample_ceiling(m: int, eps: float) -> int:
    """Cover count when every ball is a singleton."""
    k = 1
    while not mass_exceeds(k, m, eps):
        k += 1
    return k


def greedy_clusters(D: np.ndarray, eps: float, k_max: int) -> list:
    m = D.shape[0]
    unassigned = np.ones(m, dtype=bool)
    clusters, covered = [], 0
    while not mass_exceeds(covered, m, eps) and len(clusters) < k_max:
        if not unassigned.any():
            break
        c = int(np.argmax(unassigned))
        members = np.nonzero(unassigned & (D[c] < eps / 2.0))[0]
        clusters.append([int(i) for i in members])
        unassigned[members] = False
        covered += members.size
    return clusters


def mass_count(mass: float, m: int) -> int:
    """The integer sample count behind a reported covered mass."""
    c = round(mass * m)
    need(c / m == mass, f"covered mass {mass} is not a count over {m} samples")
    return c


# ---------------------------------------------------------------------------
# Files


def _json(files: dict, name: str):
    need(name in files, f"missing {name}")
    try:
        return json.loads(files[name])
    except ValueError as exc:
        raise CheckError(f"{name} is not JSON: {exc}") from None


def _csv_text(rows, prov: dict) -> bytes:
    buf = io.StringIO()
    buf.write(f"# ergolab v{prov['version']} config={prov['config_hash']}\n")
    csv.writer(buf, lineterminator="\n").writerows(rows)
    return buf.getvalue().encode()


def _check_csv(files: dict, name: str, rows, prov: dict) -> None:
    need(name in files, f"missing {name}")
    need(files[name] == _csv_text(rows, prov), f"{name} differs from the bundle")


def _check_svg(files: dict, name: str) -> None:
    need(name in files, f"missing {name}")
    text = files[name].decode()
    need(text.startswith("<svg") and text.rstrip().endswith("</svg>"),
         f"{name} is not an SVG document")


def _verdicts(bundle: dict) -> dict:
    return dict(bundle["verdicts"])


def _stdout_has(files: dict, line: str) -> None:
    lines = files.get("stdout.txt", b"").decode().splitlines()
    need(line in lines, f"stdout lacks {line!r}")


# ---------------------------------------------------------------------------
# Curves


def _rule_verdict(ests: list) -> str:
    """The documented rule of cover.classify_boundedness."""
    tail = ests[-3:]
    if max(tail) - min(tail) <= 1:
        return "bounded"
    if all(b >= a for a, b in zip(ests, ests[1:])) and ests[-1] >= 2 * ests[0] \
            and ests[-1] > ests[0]:
        return "growing"
    return "inconclusive"


def _check_curve_values(curve: dict, system: dict, target: str, eps: float,
                        horizons, m: int, seed: int) -> None:
    need(curve["eps"] == eps and curve["sample_count"] == m
         and curve["seed"] == seed, "curve header does not echo its inputs")
    need([p["n"] for p in curve["points"]] == list(horizons),
         "curve horizons differ from the request")
    pts = samples(system, child(seed, TAG_CURVE), m)
    fbar = target.startswith("character:")
    need(curve["metric_label"] == ("fbar" if fbar else "hamming"),
         "wrong metric label")
    if fbar:
        need(target == "character:1" and system["family"] == "rotation",
             "fbar model covers character:1 on a rotation")
        D_fbar = chord_matrix(pts)
    part = None if fbar else parse_partition(target)
    for p in curve["points"]:
        n, k = p["n"], p["k_est"]
        need(not p["budget_hit"], f"n={n}: center budget hit")
        need(p["k_lo"] <= k <= p["k_hi"], f"n={n}: K_lo <= K_est <= K_hi fails")
        covered = mass_count(p["covered_mass"], m)
        need(mass_exceeds(covered, m, eps), f"n={n}: covered mass <= 1 - eps")
        if fbar:
            D = D_fbar
        else:
            labels = names(system, part, pts, n)
            D = hamming_matrix(labels)
            distinct = D[D > 0]
            if distinct.size == 0 or distinct.min() >= eps:
                want = fewest_words(labels, eps)
                need(k == want, f"n={n}: K={k}, fewest covering words {want}")
        centers = greedy_cover(D < eps, eps)
        need(k == len(centers), f"n={n}: K={k}, reference greedy {len(centers)}")
        ref_covered = int((D[centers] < eps).any(axis=0).sum())
        need(covered == ref_covered,
             f"n={n}: covered {covered} samples, reference {ref_covered}")


def _check_verdict(verdict: str, ests, family: str, m: int, eps: float,
                   label: str) -> None:
    need(verdict in ("bounded", "growing", "inconclusive"),
         f"{label}: unknown verdict {verdict!r}")
    ceiling = sample_ceiling(m, eps)
    at_ceiling = all(k == ceiling for k in ests[-3:])
    need(not (verdict == "bounded" and at_ceiling),
         f"{label}: 'bounded' for a curve at the sample ceiling {ceiling}: {ests}")
    wrong = "bounded" if family == "bernoulli" else "growing"
    need(verdict != wrong, f"{label}: verdict {verdict!r} for a {family} curve")
    if at_ceiling:
        # every ball a singleton: the samples cannot tell a bound from
        # growth, and the documented rule says 'bounded' here, which is the
        # fault the ceiling test above exists to catch
        return
    want = _rule_verdict(ests)
    need(verdict == want, f"{label}: verdict {verdict!r}, rule gives {want!r}")


def check_curve(op, files: dict) -> None:
    p = op.params
    bundle = _json(files, "bundle.json")
    need(len(bundle["curves"]) == 1, "expected one curve")
    curve = bundle["curves"][0]
    system = parse_system(p["system"])
    _check_curve_values(curve, system, p["target"], p["eps"], p["horizons"],
                        p["samples"], op.seed)
    verdict = _verdicts(bundle).get("complexity")
    _check_verdict(verdict, [q["k_est"] for q in curve["points"]],
                   system["family"], p["samples"], p["eps"], op.name)
    _check_csv(files, "curve_0.csv", _curve_rows(curve), bundle["provenance"])
    _check_svg(files, "curve_0.svg")
    _stdout_has(files, f"complexity: {verdict}")


def _curve_rows(curve: dict) -> list:
    rows = [["n", "K_est", "K_lo", "K_hi", "eps", "samples", "seed", "budget_hit"]]
    for p in curve["points"]:
        rows.append([p["n"], p["k_est"], p["k_lo"], p["k_hi"], curve["eps"],
                     curve["sample_count"], curve["seed"], int(p["budget_hit"])])
    return rows


# the README report: rotation halves against the fair-coin shift
_REPORT = (
    ("rotation", "rotation:golden", "halves", [16, 64, 256, 1024]),
    ("bernoulli_shift", "bernoulli:0.5", "cylinder:0", [8, 16, 32, 64]),
)


def check_report(op, files: dict) -> None:
    m = op.params.get("samples", 400)
    bundle = _json(files, "bundle.json")
    need(len(bundle["curves"]) == 2, "expected two curves")
    verdicts = _verdicts(bundle)
    for i, (label, sys_text, target, horizons) in enumerate(_REPORT):
        curve = bundle["curves"][i]
        system = parse_system(sys_text)
        _check_curve_values(curve, system, target, 0.1, horizons, m, op.seed)
        _check_verdict(verdicts.get(label), [q["k_est"] for q in curve["points"]],
                       system["family"], m, 0.1, label)
        _check_csv(files, f"curve_{i}.csv", _curve_rows(curve), bundle["provenance"])
        _check_svg(files, f"curve_{i}.svg")
        _stdout_has(files, f"{label}: {verdicts[label]}")


# ---------------------------------------------------------------------------
# Equipartitions


def _equi_matrix(system: dict, target: str, pts, horizon: int) -> np.ndarray:
    if target == "character:1" and system["family"] == "rotation":
        return chord_matrix(pts)
    return hamming_matrix(names(system, parse_partition(target), pts, horizon))


def _check_equipartition(ep: dict, D: np.ndarray, eps: float, horizon: int,
                         k_max: int) -> list:
    m = D.shape[0]
    need(ep["eps"] == eps and ep["horizon"] == horizon,
         "equipartition does not echo eps and horizon")
    clusters = ep["clusters"]
    flat = [i for c in clusters for i in c]
    need(len(flat) == len(set(flat)) and all(0 <= i < m for i in flat),
         "clusters overlap or index outside the sample set")
    need(len(clusters) <= k_max, f"{len(clusters)} clusters exceed k_max {k_max}")
    covered = mass_count(ep["covered_mass"], m)
    need(covered == len(flat), "covered mass differs from the cluster sizes")
    need(mass_exceeds(covered, m, eps), "covered mass <= 1 - eps")
    diam = 0.0
    for c in clusters:
        block = D[np.ix_(c, c)]
        diam = max(diam, float(block.max()))
        need(block.max() < eps + _TOL, f"a within-cluster pair lies at "
             f"{block.max():.6f} >= eps {eps}")
    centers = [c[0] for c in clusters]
    cd = D[np.ix_(centers, centers)] + np.eye(len(centers)) * eps
    need(cd.min() >= eps / 2 - _TOL, "two cluster centers lie closer than eps/2")
    need(abs(ep["diameter_bound"] - diam) <= _TOL,
         f"diameter_bound {ep['diameter_bound']} but pairs reach {diam}")
    need(clusters == greedy_clusters(D, eps, k_max),
         "clusters differ from the reference greedy clustering")
    return clusters


def check_meanequi(op, files: dict) -> None:
    p = op.params
    bundle = _json(files, "bundle.json")
    need(_verdicts(bundle).get("meanequi") == "success", "verdict is not success")
    system = parse_system(p["system"])
    pts = samples(system, child(op.seed, TAG_EQUI), p["samples"])
    D = _equi_matrix(system, p["target"], pts, p["horizon"])
    ep = dict(bundle["equipartitions"]).get("meanequi")
    need(isinstance(ep, dict), "equipartition record missing")
    k_max = p.get("k_max", max(1, int(math.sqrt(p["samples"]))))
    _check_equipartition(ep, D, p["eps"], p["horizon"], k_max)
    _stdout_has(files, "meanequi: success")


def check_meanequi_failure(op, files: dict) -> None:
    p = op.params
    bundle = _json(files, "bundle.json")
    need(_verdicts(bundle).get("meanequi") == "failure", "verdict is not failure")
    rec = dict(bundle["equipartitions"]).get("meanequi")
    need(isinstance(rec, dict) and {"covered_mass", "k_max", "horizon"} <= set(rec),
         "failure record lacks covered_mass, k_max and horizon")
    need(rec["k_max"] == p["k_max"] and rec["horizon"] == p["horizon"],
         "failure record does not echo k_max and horizon")
    covered = mass_count(rec["covered_mass"], p["samples"])
    need(not mass_exceeds(covered, p["samples"], p["eps"]),
         "a failure record with covered mass above 1 - eps")


def check_verify(op, files: dict) -> None:
    p = op.params
    res = _json(files, "result.json")
    system = parse_system(p["system"])
    pts = samples(system, child(op.seed, TAG_API), p["samples"])
    D = _equi_matrix(system, p["target"], pts, p["horizon"])
    need(isinstance(res["equipartition"], dict), "no equipartition to verify")
    clusters = _check_equipartition(res["equipartition"], D, p["eps"], p["horizon"],
                                    max(1, int(math.sqrt(p["samples"]))))
    rep = res["verify"]
    need(rep["mode"] == p["mode"], "verify mode not echoed")
    need(len(rep["pair_maxima"]) == len(clusters), "one worst pair per cluster")
    worst = 0.0
    for (ci, i, j, val), c in zip(rep["pair_maxima"], clusters):
        if len(c) < 2:
            need([i, j, val] == [c[0], -1, 0.0], f"singleton cluster {ci} report")
            continue
        top = float(D[np.ix_(c, c)].max())
        need(i in c and j in c and abs(val - D[i, j]) <= _TOL
             and abs(val - top) <= _TOL,
             f"cluster {ci}: worst pair ({i},{j})={val}, closed form max {top}")
        worst = max(worst, top)
    need(abs(rep["max_pairwise"] - worst) <= _TOL,
         f"max_pairwise {rep['max_pairwise']}, closed form {worst}")
    need(rep["passed"] is (worst < p["eps"]), "passed flag contradicts max_pairwise")


def check_fhat_cover(op, files: dict) -> None:
    p = op.params
    res = _json(files, "result.json")
    system = parse_system(p["system"])
    need(p["target"] == "character:1" and system["family"] == "rotation",
         "fhat model covers character:1 on a rotation")
    m, eps = p["samples"], p["eps"]
    D = chord_matrix(samples(system, child(op.seed, TAG_API), m))
    centers = greedy_cover(D < eps, eps)
    need(res["centers"] == centers and res["count"] == len(centers),
         f"{res['count']} centers {res['centers']}, reference {centers}")
    covered = mass_count(res["covered_mass"], m)
    need(covered == int((D[centers] < eps).any(axis=0).sum()),
         "covered mass differs from the reference")
    need(mass_exceeds(covered, m, eps), "covered mass <= 1 - eps")
    cd = D[np.ix_(centers, centers)] + np.eye(len(centers)) * eps
    need(cd.min() >= eps - _TOL, "two centers lie closer than eps")
    need((res["sample_count"], res["horizon"], res["radius"]) == (m, p["horizon"], eps),
         "result does not echo its inputs")


# ---------------------------------------------------------------------------
# Koopman orbits


def _summary(dist_rows) -> tuple:
    flat = np.concatenate(dist_rows)
    return float(flat.min()), float(np.median(flat)), float(flat.max())


def check_spectral(op, files: dict) -> None:
    p = op.params
    bundle = _json(files, "bundle.json")
    system = parse_system(p["system"])
    horizons, r, m = p["horizons"], p["radius"], p["samples"]
    geoms = dict(bundle["geometries"])
    need(list(geoms) == [f"N={h}" for h in horizons], "one geometry per horizon")
    verdict = _verdicts(bundle).get("spectral")
    N = horizons[-1]
    if system["family"] == "rotation":
        theta = system["theta"]

        def dist(a, b):
            return 2.0 * np.abs(np.sin(np.pi * (a - b) * theta))

        idx = np.arange(N)
        covered = np.zeros(N, dtype=bool)
        centers = []
        for i in range(N):
            if not covered[i]:
                d = dist(idx, i)
                need(np.abs(d - r).min() > _TOL, "a Koopman distance ties the radius")
                covered |= d <= r
                centers.append(i)
        counts = [sum(c < h for c in centers) for h in horizons]
        want_verdict = "ap"
    else:
        need(system["family"] == "doubling" and r < math.sqrt(2.0),
             "spectral model covers rotation, or doubling below radius sqrt 2")
        counts = list(horizons)
        want_verdict = "not_ap"
        # |f_a - f_b|^2 lies in [0, 4] with mean 2: Hoeffding at 1e-9 per
        # row pair, union over the pairs the summary reads
        pairs = min(N, 256) ** 2
        slack = math.sqrt(16.0 * math.log(2.0 * pairs / 1e-9) / (2.0 * m))
        need(2.0 - slack > r * r, "sample count too small for the Hoeffding slack")
    for h, want in zip(horizons, counts):
        g = geoms[f"N={h}"]
        need((g["horizon"], g["radius"], g["sample_count"]) == (h, r, m),
             f"N={h}: geometry does not echo its inputs")
        need(g["covering_count"] == want,
             f"N={h}: covering count {g['covering_count']}, expected {want}")
        got = (g["distances"]["min"], g["distances"]["median"], g["distances"]["max"])
        rows = np.arange(h)
        if h > 512:
            rows = np.unique(np.linspace(0, h - 1, 256).astype(int))
        if system["family"] == "rotation":
            ref = _summary([dist(rows[i + 1:], rows[i]) for i in range(len(rows) - 1)])
            need(max(abs(a - b) for a, b in zip(got, ref)) <= _TOL,
                 f"N={h}: distance summary {got}, closed form {ref}")
        else:
            need(all(2.0 - slack <= v * v <= 2.0 + slack for v in got),
                 f"N={h}: distances {got} outside sqrt(2 +- {slack:.3f})")
    need(verdict == want_verdict, f"verdict {verdict!r}, expected {want_verdict!r}")
    _check_svg(files, "geometry.svg")
    _stdout_has(files, f"spectral: {verdict}")


def check_eigen(op, files: dict) -> None:
    p = op.params
    res = _json(files, "result.json")["residual"]
    system = parse_system(p["system"])
    m = p["samples"]
    pts = samples(system, child(child(op.seed, TAG_API), TAG_L2), m)
    if system["family"] == "rotation":
        need(p["lam"] == "theta" and p["target"] == "character:1",
             "rotation model covers character:1 at lam = exp(2 pi i theta)")
        need(0.0 <= res < _TOL, f"eigenfunction residual {res} is not 0")
        return
    need(system["family"] == "doubling" and p["target"] == "character:1",
         "eigen model covers character:1 on doubling")
    v = doubling_values(pts, 2)
    fx = np.exp(2j * np.pi * 1 * v)
    lam = complex(p["lam"])
    ref = float(np.sqrt(np.mean(np.abs(fx[:, 1] - lam * fx[:, 0]) ** 2)))
    need(abs(res - ref) <= 1e-12 * ref, f"residual {res}, recomputed {ref}")
    # orthonormal characters: |e_2 - lam e_1|^2 in [0, 4] has mean 2
    slack = math.sqrt(16.0 * math.log(2.0 / 1e-9) / (2.0 * m))
    need(abs(res * res - 2.0) <= slack, f"residual^2 {res * res} not 2 +- {slack}")


# ---------------------------------------------------------------------------
# Expansivity and names


def check_expansivity(op, files: dict) -> None:
    p = op.params
    bundle = _json(files, "bundle.json")
    system = parse_system(p["system"])
    pairs, horizon, delta = p["pairs"], p["horizon"], p["delta"]
    tables = dict(bundle["tables"])
    rows = tables.get("expansivity")
    need(rows and rows[0] == ["delta", "estimate", "pairs", "horizon",
                              "nonconverged_fraction"], "expansivity table missing")
    _, value, got_pairs, got_h, nonconv = rows[1]
    need((rows[1][0], got_pairs, got_h) == (delta, pairs, horizon),
         "table does not echo its inputs")
    xs, ys = (samples(system, child(op.seed, t), pairs) for t in TAG_PAIR)
    if system["family"] == "rotation":
        need(p["target"] == "character:1", "rotation model covers character:1")
        exceed = int((2.0 * np.sin(np.pi * arc(xs, ys)) > delta).sum())
        need(value == exceed / pairs,
             f"rotation expansivity {value}, closed form {exceed / pairs}")
        need(nonconv == 0.0, "rotation pairs must converge")
        want = "no"
    else:
        need(system["family"] == "doubling" and p["target"] == "indicator:halves:0",
             "doubling model covers indicator:halves:0")
        # cell 0 of halves holds the points whose first bit is 0
        gaps = np.abs(doubling_bits(xs, horizon) - doubling_bits(ys, horizon))
        cums = np.cumsum(gaps.astype(np.float64), axis=1)
        ladder = [horizon // 16, horizon // 4, horizon]
        evals = np.stack([cums[:, h - 1] / h for h in ladder], axis=1)
        tol = max(0.005, 2.0 / math.sqrt(horizon))
        spread = evals.max(axis=1) - evals.min(axis=1)
        ref_value = int((evals[:, -1] > delta).sum()) / pairs
        ref_nonconv = int((spread > tol).sum()) / pairs
        need((value, nonconv) == (ref_value, ref_nonconv),
             f"doubling expansivity ({value}, {nonconv}), "
             f"recounted ({ref_value}, {ref_nonconv})")
        need(value >= 0.98, f"doubling expansivity {value} < 0.98")
        want = "yes"
    need(_verdicts(bundle).get("expansive") == want, f"verdict is not {want!r}")
    _check_csv(files, "expansivity.csv", rows, bundle["provenance"])
    _stdout_has(files, f"expansive: {want}")


def check_name(op, files: dict) -> None:
    p = op.params
    bundle = _json(files, "bundle.json")
    system = parse_system(p["system"])
    pts = samples(system, op.seed, 1)
    want = names(system, parse_partition(p["target"]), pts, p["n"])[0].tolist()
    rows = dict(bundle["tables"]).get("name")
    need(rows == [want], "name symbols differ from the closed form")
    _check_csv(files, "name.csv", rows, bundle["provenance"])
    _stdout_has(files, ",".join(str(s) for s in want))


CHECKS = {
    "curve": check_curve,
    "report": check_report,
    "meanequi": check_meanequi,
    "meanequi_failure": check_meanequi_failure,
    "verify": check_verify,
    "fhat_cover": check_fhat_cover,
    "spectral": check_spectral,
    "eigen": check_eigen,
    "expansivity": check_expansivity,
    "name": check_name,
}


def check_op(op, files: dict):
    """None when the op's output passes, else the reason it fails."""
    try:
        CHECKS[op.check](op, files)
    except CheckError as exc:
        return str(exc)
    except (KeyError, IndexError, TypeError, ValueError) as exc:
        return f"malformed output: {type(exc).__name__}: {exc}"
    return None
