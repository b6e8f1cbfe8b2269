"""Window reads: a read that starts at column lo equals, bit for bit, the
same columns of the read that starts at 0.

The streamed spectral scan reads an orbit in column blocks through
``orbit_rows(system, samples, n, lo)``, which goes through
``name_rows(..., n, lo)``, ``circle_labels(..., n, lo)`` and
``cylinder_rows(..., n, lo)``.  Every observable kind and partition kind is
read on each family it applies to, on sampled points and on user-made
points that read their own stream, for every chunk size.
"""

import numpy as np
import pytest

import ergolab as e
from ergolab import systems
from ergolab.systems import make_system

LOS = (0, 1, 63, 64, 1000)
WIDTH = 37  # columns of one window

CUTS3 = e.circle_intervals([0.0, 0.3, 0.7])  # non-dyadic: doubling reads 53 bits
DYADIC = e.circle_intervals([(2 * k + 1) / 32 for k in range(16)])  # depth 5: the label table
DEEP = e.circle_intervals([0.0, 0.25, 3 / 2**20])  # depth 20: past the table depth
CYL = e.cylinder([0, 2], 2)
CYL3 = e.cylinder([0, 1, 2], 2)


def _points(system, own):
    pts = system.sample_measure(5, e.RandomPlan(12).child(3))
    for point in own:
        pts = pts + point
    return pts


def _cases():
    rot, ident = make_system(e.rotation(e.GOLDEN)), make_system(e.identity())
    dbl = make_system(e.doubling())
    bern = make_system(e.bernoulli_shift(0.3, 3))
    stu = make_system(e.sturmian(e.GOLDEN))
    odo = make_system(e.odometer(2))
    circle = [e.halves(), CUTS3, DYADIC, e.trivial()]
    return {
        "rotation": (rot, rot.sample_measure(6, e.RandomPlan(12).child(3)), circle,
                     [e.Character(1), e.Character(3), e.CellIndicator(CUTS3, 1),
                      e.TableObservable(CUTS3, (1.0, -2.0, 0.5)), e.Constant(2.0),
                      e.Constant(1 + 2j)]),
        "identity": (ident, ident.sample_measure(6, e.RandomPlan(12).child(3)), circle,
                     [e.Character(2), e.CellIndicator(e.halves(), 0)]),
        "doubling": (dbl, _points(dbl, [dbl.point(0.375), dbl.point(0.1)]),
                     circle + [DEEP],
                     [e.Character(1), e.CellIndicator(DYADIC, 5), e.CellIndicator(CUTS3, 2),
                      e.CellIndicator(DEEP, 1), e.TableObservable(CUTS3, (1.0, -2.0, 0.5)),
                      e.Constant(2.0)]),
        "bernoulli": (bern, _points(bern, [bern.point((1, 0, 2, 2), seed=4)]),
                      [e.cylinder([0, 2], 3), e.cylinder([1], 3), e.trivial()],
                      [e.CoordinateRead(0), e.CoordinateRead(2),
                       e.CellIndicator(e.cylinder([0, 2], 3), 4),
                       e.TableObservable(e.cylinder([1], 3), (0.5, 1.0, -1.0)),
                       e.Constant(1.0)]),
        "sturmian": (stu, _points(stu, [stu.point(0.25)]), [CYL, CYL3],
                     [e.CoordinateRead(1), e.CellIndicator(CYL, 3),
                      e.TableObservable(CYL3, tuple(range(8))), e.Constant(2.0)]),
        "odometer": (odo, _points(odo, [odo.point((1, 1, 0, 1), seed=2)]), [CYL, CYL3],
                     [e.CellIndicator(CYL3, 7), e.TableObservable(CYL, (1.0, 2.0, 3.0, 4.0)),
                      e.Constant(2.0)]),
    }


CASES = _cases()


@pytest.fixture(params=[1, 4096, None], ids=["chunk1", "chunk4096", "default"])
def chunk(request, monkeypatch):
    if request.param is not None:
        monkeypatch.setattr(systems, "_CHUNK_BYTES", request.param)
    return request.param


@pytest.mark.parametrize("name", sorted(CASES))
def test_window_reads_equal_slices_of_the_whole_read(name, chunk):
    system, pts, partitions, observables = CASES[name]
    total = max(LOS) + WIDTH
    for part in partitions:
        whole = e.name_rows(system, part, pts, total)
        for lo in LOS:
            got = e.name_rows(system, part, pts, WIDTH, lo)
            assert got.dtype == whole.dtype, (part, lo)
            assert np.array_equal(got, whole[:, lo : lo + WIDTH]), (part, lo)
    for f in observables:
        whole = f.orbit_rows(system, pts, total)
        for lo in LOS:
            got = f.orbit_rows(system, pts, WIDTH, lo)
            assert got.dtype == whole.dtype, (f, lo)
            assert np.array_equal(got, whole[:, lo : lo + WIDTH]), (f, lo)


def test_circle_label_windows_equal_slices():
    """Both label reads, the base handle's and doubling's bit-window read."""
    for system, pts in [(CASES["rotation"][0], CASES["rotation"][1]),
                        (CASES["doubling"][0], CASES["doubling"][1])]:
        for part in (CUTS3, DYADIC, DEEP):
            whole = system.circle_labels(pts, part.cuts, 1100)
            for lo in LOS:
                got = system.circle_labels(pts, part.cuts, 50, lo)
                assert np.array_equal(got, whole[:, lo : lo + 50]), (system.spec, part, lo)
