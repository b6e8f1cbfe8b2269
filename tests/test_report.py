import json

import pytest

import ergolab as e
from ergolab.report import bundle_from_json, config_from_json, run_experiment

BASE_COMPLEXITY = {
    "task": "complexity",
    "system": {"family": "rotation", "params": {"theta": 0.618}},
    "target": {"partition": {"kind": "circle_intervals", "cuts": [0.0, 0.5]}},
    "params": {"eps": 0.2, "horizons": [8, 16, 32], "samples": 100},
    "seed": 5,
}


def test_config_validation_errors():
    with pytest.raises(e.ConfigError):
        config_from_json({"task": "bogus"})
    with pytest.raises(e.ConfigError):
        config_from_json({"task": "complexity"})  # no system
    bad = dict(BASE_COMPLEXITY)
    bad["params"] = {"eps": 0.2}  # horizons/samples missing
    with pytest.raises(e.ConfigError):
        config_from_json(bad)
    unknown = json.loads(json.dumps(BASE_COMPLEXITY))
    unknown["params"]["max_centres"] = 3  # the param is max_centers
    with pytest.raises(e.ConfigError, match="unknown parameters: \\['max_centres'\\]"):
        config_from_json(unknown)
    no_target = dict(BASE_COMPLEXITY)
    no_target.pop("target")
    with pytest.raises(e.ConfigError):
        config_from_json(no_target)


def test_observable_json_roundtrip():
    cuts3 = e.circle_intervals([0.0, 0.3, 0.7])
    for f in [e.Character(3), e.CellIndicator(cuts3, 2), e.CoordinateRead(-2),
              e.Constant(2.5), e.Constant(1.5 - 2j), e.TableObservable(cuts3, (1.0, -2.0, 0.5)),
              e.TableObservable(e.cylinder([0, 2], 2), (0, 1, 2, 3))]:
        obj = json.loads(json.dumps(f.to_json()))
        assert e.observable_from_json(obj) == f
    for obj in [{"kind": "character", "K": 3}, {"kind": "coordinate_read", "idx": 1},
                {"kind": "constant", "value": 1.0, "imag": 2.0}, {"kind": "wavelet"}]:
        with pytest.raises((TypeError, e.InvalidParameterError)):
            e.observable_from_json(obj)


def test_config_hash_stable_and_sensitive():
    c1 = config_from_json(BASE_COMPLEXITY)
    c2 = config_from_json(BASE_COMPLEXITY)
    assert c1.config_hash == c2.config_hash
    tweaked = json.loads(json.dumps(BASE_COMPLEXITY))
    tweaked["seed"] = 6
    assert config_from_json(tweaked).config_hash != c1.config_hash


def test_bundle_roundtrip():
    bundle = run_experiment(config_from_json(BASE_COMPLEXITY))
    again = bundle_from_json(bundle.to_json())
    assert again == bundle


def test_bundle_roundtrip_spectral():
    cfg = {
        "task": "spectral",
        "system": {"family": "rotation", "params": {"theta": 0.618}},
        "target": {"observable": {"kind": "character", "k": 1}},
        "params": {"horizons": [16, 32, 64], "radius": 0.5, "samples": 150},
        "seed": 2,
    }
    bundle = run_experiment(config_from_json(cfg))
    assert bundle_from_json(bundle.to_json()) == bundle
    assert dict(bundle.verdicts)["spectral"] == "ap"
    # every verdict traceable: geometries stored for each horizon
    assert len(bundle.geometries) == 3


def test_trivial_partition_curve_constant_one():
    cfg = json.loads(json.dumps(BASE_COMPLEXITY))
    cfg["target"] = {"partition": {"kind": "trivial"}}
    bundle = run_experiment(config_from_json(cfg))
    assert bundle.curves[0].estimates == [1, 1, 1]
    assert dict(bundle.verdicts)["complexity"] == "bounded"


def test_meanequi_bundle():
    cfg = {
        "task": "meanequi",
        "system": {"family": "rotation", "params": {"theta": 0.618}},
        "target": {"observable": {"kind": "character", "k": 1}},
        "params": {"eps": 0.5, "samples": 150, "horizon": 64},
        "seed": 1,
    }
    bundle = run_experiment(config_from_json(cfg))
    assert dict(bundle.verdicts)["meanequi"] == "success"
    label, ep = bundle.equipartitions[0]
    assert ep["covered_mass"] > 0.5


def test_write_bundle_files(tmp_path):
    cfg = config_from_json(BASE_COMPLEXITY, out_dir=str(tmp_path / "out"))
    bundle = run_experiment(cfg)
    files = sorted(p.name for p in (tmp_path / "out").iterdir())
    assert files == ["bundle.json", "curve_0.csv", "curve_0.svg"]
    data = json.loads((tmp_path / "out" / "bundle.json").read_text())
    assert data["provenance"]["config_hash"] == cfg.config_hash


def test_emit_plot_shapes(tmp_path):
    bundle = run_experiment(config_from_json(BASE_COMPLEXITY))
    svg = e.curve_svg(bundle.curves[0])
    assert svg.count("<circle") == 3  # one marker per horizon
    assert "log scale" in svg
    with pytest.raises(e.PlotDataError):
        e.curve_svg(e.ComplexityCurve((), 0.1, "hamming", 0, 0))
    path = e.emit_plot(bundle.curves[0], tmp_path / "c.svg")
    assert (tmp_path / "c.svg").read_text().startswith("<svg")


def test_single_point_geometry_plot():
    og = e.OrbitGeometry(8, 0.5, 3, 0.1, 0.2, 0.3, 100)
    svg = e.geometry_svg([og])
    assert svg.count("<circle") == 1
    with pytest.raises(e.PlotDataError):
        e.geometry_svg([])
