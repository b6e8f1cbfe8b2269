import argparse
import json
import tracemalloc

import pytest

import ergolab as e
from ergolab import cli, cover, report, systems
from ergolab.cli import main


def test_name_doubling_row(capsys):
    rc = main(
        ["name", "--system", "doubling", "--target", "halves", "--n", "4",
         "--point", "0.375"]
    )
    assert rc == 0
    assert capsys.readouterr().out.strip() == "0,1,1,0"


def test_systems_listing(capsys):
    assert main(["systems"]) == 0
    out = capsys.readouterr().out
    assert "rotation" in out and "odometer" in out


def test_complexity_trivial_partition(capsys):
    rc = main(
        ["complexity", "--system", "rotation:golden", "--target", "trivial",
         "--eps", "0.2", "--horizons", "4,8,16", "--samples", "50"]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert "complexity: bounded" in out
    assert "K=1,1,1" in out


def test_invalid_config_exit_2(capsys):
    rc = main(
        ["complexity", "--system", "rotation:2.5", "--target", "halves",
         "--eps", "0.2", "--horizons", "4,8,16"]
    )
    assert rc == 2
    assert "error" in capsys.readouterr().err


def test_missing_param_exit_2(tmp_path, capsys):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"task": "complexity",
                               "system": {"family": "doubling"}}))
    rc = main(["--config", str(cfg), "complexity", "--system", "doubling",
               "--target", "halves", "--eps", "0.1", "--horizons", "4,8,16"])
    assert rc == 2


def test_budget_exit_3(capsys):
    rc = main(
        ["complexity", "--system", "bernoulli:0.5", "--target", "cylinder:0",
         "--eps", "0.1", "--horizons", "8,16,32", "--samples", "600",
         "--max-centers", "0"]
    )
    # max_centers=0 cannot reach target mass even on point estimate
    assert rc in (0, 3)


def _not_reached(*args):
    raise AssertionError("a distance matrix was built")


@pytest.mark.parametrize("command", [
    ["complexity", "--system", "rotation:golden", "--target", "halves",
     "--eps", "0.2", "--horizons", "4,8,16", "--samples", "50"],
    ["report", "--samples", "50"],
])
def test_matrix_budget_exit_3_before_allocation(command, monkeypatch, tmp_path, capsys):
    # 50 samples need 13 * 50**2 = 32500 bytes of m x m arrays, and the
    # report's largest feature read, 50 x 1024 uint8 Hamming labels, needs
    # 51200 bytes; at 32499 bytes its first cover fails before that read
    monkeypatch.setattr(systems, "_MATRIX_BYTES", 32_499)
    monkeypatch.setattr(cover, "_ball_matrix", _not_reached)
    out = tmp_path / "out"
    assert main(["--out", str(out), *command]) == 3
    assert "over the 32499-byte cap" in capsys.readouterr().err
    assert not out.exists() or not any(out.iterdir())
    with pytest.raises(e.BudgetExhaustedError):
        e.estimate_cover_number([e.NameWord((0,) * 4, 2)] * 50, 4, 0.2,
                                e.HammingKind(e.halves()))
    monkeypatch.undo()
    enough = 51_200 if command[0] == "report" else 32_500
    monkeypatch.setattr(systems, "_MATRIX_BYTES", enough - 1)
    assert main(["--out", str(out), *command]) == 3
    monkeypatch.setattr(systems, "_MATRIX_BYTES", enough)  # exactly enough
    assert main(["--out", str(out), *command]) == 0


def test_meanequi_cluster_block_budget_exit_3(monkeypatch, capsys):
    # identity names are constant, so halves makes two clusters of about
    # 1000 samples; each block is charged 12 bytes per entry before it is built
    monkeypatch.setattr(systems, "_MATRIX_BYTES", 1 << 20)
    assert main(["meanequi", "--system", "identity", "--target", "halves", "--eps", "0.2",
                 "--samples", "2000", "--horizon", "8"]) == 3
    assert "over the 1048576-byte cap" in capsys.readouterr().err


def test_meanequi_feature_read_budget_exit_3(monkeypatch, capsys):
    # 200 samples of 10000 character values, charged 16 bytes each
    monkeypatch.setattr(systems, "_MATRIX_BYTES", 1 << 20)
    assert main(["meanequi", "--system", "rotation:golden", "--target", "character:1",
                 "--eps", "1.9", "--samples", "200", "--horizon", "10000",
                 "--k-max", "400"]) == 3
    assert "a feature read of 200 samples at horizon 10000 needs 32000000 bytes" in \
        capsys.readouterr().err


def test_meanequi_label_read_budget_exit_3(monkeypatch, capsys):
    # 200 samples of 10000 halves labels, charged 1 byte each: the uint8
    # they are stored in
    monkeypatch.setattr(systems, "_MATRIX_BYTES", 1 << 20)
    assert main(["meanequi", "--system", "rotation:golden", "--target", "halves",
                 "--eps", "0.2", "--samples", "200", "--horizon", "10000"]) == 3
    assert "a feature read of 200 samples at horizon 10000 needs 2000000 bytes" in \
        capsys.readouterr().err


def _not_read(*args):
    raise AssertionError("a name was read")


def test_name_budget_exit_3_before_read(monkeypatch, capsys):
    # a name is charged per symbol before it is read: 100000 one-digit
    # halves labels at 98 bytes each
    monkeypatch.setattr(systems, "_MATRIX_BYTES", 1024)
    monkeypatch.setattr(report, "name_word", _not_read)
    assert main(["name", "--system", "doubling", "--target", "halves", "--n", "100000"]) == 3
    assert "a name of 100000 symbols needs 9800000 bytes" in capsys.readouterr().err


@pytest.mark.parametrize("system, target, per_symbol", [
    ("doubling", "halves", 98),
    ("bernoulli:0.5", "cylinder:" + ",".join(map(str, range(10))) + ":2", 136),
])
def test_name_peak_within_its_charge(system, target, per_symbol, monkeypatch, tmp_path,
                                     capsys):
    """A name of 200000 symbols written with --out peaks, under tracemalloc
    and after a warm-up run, within its charge plus 8 chunks of 64 KiB
    (0.5 MiB); 1024 cells need four digits and an int object per label.
    Measured at 10**6 symbols, they peak at 91.5 and 119.3 bytes each."""
    n = 2 * 10**5
    monkeypatch.setattr(systems, "_CHUNK_BYTES", 1 << 16)
    charges = []
    check = systems._check_bytes
    monkeypatch.setattr(report, "_check_bytes",
                        lambda nbytes, what: charges.append(nbytes) or check(nbytes, what))
    argv = ["--out", str(tmp_path), "name", "--system", system, "--target", target,
            "--n", str(n)]
    assert main(argv) == 0
    capsys.readouterr()
    tracemalloc.start()
    try:
        assert main(argv) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert charges == [per_symbol * n] * 2
    assert peak <= charges[-1] + 8 * systems._CHUNK_BYTES, (peak, charges[-1])


def test_unknown_task_param_exit_2(tmp_path, capsys):
    obj = {"task": "complexity", "system": {"family": "rotation", "params": {"theta": 0.618}},
           "target": {"partition": {"kind": "circle_intervals", "cuts": [0.0, 0.5]}},
           "params": {"eps": 0.2, "horizons": [8, 16, 32], "samples": 100, "max_centres": 3}}
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(obj))
    assert main(["--config", str(cfg), "systems"]) == 0  # systems reads no config
    capsys.readouterr()
    argv = ["--config", str(cfg), "complexity", "--system", "x", "--target", "y",
            "--eps", "1", "--horizons", "1,2,3"]
    assert main(argv) == 2
    assert capsys.readouterr().err.strip() == \
        "error: task 'complexity' has unknown parameters: ['max_centres']"
    obj["params"]["max_centers"] = obj["params"].pop("max_centres")
    cfg.write_text(json.dumps(obj))
    assert main(argv) == 0


def test_matrix_budget_default_far_above_runs():
    # the largest sample set of a test or benchmark cover is 2000 samples
    assert 13 * 2000**2 * 10 < systems._MATRIX_BYTES


def test_config_file_run(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(
        json.dumps(
            {
                "task": "complexity",
                "system": {"family": "rotation", "params": {"theta": 0.618}},
                "target": {"partition": {"kind": "circle_intervals",
                                         "cuts": [0.0, 0.5]}},
                "params": {"eps": 0.2, "horizons": [8, 16, 32], "samples": 100},
                "seed": 3,
            }
        )
    )
    rc = main(["--config", str(cfg), "complexity", "--system", "doubling",
               "--target", "halves", "--eps", "0.1", "--horizons", "4,8,16"])
    assert rc == 0
    assert "complexity:" in capsys.readouterr().out


def test_out_dir_artifacts(tmp_path, capsys):
    out = tmp_path / "arts"
    rc = main(
        ["--out", str(out), "complexity", "--system", "rotation:golden",
         "--target", "halves", "--eps", "0.2", "--horizons", "8,16,32",
         "--samples", "80"]
    )
    assert rc == 0
    names = {p.name for p in out.iterdir()}
    assert {"bundle.json", "curve_0.csv", "curve_0.svg"} <= names
    header = (out / "curve_0.csv").read_text().splitlines()[0]
    assert header.startswith(f"# ergolab v{e.__version__} config=")


def test_csv_determinism(tmp_path):
    args = ["complexity", "--system", "rotation:golden", "--target", "halves",
            "--eps", "0.2", "--horizons", "8,16,32", "--samples", "80"]
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["--seed", "11", "--out", str(a)] + args) == 0
    assert main(["--seed", "11", "--out", str(b)] + args) == 0
    for name in ("bundle.json", "curve_0.csv", "curve_0.svg"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_seed_changes_output(tmp_path):
    args = ["expansivity", "--system", "doubling",
            "--target", "indicator:halves:0", "--delta", "0.4",
            "--pairs", "150", "--horizon", "64"]
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["--seed", "1", "--out", str(a)] + args) == 0
    assert main(["--seed", "2", "--out", str(b)] + args) == 0
    assert (a / "bundle.json").read_text() != (b / "bundle.json").read_text()


def test_report_dichotomy(tmp_path, capsys):
    # m=400 keeps the growing curve clear of the 0.9*m saturation cap
    rc = main(
        ["--seed", "42", "--out", str(tmp_path / "rep"), "report",
         "--eps", "0.1", "--samples", "400"]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert "rotation: bounded" in out
    assert "bernoulli_shift: growing" in out


def test_spectral_subcommand(capsys):
    rc = main(
        ["spectral", "--system", "rotation:golden", "--target", "character:1",
         "--horizons", "64,256,1024", "--radius", "0.5", "--samples", "300"]
    )
    assert rc == 0
    assert "spectral: ap" in capsys.readouterr().out


def test_meanequi_subcommand(capsys):
    rc = main(
        ["meanequi", "--system", "rotation:golden", "--target", "character:1",
         "--eps", "0.5", "--samples", "200", "--horizon", "64"]
    )
    assert rc == 0
    assert "meanequi: success" in capsys.readouterr().out


def test_meanequi_failure_record_kept(tmp_path, capsys):
    rc = main(
        ["--seed", "42", "--out", str(tmp_path), "meanequi", "--system", "doubling",
         "--target", "character:1", "--eps", "0.5", "--k-max", "10"]
    )
    assert rc == 0
    assert "meanequi: failure" in capsys.readouterr().out
    bundle = json.loads((tmp_path / "bundle.json").read_text())
    [[label, rec]] = bundle["equipartitions"]
    assert label == "meanequi"
    assert set(rec) == {"eps", "k_max", "covered_mass", "horizon"}
    assert (rec["eps"], rec["k_max"], rec["horizon"]) == (0.5, 10, 256)
    assert 0 < rec["covered_mass"] <= 0.5  # short of the 1 - eps target


@pytest.mark.parametrize("argv, message", [
    (["complexity", "--system", "bernoulli:0.5", "--target", "halves"],
     "circle-interval partition cannot classify a symbolic point"),
    (["complexity", "--system", "rotation:golden", "--target", "cylinder:0"],
     "cylinder partition needs a point with symbol coordinates"),
    (["complexity", "--system", "sturmian", "--target", "character:1"],
     "character observables need a circle family, not sturmian"),
])
def test_incompatible_target_exit_2(argv, message, capsys):
    rc = main(argv + ["--eps", "0.1", "--horizons", "4,8,16", "--samples", "20"])
    assert rc == 2
    assert capsys.readouterr().err.strip() == f"error: {message}"


_CURVE = ["--eps", "0.1", "--horizons", "4,8,16", "--samples", "20"]
_MEANEQUI = ["meanequi", "--system", "rotation:golden", "--target", "character:1",
             "--eps", "0.5"]


@pytest.mark.parametrize("argv, message", [
    (["complexity", "--system", "odometer", "--target", "cylinder:0"] + _CURVE,
     "malformed system shortcut 'odometer'"),
    (["complexity", "--system", "rotation:abc", "--target", "halves"] + _CURVE,
     "malformed system shortcut 'rotation:abc'"),
    (["complexity", "--system", "bernoulli:0.5", "--target", "cylinder:a"] + _CURVE,
     "malformed target shortcut 'cylinder:a'"),
    (["complexity", "--system", "rotation:golden", "--target", "cuts:x"] + _CURVE,
     "malformed target shortcut 'cuts:x'"),
    (["meanequi", "--system", "rotation:golden", "--target", "indicator",
      "--eps", "0.5"], "malformed target shortcut 'indicator'"),
    (["complexity", "--system", "rotation:golden", "--target", "halves"] + _CURVE
     + ["--samples", "0"], "sample count must be >= 1"),
    (_MEANEQUI + ["--samples", "0"], "sample count must be >= 1"),
    (["spectral", "--system", "rotation:golden", "--target", "character:1",
      "--horizons", "4,8,16", "--radius", "0.5", "--samples", "0"],
     "sample count must be >= 1"),
    (_MEANEQUI + ["--samples", "20", "--horizon", "0"], "horizon must be >= 1"),
    (["expansivity", "--system", "rotation:golden", "--target", "character:1",
      "--delta", "0.1", "--pairs", "100", "--horizon", "0"],
     "n_max too small for a 3-point ladder"),
    (["complexity", "--system", "rotation:golden", "--target", "halves"] + _CURVE
     + ["--eps", "0"], "eps must be positive"),
    (["complexity", "--system", "rotation:golden", "--target", "halves"] + _CURVE
     + ["--max-centers", "-1"], "center budget must be >= 0"),
    (["complexity", "--system", "doubling", "--target", "cuts:nan:0.5"] + _CURVE,
     "invalid config: cut points must be finite, got nan"),
    (["name", "--system", "doubling", "--target", "cuts:inf", "--n", "4"],
     "invalid config: cut points must be finite, got inf"),
    (["name", "--system", "rotation:golden", "--target", "character:1", "--n", "4"],
     "task 'name' needs a partition target"),
    (["expansivity", "--system", "doubling", "--target", "indicator:halves:5",
      "--delta", "0.4", "--pairs", "100", "--horizon", "64"],
     "invalid config: cell label must be an integer in [0, 2), got 5"),
    (["expansivity", "--system", "doubling", "--target",
      '{"observable": {"kind": "cell_indicator", "label": 0.5, "partition": '
      '{"kind": "circle_intervals", "cuts": [0.0, 0.5]}}}',
      "--delta", "0.4", "--pairs", "100", "--horizon", "64"],
     "invalid config: cell label must be an integer in [0, 2), got 0.5"),
    (_MEANEQUI + ["--k-max", "-3"], "center budget must be >= 0"),
    (["complexity", "--system", "rotation:golden", "--target", "halves"] + _CURVE
     + ["--eps", "nan"], "eps must be positive"),
    (["complexity", "--system", "rotation:golden", "--target", "halves"] + _CURVE
     + ["--eps", "inf"], "eps must be positive"),
    (["meanequi", "--system", "rotation:golden", "--target", "character:1",
      "--eps", "nan"], "eps must lie in (0, 2 sup|f|)"),
    (["report", "--eps", "nan"], "eps must be positive"),
    (["spectral", "--system", "rotation:golden", "--target", "character:1",
      "--horizons", "4,8,16", "--radius", "nan", "--samples", "20"],
     "radius must be positive"),
    (["expansivity", "--system", "rotation:golden", "--target", "character:1",
      "--delta", "nan", "--pairs", "100", "--horizon", "64"], "delta must be positive"),
    (["complexity", "--system", '{"family": "rotation", "params": {"theta": 0.1, "bogus": 1}}',
      "--target", "halves"] + _CURVE,
     "invalid config: rotation() got an unexpected keyword argument 'bogus'"),
    (["complexity", "--system", "rotation:golden",
      "--target", '{"partition": {"kind": "trivial", "cuts": [0.5]}}'] + _CURVE,
     "invalid config: trivial() got an unexpected keyword argument 'cuts'"),
    (["complexity", "--system", "odometer:2", "--target",
      '{"partition": {"kind": "cylinder", "coords": ["a"], "alphabet": 2}}'] + _CURVE,
     "invalid config: invalid literal for int() with base 10: 'a'"),
    (["complexity", "--system", '{"family": "odometer", "params": {"base": 2.7}}',
      "--target", "cylinder:0"] + _CURVE,
     "invalid config: odometer base must be an integer >= 2, got 2.7"),
    (["complexity", "--system", '{"family": "odometer", "params": {"base": 1}}',
      "--target", "cylinder:0"] + _CURVE,
     "invalid config: odometer base must be an integer >= 2, got 1"),
    (["complexity", "--system",
      '{"family": "bernoulli_shift", "params": {"p": 0.5, "alphabet_size": 2.5}}',
      "--target", "cylinder:0"] + _CURVE,
     "invalid config: alphabet_size must be an integer >= 2, got 2.5"),
    (["complexity", "--system",
      '{"family": "bernoulli_shift", "params": {"p": 0.5, "alphabet_size": "3"}}',
      "--target", "cylinder:0"] + _CURVE,
     "invalid config: alphabet_size must be an integer >= 2, got '3'"),
    (["complexity", "--system", "rotation:golden", "--target", "halves", "--eps", "0.1",
      "--horizons", "0,1,2", "--samples", "50"], "horizon must be >= 1"),
    (["complexity", "--system", "rotation:golden", "--target", "character:1", "--eps", "0.1",
      "--horizons", "0,1,2", "--samples", "50"], "horizon must be >= 1"),
    (["complexity", "--system", "rotation:golden",
      "--target", '{"observable": {"kind": "character", "K": 3}}'] + _CURVE,
     "invalid config: Character.__init__() got an unexpected keyword argument 'K'"),
])
def test_bad_argument_exit_2(argv, message, capsys):
    assert main(argv) == 2
    assert capsys.readouterr().err.strip() == f"error: {message}"


def test_dichotomy_versus_checked_before_run(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "task": "dichotomy-report",
        "params": {"eps": 0.1, "versus": {
            "system": {"family": "rotation", "params": {}},
            "partition": {"kind": "circle_intervals", "cuts": [0.0, 0.5]}}}}))
    assert main(["--config", str(cfg), "report"]) == 2
    assert capsys.readouterr().err.strip() == (
        "error: invalid config: rotation() missing 1 required positional argument: 'theta'")
    cfg.write_text(json.dumps({"task": "dichotomy-report", "params": {
        "eps": 0.1, "versus": {"system": {"family": "doubling"}}}}))
    assert main(["--config", str(cfg), "report"]) == 2
    assert capsys.readouterr().err.strip() == "error: invalid config: 'partition'"


def test_product_family_exit_2(capsys):
    # the product family is gone: no estimator could read its points
    system = ('{"family": "product", "params": {"left": {"family": "rotation", '
              '"params": {"theta": 0.1}}, "right": {"family": "identity"}}}')
    assert main(["complexity", "--system", system, "--target", "halves"] + _CURVE) == 2
    assert capsys.readouterr().err.strip() == "error: invalid config: unknown system family 'product'"


def test_spectral_character_on_shift_exit_2(capsys):
    rc = main(["spectral", "--system", "bernoulli:0.5", "--target", "character:1",
               "--horizons", "4,8,16", "--radius", "0.5", "--samples", "20"])
    assert rc == 2
    assert "need a circle family, not bernoulli_shift" in capsys.readouterr().err


@pytest.mark.parametrize("system, family", [
    ("bernoulli:0.5", "bernoulli_shift"),
    ("odometer:2", "odometer"),
])
def test_name_point_on_symbolic_family_exit_2(system, family, capsys):
    rc = main(["name", "--system", system, "--target", "cylinder:0", "--n", "4",
               "--point", "0.3"])
    assert rc == 2
    assert capsys.readouterr().err.strip() == (
        f"error: point is a circle value; {family} points are sampled"
    )


# a value of each type a task flag parses
_FLAG_VALUES = {int: "3", float: "0.5", cli._int_list: "4,8,16"}


def test_config_params_hold_every_task_flag():
    # every flag of every subcommand but --system and --target is a task param
    parser = cli._build_parser()
    [commands] = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    for command, sub in commands.choices.items():
        argv, dests = [command], set()
        for action in sub._actions:
            if action.dest in ("help", "system", "target"):
                continue
            argv += [action.option_strings[0], _FLAG_VALUES[action.type]]
            dests.add(action.dest)
        if any(a.dest == "system" for a in sub._actions):
            argv += ["--system", "rotation:golden", "--target", "halves"]
        params = cli._config_obj(parser.parse_args(argv))["params"]
        assert set(params) == dests, command
        if command != "systems":  # the one subcommand without a task
            task = report._TASKS["dichotomy-report" if command == "report" else command]
            assert dests <= set(task.required + task.optional), command


# a target shortcut of each target rule of report._TASKS ("none" takes the default)
_RULE_TARGETS = {"partition": "halves", "either": "halves", "observable": "character:1"}


def test_every_task_has_a_subcommand_that_builds_its_config():
    # a task listed in report._TASKS but not in the CLI, or the reverse, fails
    # here; so does a subcommand whose required flags leave out a required param
    parser = cli._build_parser()
    [commands] = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    task_of = {c: "dichotomy-report" if c == "report" else c
               for c in commands.choices if c != "systems"}
    assert set(task_of.values()) == set(report._TASKS)
    for command, task in task_of.items():
        argv = [command, "--system", "rotation:golden"]
        rule = report._TASKS[task].target
        if rule in _RULE_TARGETS:
            argv += ["--target", _RULE_TARGETS[rule]]
        for action in commands.choices[command]._actions:
            if action.required and action.dest not in ("system", "target"):
                argv += [action.option_strings[0], _FLAG_VALUES[action.type]]
        config = report.config_from_json(cli._config_obj(parser.parse_args(argv)))
        assert config.task == task


def _outcome(argv, capsys):
    """Exit code, stdout and stderr of one main call, argparse exits included."""
    try:
        rc = main(argv)
    except SystemExit as exc:
        rc = exc.code
    got = capsys.readouterr()
    return rc, got.out, got.err


_REPEATED = [
    ["name", "--system", "doubling", "--target", "halves", "--n", "8", "--point", "0.375"],
    ["complexity", "--system", "rotation:golden", "--target", "halves",
     "--eps", "0.2", "--horizons", "4,8,16", "--samples", "40"],
    ["expansivity", "--system", "doubling", "--target", "indicator:halves:0",
     "--delta", "0.4", "--pairs", "100", "--horizon", "32"],
    ["systems"],
    ["complexity", "--system", "rotation:2.5", "--target", "halves",  # config error
     "--eps", "0.2", "--horizons", "4,8,16"],
    ["complexity", "--system", "rotation:golden"],  # argparse error
    ["--version"],
]


def test_parser_built_once_and_reused_unchanged(capsys):
    cli._build_parser.cache_clear()
    first = [_outcome(argv, capsys) for argv in _REPEATED]
    assert [rc for rc, _, _ in first] == [0, 0, 0, 0, 2, 2, 0]
    assert cli._build_parser() is cli._build_parser()
    for _ in range(2):
        assert [_outcome(argv, capsys) for argv in _REPEATED] == first
