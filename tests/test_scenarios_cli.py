import dataclasses
import json
import os

import pytest

from qstarlab.cli import main
from qstarlab.scenarios import (ConfigError, SCENARIOS, Scenario, list_catalog,
                                parse_config, run_scenario, write_outcome)


def test_catalog_covers_all_examples():
    assert sorted(SCENARIOS) == ["ex-2.6-1", "ex-2.6-2", "ex-2.6-3",
                                 "ex-3.2-1", "ex-3.2-2", "ex-3.8-1",
                                 "ex-3.8-2"]
    assert len(list_catalog()) == 7
    assert len(list_catalog("ccr-lab")) == 1
    assert len(list_catalog("function-lab")) == 3
    assert list_catalog("nonexistent") == []


def test_every_scenario_passes():
    for sid, scenario in sorted(SCENARIOS.items()):
        outcome = run_scenario(scenario, seed=0)
        assert outcome.passed, (sid, outcome.details)
        assert outcome.scenario_id == sid


def test_config_operation_parameter_errors(tmp_path):
    bad_cases = [
        {"module": "forms", "operation": "closability_probe",
         "parameters": {"context": "nowhere"}},
        {"module": "forms", "operation": "closability_probe",
         "parameters": {"context": "lp", "family": "nope"}},
        {"module": "op-topologies", "operation": "extend_by_closure",
         "parameters": {"topology": "norm"}},
        {"module": "op-topologies", "operation": "extend_by_closure",
         "parameters": {"target": "mystery"}},
        {"module": "gns", "operation": "gns_construct",
         "parameters": {"algebra": "m5"}},
        {"module": "gns", "operation": "gns_construct",
         "parameters": {"algebra": "z4", "state": "corner"}},
        {"module": "matrix-lab", "operation": "matrix_closability_replay",
         "parameters": {"family": "no_such_family"}},
    ]
    for entry in bad_cases:
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({"scenarios": [entry]}))
        assert main(["--out-dir", str(tmp_path / "o"), "run", str(cfg)]) == 2


def test_parse_config_validation():
    good = {"scenarios": [{"module": "gns", "operation": "gns_construct",
                           "parameters": {"algebra": "m2", "state": "trace"}}]}
    scenarios = parse_config(good)
    assert scenarios[0].module == "gns"
    with pytest.raises(ConfigError, match="scenarios"):
        parse_config({})
    with pytest.raises(ConfigError, match="'scenarios' must be a list"):
        parse_config({"scenarios": {"module": "gns"}})
    with pytest.raises(ConfigError, match=r"scenarios\[1\].*expected an object"):
        parse_config({"scenarios": [good["scenarios"][0], "gns"]})
    with pytest.raises(ConfigError,
                       match=r"scenarios\[0\].*'parameters' must be an object"):
        parse_config({"scenarios": [{"module": "gns",
                                     "operation": "gns_construct",
                                     "parameters": ["algebra", "m2"]}]})
    with pytest.raises(ConfigError, match="unknown operation gns/nope"):
        run_scenario(Scenario("x", "gns", "nope", ""))
    with pytest.raises(ConfigError, match=r"scenarios\[0\].*missing"):
        parse_config({"scenarios": [{"module": "gns"}]})
    with pytest.raises(ConfigError, match=r"scenarios\[0\].*unknown operation"):
        parse_config({"scenarios": [{"module": "gns", "operation": "nope"}]})
    with pytest.raises(ConfigError, match="unknown parameters"):
        parse_config({"scenarios": [{"module": "gns",
                                     "operation": "gns_construct",
                                     "parameters": {"bogus": 1}}]})


def test_gns_operation_via_config(tmp_path):
    cfg = {"scenarios": [{"id": "demo", "module": "gns",
                          "operation": "gns_construct",
                          "parameters": {"algebra": "m2", "state": "corner"}}]}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    out_dir = tmp_path / "out"
    assert main(["--out-dir", str(out_dir), "run", str(path)]) == 0
    payload = json.loads((out_dir / "demo.json").read_text())
    assert payload["passed"] is True
    assert payload["details"]["rank"] == 2


def test_lemma24_operation(tmp_path):
    cfg = {"scenarios": [{"id": "lemma", "module": "forms",
                          "operation": "check_lemma24",
                          "parameters": {"truncation": 32}}]}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    out_dir = tmp_path / "out"
    assert main(["--out-dir", str(out_dir), "run", str(path)]) == 0
    payload = json.loads((out_dir / "lemma.json").read_text())
    assert payload["details"]["agree"] is True
    assert payload["details"]["counterexamples"] == []


def test_output_path_override(tmp_path):
    cfg = {"scenarios": [{"id": "demo", "module": "gns",
                          "operation": "gns_construct",
                          "parameters": {"algebra": "m2", "state": "trace"},
                          "output_path": "nested/m2_trace"}]}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    out_dir = tmp_path / "out"
    assert main(["--out-dir", str(out_dir), "run", str(path)]) == 0
    assert (out_dir / "nested" / "m2_trace.json").exists()
    with pytest.raises(ConfigError, match="output_path"):
        parse_config({"scenarios": [{"module": "gns",
                                     "operation": "gns_construct",
                                     "output_path": "/abs/path"}]})


def test_cli_exit_codes(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["run", str(bad)]) == 2
    missing = tmp_path / "missing.json"
    assert main(["run", str(missing)]) == 2
    wrong = tmp_path / "wrong.json"
    wrong.write_text(json.dumps({"scenarios": [
        {"module": "gns", "operation": "frobnicate"}]}))
    assert main(["run", str(wrong)]) == 2
    err = capsys.readouterr().err
    assert "scenarios[0]" in err
    assert main(["replicate", "ex-9.9-9"]) == 2


def test_unknown_variant_rejected(tmp_path, capsys):
    from qstarlab import function_lab as flab
    from qstarlab.scenarios import clipped_power_family

    with pytest.raises(ValueError, match="unknown variant 'bogus'"):
        clipped_power_family(flab.simpson_grid(33), 0.2, "bogus")
    cfg = tmp_path / "variant.json"
    cfg.write_text(json.dumps({"scenarios": [
        {"id": "ok", "module": "gns", "operation": "gns_construct"},
        {"id": "bad", "module": "op-topologies",
         "operation": "extend_by_closure",
         "parameters": {"variant": "bogus"}}]}))
    out_dir = tmp_path / "out"
    assert main(["--out-dir", str(out_dir), "run", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert "scenarios[1]" in err and "variant 'bogus'" in err
    assert "Traceback" not in err
    assert not out_dir.exists()
    for variant in ("height", "plateau"):
        parse_config({"scenarios": [
            {"module": "op-topologies", "operation": "extend_by_closure",
             "parameters": {"variant": variant}}]})


def test_duplicate_output_stems_rejected(tmp_path, capsys):
    gns = {"module": "gns", "operation": "gns_construct"}
    clashes = [
        [{"id": "x", **gns}, {"id": "x", **gns}],
        [{"id": "x", **gns}, {"id": "y", "output_path": "x", **gns}],
        [{"id": "a", "output_path": "sub/x", **gns},
         {"id": "b", "output_path": "sub/./x", **gns}],
        [{"id": "scenario-1", **gns}, gns],
    ]
    for entries in clashes:
        with pytest.raises(ConfigError,
                           match=r"scenarios\[1\].*clashes with scenarios\[0\]"):
            parse_config({"scenarios": entries})
    assert len(parse_config({"scenarios": [
        {"id": "x", **gns}, {"id": "x", "output_path": "x2", **gns}]})) == 2
    cfg = tmp_path / "dup.json"
    cfg.write_text(json.dumps({"scenarios": clashes[0]}))
    out_dir = tmp_path / "out"
    assert main(["--out-dir", str(out_dir), "run", str(cfg)]) == 2
    assert "scenarios[1]" in capsys.readouterr().err
    assert not out_dir.exists()


def test_cli_empty_scenario_list(tmp_path):
    cfg = tmp_path / "empty.json"
    cfg.write_text(json.dumps({"scenarios": []}))
    out_dir = tmp_path / "out"
    assert main(["--out-dir", str(out_dir), "run", str(cfg)]) == 0
    assert not out_dir.exists() or not os.listdir(out_dir)


def test_cli_list_machine_readable(capsys):
    assert main(["list", "--machine"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert len(payload) == 7
    assert {entry["id"] for entry in payload} == set(SCENARIOS)
    assert main(["list", "--module", "ccr-lab"]) == 0
    assert "ex-3.2-2" in capsys.readouterr().out


def test_cli_replicate_single(tmp_path, capsys):
    out_dir = tmp_path / "out"
    assert main(["--out-dir", str(out_dir), "replicate", "ex-2.6-2"]) == 0
    assert "ex-2.6-2: pass" in capsys.readouterr().out
    assert (out_dir / "ex-2.6-2.json").exists()
    assert (out_dir / "ex-2.6-2__classification.csv").exists()


def test_write_outcome_json_embeds_tables(tmp_path):
    outcome = run_scenario(SCENARIOS["ex-2.6-2"], seed=0)
    written = write_outcome(outcome, str(tmp_path), fmt="json")
    assert len(written) == 1
    payload = json.loads((tmp_path / "ex-2.6-2.json").read_text())
    assert "classification" in payload["tables"]
    assert payload["tables"]["classification"]["header"] == ["p", "r", "s",
                                                             "tag"]


def test_outputs_deterministic(tmp_path):
    outcome1 = run_scenario(SCENARIOS["ex-2.6-3"], seed=0)
    outcome2 = run_scenario(SCENARIOS["ex-2.6-3"], seed=0)
    dir1, dir2 = tmp_path / "a", tmp_path / "b"
    files1 = write_outcome(outcome1, str(dir1))
    files2 = write_outcome(outcome2, str(dir2))
    assert [os.path.basename(f) for f in files1] \
        == [os.path.basename(f) for f in files2]
    for f1, f2 in zip(files1, files2):
        assert open(f1, "rb").read() == open(f2, "rb").read()


def test_jobs_flag_same_results(tmp_path):
    out1, out2 = tmp_path / "serial", tmp_path / "parallel"
    assert main(["--out-dir", str(out1), "replicate", "ex-2.6-1"]) == 0
    assert main(["--out-dir", str(out2), "--jobs", "2",
                 "replicate", "ex-2.6-1"]) == 0
    names = sorted(os.listdir(out1))
    assert names == sorted(os.listdir(out2))
    for name in names:
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_integer_parameters_validated(tmp_path, capsys):
    def entry(operation, **params):
        module = {"symbolic_suite": "ccr-lab",
                  "submultiplicativity_probe": "ccr-lab",
                  "replay_suite": "matrix-lab",
                  "dichotomy_suite": "function-lab",
                  "unboundedness_witness": "function-lab",
                  "closability_probe": "forms",
                  "extend_by_closure": "op-topologies"}[operation]
        return {"module": module, "operation": operation, "parameters": params}

    gns = {"module": "gns", "operation": "gns_construct"}
    bad = [
        (entry("symbolic_suite", samples=-3), "outside"),
        (entry("symbolic_suite", samples=0), "outside"),
        (entry("symbolic_suite", samples="abc"), "must be an integer"),
        (entry("symbolic_suite", samples=True), "must be an integer"),
        (entry("symbolic_suite", samples=2.5), "must be an integer"),
        (entry("symbolic_suite", samples=None), "must be an integer"),
        (entry("dichotomy_suite", n_max="abc"), "must be an integer"),
        (entry("dichotomy_suite", n_max=2), "outside"),
        (entry("submultiplicativity_probe", k=-1), "outside"),
        (entry("submultiplicativity_probe", n_pairs=0), "outside"),
        (entry("replay_suite", truncation=float("inf")), "must be an integer"),
        (entry("closability_probe", context="lp", family="tent", p=0.5),
         "outside"),
        (entry("unboundedness_witness", p="abc"), "must be a finite real"),
        (entry("unboundedness_witness", p=True), "must be a finite real"),
        (entry("unboundedness_witness", p=float("nan")),
         "must be a finite real"),
        (entry("closability_probe", context="lp", family="scaled_one",
               p=float("inf")),
         "must be a finite real"),
        (entry("closability_probe", context="lp", family="tent",
               height_exp=None), "must be a finite real"),
        (entry("extend_by_closure", beta=None), "must be a finite real"),
        (entry("extend_by_closure", beta="0.2"), "must be a finite real"),
        (entry("extend_by_closure", beta=float("-inf")),
         "must be a finite real"),
    ]
    for params, message in bad:
        with pytest.raises(ConfigError, match=r"scenarios\[1\].*" + message):
            parse_config({"scenarios": [gns, params]})
        with pytest.raises(ConfigError, match=message):
            run_scenario(Scenario("bad", params["module"],
                                  params["operation"], "",
                                  params["parameters"]))
    accepted = parse_config({"scenarios": [
        entry("symbolic_suite", samples=1),
        {**entry("replay_suite", truncation=256.0), "id": "integral-float"},
        {**entry("submultiplicativity_probe", k=0), "id": "k0"},
        {**entry("unboundedness_witness", p=1), "id": "p-int"},
        {**entry("extend_by_closure", beta=-0.5), "id": "beta-neg"}]})
    assert len(accepted) == 5

    cfg = tmp_path / "abc.json"
    out_dir = tmp_path / "out"
    for bad_entry in (entry("dichotomy_suite", n_max="abc"),
                      entry("closability_probe", context="lp", family="tent",
                            p=0.5),
                      entry("unboundedness_witness", p="abc"),
                      entry("extend_by_closure", beta=None)):
        cfg.write_text(json.dumps({"scenarios": [{"id": "ok", **gns},
                                                 bad_entry]}))
        assert main(["--out-dir", str(out_dir), "run", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert "scenarios[1]" in err and "Traceback" not in err
        assert not out_dir.exists()


def test_integer_parameter_cap_rejects_before_running(tmp_path, monkeypatch):
    from qstarlab import scenarios

    def refuse(params, seed):
        raise AssertionError("the handler must not run")

    key = ("matrix-lab", "replay_suite")
    monkeypatch.setitem(scenarios.OPERATIONS, key, scenarios.Operation(
        refuse, scenarios.OPERATIONS[key].allowed_params,
        bounds=scenarios.OPERATIONS[key].bounds))
    huge = {"module": "matrix-lab", "operation": "replay_suite",
            "parameters": {"truncation": 10 ** 12}}
    with pytest.raises(ConfigError, match=r"scenarios\[0\].*outside"):
        parse_config({"scenarios": [huge]})
    with pytest.raises(ConfigError, match="outside"):
        run_scenario(scenarios.Scenario("big", "matrix-lab", "replay_suite",
                                        "", {"truncation": 10 ** 12}))
    cap = scenarios.TRUNCATION_CAP
    parse_config({"scenarios": [{**huge, "parameters": {"truncation": cap}}]})
    with pytest.raises(ConfigError, match="outside"):
        parse_config({"scenarios": [{**huge,
                                     "parameters": {"truncation": cap + 1}}]})
    cfg = tmp_path / "huge.json"
    cfg.write_text(json.dumps({"scenarios": [huge]}))
    assert main(["--out-dir", str(tmp_path / "out"), "run", str(cfg)]) == 2
    assert not (tmp_path / "out").exists()


def _stub_operation(monkeypatch, handler):
    """Replace the matrix_closability_replay handler, keeping its
    parameter validation."""
    from qstarlab import scenarios

    key = ("matrix-lab", "matrix_closability_replay")
    monkeypatch.setitem(scenarios.OPERATIONS, key, dataclasses.replace(
        scenarios.OPERATIONS[key], handler=handler))
    return {"module": key[0], "operation": key[1]}


def _run_with_failing(tmp_path, jobs, entry):
    """Run a config of one passing scenario and `entry` (id "boom"); return
    the exit code and boom's outcome."""
    cfg = tmp_path / "raise.json"
    cfg.write_text(json.dumps({"scenarios": [
        {"id": "ok", "module": "gns", "operation": "gns_construct"},
        {"id": "boom", **entry}]}))
    out_dir = tmp_path / "out"
    code = main(["--jobs", jobs, "--out-dir", str(out_dir), "run", str(cfg)])
    assert json.loads((out_dir / "ok.json").read_text())["passed"] is True
    return code, json.loads((out_dir / "boom.json").read_text())


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_raising_scenario_keeps_other_outputs(tmp_path, capsys, monkeypatch,
                                              jobs):
    def handler(params, seed):
        raise KeyError("no_such_family")

    entry = _stub_operation(monkeypatch, handler)
    code, failed = _run_with_failing(tmp_path, jobs, entry)
    assert code == 1
    captured = capsys.readouterr()
    assert "ok: pass" in captured.out and "boom: FAIL" in captured.out
    assert "KeyError" in captured.err
    assert failed["passed"] is False
    assert failed["details"]["error"]["type"] == "KeyError"
    assert "no_such_family" in failed["details"]["error"]["message"]


def test_non_finite_series_fail_the_scenario(tmp_path, monkeypatch):
    # A NaN form value and an inf representative used to read as "no
    # counterexample"; now the scenario fails and names the series.
    import numpy as np

    from qstarlab import function_lab as flab, matrix_lab as mlab
    from qstarlab.forms import FormContext, ProbeFamily, closability_probe
    from qstarlab.scenarios import ScenarioOutcome
    from qstarlab.topologies import (TruncatedOperator, closability_check,
                                     suite_from_bounded_sets)

    def nan_form(params, seed):
        base = mlab.trace_form_context(8)
        ctx = FormContext("nan", lambda a, b: complex("nan"),
                          base.ambient_norm)
        verdict = closability_probe(ctx, mlab.matrix_family("scaled_corner", 8), 8)
        return ScenarioOutcome("", not verdict.counterexample, {}, {})

    def inf_rep(params, seed):
        grid = flab.simpson_grid(33)
        one = TruncatedOperator(diag=np.ones(33))
        spoiled = TruncatedOperator(diag=np.r_[np.ones(32), np.inf])
        verdicts = closability_check(
            [ProbeFamily("null-but-constant-rep", lambda n: n,
                         tau_norm=lambda n: 1.0 / n)],
            rep_map=lambda n: spoiled if n == 4 else one,
            suite=suite_from_bounded_sets("uniform",
                                          [flab.node_spike_set(grid)]),
            n_max=64)
        return ScenarioOutcome("", not verdicts[0].counterexample, {}, {})

    def overflowed_norm(params, seed):
        # |f|^400 overflows for tents of height above about 5.9
        return run_scenario(Scenario("w", "function-lab",
                                     "unboundedness_witness", "",
                                     {"p": 400}), seed)

    def overflowed_tent(params, seed):
        # n**400 overflows a float from n = 7 on
        return run_scenario(Scenario("t", "forms", "closability_probe", "",
                                     {"context": "lp", "family": "tent",
                                      "height_exp": 400}), seed)

    for handler, message in ((nan_form, "'omega' is nan at ladder position 0 "),
                             (inf_rep, "'uniform|node-spikes' is inf at "
                                       "ladder position 3 (n=4)"),
                             (overflowed_norm, "'lp_norm' is inf at ladder "
                                               "position 6 (n=39)"),
                             (overflowed_tent, "'tent height' is inf at n=7 ")):
        code, failed = _run_with_failing(
            tmp_path, "1", _stub_operation(monkeypatch, handler))
        assert code == 1 and failed["passed"] is False
        assert failed["details"]["error"]["type"] == "NonFiniteSeriesError"
        assert message in failed["details"]["error"]["message"]


def test_cli_passes_leave_numpy_ma_unloaded(tmp_path):
    # numpy imports numpy.ma lazily, on the first np.unique or similar call:
    # about 10 ms of every cold CLI pass when the probe kernel triggers it.
    import subprocess
    import sys

    import qstarlab

    cfg = tmp_path / "sweep.json"
    cfg.write_text(json.dumps({"scenarios": [
        {"id": "ext", "module": "op-topologies",
         "operation": "extend_by_closure",
         "parameters": {"topology": "strong", "target": "power"}},
        {"id": "probe", "module": "forms", "operation": "closability_probe",
         "parameters": {"context": "matrix-trace", "family": "scaled_corner"}},
        {"id": "tent", "module": "forms", "operation": "closability_probe",
         "parameters": {"context": "lp", "family": "tent", "p": 1.5,
                        "height_exp": 0.25}},
        {"id": "replay", "module": "matrix-lab",
         "operation": "matrix_closability_replay",
         "parameters": {"family": "moving_bump"}},
        {"id": "gns", "module": "gns", "operation": "gns_construct"}]}))
    script = ("import sys, numpy\n"
              "if 'numpy.ma' in sys.modules:\n"
              "    print('preloaded'); sys.exit(0)\n"
              "from qstarlab.cli import main\n"
              "code = main(sys.argv[1:])\n"
              "print(code, 'numpy.ma' in sys.modules)\n")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.dirname(os.path.dirname(qstarlab.__file__))
    for argv in (["--seed", "0", "replicate"],
                 ["--format", "json", "run", str(cfg)]):
        proc = subprocess.run(
            [sys.executable, "-c", script, "--out-dir", str(tmp_path / "out"),
             *argv], capture_output=True, text=True, env=env, cwd=tmp_path)
        last = proc.stdout.splitlines()[-1]
        if last == "preloaded":
            pytest.skip("this numpy loads numpy.ma on import")
        assert last == "0 False", proc.stderr


def test_paired_choices_rejected_before_running(tmp_path, capsys, monkeypatch):
    from qstarlab import scenarios

    def gns(**params):
        return {"module": "gns", "operation": "gns_construct",
                "parameters": params}

    def probe(**params):
        return {"module": "forms", "operation": "closability_probe",
                "parameters": params}

    bad = [
        (gns(algebra="m2", state="character"),
         "unknown state 'character' for algebra 'm2'"),
        (gns(state="character"), "unknown state 'character' for algebra 'm2'"),
        (gns(algebra="z4", state="corner"), "unknown state 'corner'"),
        (gns(algebra="m5"), "unknown algebra 'm5'"),
        (gns(algebra=["m2"]), "unknown algebra"),
        (probe(context="nope"), "unknown context 'nope'"),
        (probe(context="lp", family="nope"),
         "unknown family 'nope' for context 'lp'"),
        (probe(context="lp"), "unknown family 'scaled_corner' for context 'lp'"),
        (probe(family="tent"), "unknown family 'tent' for context 'matrix-trace'"),
    ]
    for entry, message in bad:
        with pytest.raises(ConfigError, match=r"scenarios\[1\]: " + message):
            parse_config({"scenarios": [gns(), entry]})
    accepted = parse_config({"scenarios": [
        {**gns(algebra="scalar"), "id": "a"},
        {**gns(algebra="z4", state="character"), "id": "b"},
        {**probe(context="lp", family="scaled_one"), "id": "c"},
        {**probe(family="moving_bump"), "id": "d"}]})
    assert len(accepted) == 4

    def refuse(params, seed):
        raise AssertionError("the handler must not run")

    key = ("gns", "gns_construct")
    monkeypatch.setitem(scenarios.OPERATIONS, key, dataclasses.replace(
        scenarios.OPERATIONS[key], handler=refuse))
    with pytest.raises(ConfigError, match="unknown state 'character'"):
        run_scenario(scenarios.Scenario("x", "gns", "gns_construct", "",
                                        {"state": "character"}))

    cfg = tmp_path / "paired.json"
    cfg.write_text(json.dumps({"scenarios": [
        gns(algebra="m2", state="trace"), gns(algebra="m2", state="character"),
        probe(context="nope")]}))
    out_dir = tmp_path / "out"
    assert main(["--out-dir", str(out_dir), "run", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert "scenarios[1]: unknown state 'character'" in err
    assert not out_dir.exists()


def test_operation_defaults_reach_the_handler(monkeypatch):
    from qstarlab import scenarios

    seen = []
    key = ("forms", "closability_probe")
    monkeypatch.setitem(scenarios.OPERATIONS, key, dataclasses.replace(
        scenarios.OPERATIONS[key], handler=lambda params, seed: seen.append(
            params) or scenarios.ScenarioOutcome("", True, {}, {})))
    run_scenario(scenarios.Scenario("x", "forms", "closability_probe", "",
                                    {"n_max": 8}))
    assert seen == [{"context": "matrix-trace", "family": "scaled_corner",
                     "n_max": 8}]


def test_witness_and_submultiplicativity_operations(tmp_path):
    cfg = tmp_path / "ops.json"
    cfg.write_text(json.dumps({"scenarios": [
        {"id": "witness", "module": "function-lab",
         "operation": "unboundedness_witness",
         "parameters": {"p": 1.0, "n_max": 128}},
        {"id": "dichotomy", "module": "function-lab",
         "operation": "dichotomy_suite", "parameters": {"n_max": 128}},
        {"id": "submult", "module": "ccr-lab",
         "operation": "submultiplicativity_probe",
         "parameters": {"k": 1, "n_pairs": 10}}]}))
    out_dir = tmp_path / "out"
    assert main(["--out-dir", str(out_dir), "--format", "json", "run",
                 str(cfg)]) == 0

    def load(sid):
        return json.loads((out_dir / f"{sid}.json").read_text())

    witness, dichotomy, submult = map(load, ("witness", "dichotomy",
                                             "submult"))
    assert witness["passed"] is True
    assert sorted(witness["details"]) == ["exponent", "p"]
    assert witness["details"]["p"] == 1.0
    assert witness["details"]["exponent"] \
        == dichotomy["details"]["exponents"]["1"]
    assert witness["tables"]["ratios"]["header"] \
        == ["n", "lp_norm", "omega_diag", "ratio"]
    assert submult["passed"] is True
    assert sorted(submult["details"]) == ["half_sample_ratio", "k",
                                          "max_ratio", "n_pairs"]
    assert submult["details"]["k"] == 1
    assert submult["details"]["n_pairs"] == 10
    assert submult["details"]["max_ratio"] \
        >= submult["details"]["half_sample_ratio"] > 0
