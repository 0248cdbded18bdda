import hashlib
import json
import math

import pytest

from bass_sim import cli, sim
from bass_sim.cli import main
from bass_sim.codec import load_json
from bass_sim.errors import ValidationError
from bass_sim.metrics import SummaryReport
from bass_sim.topology import generate_scenario, load_scenario

from oracles import encode


def read_summary(path):
    return load_json(SummaryReport, path, "report", ValidationError)


def make_scenario(tmp_path, name="scenario.json", extra=()):
    path = tmp_path / name
    code = main(
        ["generate", "--clients", "12", "--servers", "4", "--origins", "3",
         "--seed", "5", "--out", str(path), *extra]
    )
    assert code == 0
    return path


class TestGenerate:
    def test_defaults_are_paper_scale(self, tmp_path, capsys):
        out = tmp_path / "default.json"
        assert main(["generate", "--out", str(out)]) == 0
        scenario = load_scenario(out)
        assert len(scenario.clients) == 60
        assert len(scenario.agg_servers) == 8
        assert "60 clients" in capsys.readouterr().out

    def test_same_seed_same_bytes(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert main(["generate", "--seed", "1", "--out", str(a)]) == 0
        assert main(["generate", "--seed", "1", "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    # An out-of-range --clients is one error line: see test_cli_flags.
    def test_clients_that_do_not_parse_are_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["generate", "--clients", "1.5", "--out", str(tmp_path / "x.json")])
        assert exc.value.code == 2


class TestRun:
    def test_outputs_and_summary(self, tmp_path, capsys):
        scenario = make_scenario(tmp_path)
        out = tmp_path / "out"
        code = main(
            ["run", "--scenario", str(scenario), "--policy", "bass_greedy",
             "--epochs", "2", "--seed", "1", "--out", str(out)]
        )
        assert code == 0
        for name in ("records.json", "per_client.csv", "summary.json"):
            assert (out / name).exists()
        stdout = capsys.readouterr().out
        assert "frac_gamma_one" in stdout
        report = read_summary(out / "summary.json")
        assert report.client_epochs == 24
        assert report.gamma_fraction_one is not None

    def test_identical_invocations_identical_bytes(self, tmp_path):
        scenario = make_scenario(tmp_path)
        outputs = []
        for name in ("run1", "run2"):
            out = tmp_path / name
            assert main(
                ["run", "--scenario", str(scenario), "--policy", "random",
                 "--epochs", "3", "--seed", "9", "--out", str(out)]
            ) == 0
            outputs.append(out)
        for filename in ("records.json", "per_client.csv", "summary.json"):
            assert (outputs[0] / filename).read_bytes() == (outputs[1] / filename).read_bytes()

    def test_zero_epochs(self, tmp_path, capsys):
        scenario = make_scenario(tmp_path)
        out = tmp_path / "empty"
        assert main(
            ["run", "--scenario", str(scenario), "--epochs", "0", "--out", str(out)]
        ) == 0
        report = read_summary(out / "summary.json")
        assert report.epochs == 0
        assert report.client_epochs == 0
        assert report.gamma_mean is None
        assert "mean_gamma=n/a" in capsys.readouterr().out

    def test_missing_scenario_exits_1(self, tmp_path, capsys):
        code = main(
            ["run", "--scenario", str(tmp_path / "nope.json"), "--out", str(tmp_path / "o")]
        )
        assert code == 1
        assert "error" in capsys.readouterr().err

    def test_malformed_scenario_exits_1(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"seed": 1}', encoding="utf-8")
        code = main(["run", "--scenario", str(bad), "--out", str(tmp_path / "o")])
        assert code == 1
        assert "missing field" in capsys.readouterr().err

    def test_mean_of_multipliers_whose_sum_overflows(self, tmp_path, capsys):
        # A direct path scaled to the smallest normal float: each client's
        # multiplier is about 6e307, and two of them sum past the largest float.
        scenario = make_scenario(
            tmp_path, extra=["--direct-path-factor", "2.2250738585072014e-308"])
        out = tmp_path / "out"
        assert main(["run", "--scenario", str(scenario), "--out", str(out)]) == 0
        report = read_summary(out / "summary.json")
        assert report.multiplier_min > 1e307
        assert report.multiplier_min <= report.multiplier_mean <= report.multiplier_max < math.inf


class TestCompare:
    def test_direction_and_delta_column(self, tmp_path, capsys):
        scenario = make_scenario(tmp_path)
        out = tmp_path / "cmp"
        code = main(
            ["compare", "--scenario", str(scenario), "--policies", "bass_greedy,random",
             "--epochs", "2", "--seed", "1", "--out", str(out)]
        )
        assert code == 0
        stdout = capsys.readouterr().out
        assert "delta(random-bass_greedy)" in stdout
        bass = read_summary(out / "summary_bass_greedy.json")
        rand = read_summary(out / "summary_random.json")
        assert bass.gamma_mean >= rand.gamma_mean
        assert bass.gamma_fraction_one > rand.gamma_fraction_one

    def test_single_policy_has_no_delta(self, tmp_path, capsys):
        scenario = make_scenario(tmp_path)
        assert main(
            ["compare", "--scenario", str(scenario), "--policies", "bass_greedy",
             "--epochs", "1", "--seed", "1"]
        ) == 0
        assert "delta" not in capsys.readouterr().out

    def test_unknown_policy_lists_valid_names(self, tmp_path, capsys):
        scenario = make_scenario(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main(["compare", "--scenario", str(scenario), "--policies", "bass_greedy,oracle"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "oracle" in err
        assert "bass_exact" in err and "bass_greedy" in err and "random" in err

    def test_repeated_policy_is_usage_error(self, tmp_path, capsys):
        scenario = make_scenario(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main(["compare", "--scenario", str(scenario), "--policies",
                  "bass_greedy,random, bass_greedy", "--epochs", "1"])
        assert exc.value.code == 2
        errors = [line for line in capsys.readouterr().err.splitlines() if "error:" in line]
        assert len(errors) == 1
        assert "repeated policy in 'bass_greedy,random, bass_greedy'" in errors[0]

    def test_each_policy_is_written_before_the_next_runs(self, tmp_path, monkeypatch):
        # One policy runs at a time, and its files are the ones `run` writes
        # for that policy and seed.
        scenario = make_scenario(tmp_path)
        out = tmp_path / "cmp"
        written_at_start = []

        def spy(scenario, config):
            written_at_start.append((config.policy, sorted(p.name for p in out.glob("*"))))
            return sim.run_epochs(scenario, config)

        monkeypatch.setattr(cli, "run_epochs", spy)
        assert main(
            ["compare", "--scenario", str(scenario), "--policies", "bass_greedy,random",
             "--epochs", "2", "--seed", "1", "--out", str(out)]
        ) == 0
        assert written_at_start == [
            ("bass_greedy", []),
            ("random", ["records_bass_greedy.json", "summary_bass_greedy.json"]),
        ]
        run_out = tmp_path / "run"
        assert main(
            ["run", "--scenario", str(scenario), "--policy", "random", "--epochs", "2",
             "--seed", "1", "--out", str(run_out)]
        ) == 0
        assert (out / "records_random.json").read_bytes() == (run_out / "records.json").read_bytes()
        assert (out / "summary_random.json").read_bytes() == (run_out / "summary.json").read_bytes()

    def test_each_policy_writes_what_run_writes_for_it(self, tmp_path):
        # The oracle for a `compare` that shares one world among its policies:
        # with arrivals, departures and re-drawn noise, each policy's files
        # are byte for byte those of `run --policy` with the same flags.
        scenario = make_scenario(tmp_path, extra=["--clients", "30", "--servers", "5",
                                                  "--server-capacity-mbps", "40"])
        flags = ["--scenario", str(scenario), "--epochs", "6", "--seed", "2",
                 "--arrival-rate", "2", "--session-mean", "4", "--remeasure-noise",
                 "--exact-cap", "40"]
        policies = ["bass_exact", "bass_greedy", "random"]
        out = tmp_path / "cmp"
        assert main(["compare", "--policies", ",".join(policies), "--out", str(out), *flags]) == 0
        for policy in policies:
            run_out = tmp_path / policy
            assert main(["run", "--policy", policy, "--out", str(run_out), *flags]) == 0
            for name in ("records", "summary"):
                assert ((out / f"{name}_{policy}.json").read_bytes()
                        == (run_out / f"{name}.json").read_bytes()), (policy, name)
        records = json.loads((out / "records_bass_exact.json").read_text(encoding="utf-8"))
        ids = [{c["client_id"] for c in epoch["clients"]} for epoch in records["epochs"]]
        assert any(now - then for then, now in zip(ids, ids[1:]))  # arrivals
        assert any(then - now for then, now in zip(ids, ids[1:]))  # departures

    def test_stdout_reproducible(self, tmp_path, capsys):
        scenario = make_scenario(tmp_path)
        capsys.readouterr()  # drop the generate line
        argv = ["compare", "--scenario", str(scenario), "--policies", "bass_greedy,random",
                "--epochs", "2", "--seed", "3"]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        assert capsys.readouterr().out == first

    def test_mean_objective_is_exactly_rounded(self):
        # Builtin sum is compensated only from Python 3.12 on; fsum gives
        # the same mean on every version.
        assert cli._mean_or_none([1e16, 1.0, -1e16]) == 1.0 / 3
        assert cli._mean_or_none([]) is None


class TestReport:
    def test_report_matches_run_summary(self, tmp_path):
        scenario = make_scenario(tmp_path)
        out = tmp_path / "out"
        assert main(
            ["run", "--scenario", str(scenario), "--epochs", "2", "--seed", "2",
             "--out", str(out)]
        ) == 0
        regen = tmp_path / "summary2.json"
        assert main(
            ["report", "--records", str(out / "records.json"), "--format", "json",
             "--out", str(regen)]
        ) == 0
        assert regen.read_bytes() == (out / "summary.json").read_bytes()

    def test_csv_format(self, tmp_path):
        scenario = make_scenario(tmp_path)
        out = tmp_path / "out"
        assert main(
            ["run", "--scenario", str(scenario), "--epochs", "1", "--seed", "2",
             "--out", str(out)]
        ) == 0
        csv_path = tmp_path / "summary.csv"
        assert main(
            ["report", "--records", str(out / "records.json"), "--format", "csv",
             "--out", str(csv_path)]
        ) == 0
        assert csv_path.read_text(encoding="utf-8").startswith("key,value")

    def test_missing_subcommand_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2


def _set(path, value):
    """A mutation of parsed JSON: set the value at `path` (keys and indices)."""
    def mutate(data):
        for key in path[:-1]:
            data = data[key]
        data[path[-1]] = value
    return mutate


def _update(path, **values):
    """A mutation of parsed JSON: set several keys of the object at `path`."""
    def mutate(data):
        for key in path:
            data = data[key]
        data.update(values)
    return mutate


def _drop(path):
    def mutate(data):
        for key in path[:-1]:
            data = data[key]
        del data[path[-1]]
    return mutate


MALFORMED_SCENARIOS = {
    "origin-not-object": (_set(["origins"], [1]), "scenario.origins[0]: expected an object, got int 1"),
    "origins-not-array": (_set(["origins"], 5), "scenario.origins: expected an array, got int 5"),
    "seed-string": (_set(["seed"], "abc"), "scenario.seed: expected an integer, got str 'abc'"),
    "links-string": (_set(["clients", 0, "links"], "ab"),
                     "scenario.clients['c0000'].links: expected an array, got str 'ab'"),
    "server-id-int": (_set(["agg_servers", 0, "id"], 7), "scenario.agg_servers[0].id: expected a string"),
    "cellular-range-3": (_set(["net_params", "cellular_uplink_mbps_range"], [1.0, 2.0, 3.0]),
                         "scenario.net_params.cellular_uplink_mbps_range: expected an array of 2"),
    "latitude-string": (_set(["clients", 1, "location", "latitude"], "north"),
                        "scenario.clients['c0001'].location.latitude: expected a number"),
    "noise-overflow": (_set(["net_params", "noise_sigma"], 400.0), "noise_sigma"),
    "relay-id-of-origin": (_set(["agg_servers", 0, "id"], "o0000"), "duplicate id 'o0000'"),
    "link-id-separator": (_set(["clients", 0, "links", 0, "id"], "c0000->o0000"),
                          "id 'c0000->o0000' contains"),
    "link-kind-bogus": (_set(["clients", 0, "links", 1, "kind"], "bogus"),
                        "scenario.clients['c0000'].links['c0000-wifi1']: link 'c0000-wifi1' "
                        "kind must be one of ['wifi', 'cellular'], got 'bogus'"),
    "non-utf8": (b'{"seed": "\xff"}', "not readable as UTF-8 JSON"),
    "nested-too-deep": (b'{"seed": ' + b"[" * 100_000 + b"]" * 100_000 + b"}",
                        "not readable as UTF-8 JSON"),
    # Past Python's 4300-digit limit on parsing an integer literal.
    "seed-5000-digits": (b'{"seed": ' + b"1" * 5000 + b"}", "not readable as UTF-8 JSON"),
}

MALFORMED_RECORDS = {
    "no-assignments": (_drop(["epochs", 0, "assignments"]),
                       "records.epochs[0]: missing field(s) ['assignments']"),
    "epochs-null": (_set(["epochs"], None), "records.epochs: expected an array, got NoneType None"),
    "no-policy": (_drop(["policy"]), "records: missing field(s) ['policy']"),
    "non-utf8": (b'{"policy": "\xff"}', "not readable as UTF-8 JSON"),
    "epoch-t-5000-digits": (b'{"epochs": [{"epoch_t": ' + b"1" * 5000 + b"}]}",
                            "not readable as UTF-8 JSON"),
    # Well-typed values that break a record's invariants.
    "baseline-negative": (_set(["epochs", 0, "clients", 0, "b_baseline_mbps"], -1),
                          "records.epochs[0].clients[0]: need 0 <= b_baseline_mbps"),
    "baseline-nan": (_set(["epochs", 1, "clients", 2, "b_baseline_mbps"], math.nan),
                     "records.epochs[1].clients[2]: need 0 <= b_baseline_mbps"),
    "best-infinite": (_set(["epochs", 0, "clients", 0, "b_best_mbps"], math.inf),
                      "records.epochs[0].clients[0]: need 0 <= b_baseline_mbps"),
    "achieved-above-best": (_set(["epochs", 0, "clients", 0, "b_achieved_mbps"], 1e6),
                            "records.epochs[0].clients[0]: need 0 <= b_achieved_mbps"),
    "candidate-count-negative": (_set(["epochs", 0, "clients", 0, "candidate_count"], -5),
                                 "records.epochs[0].clients[0]: need 0 <= feasible_count"),
    "client-recorded-twice": (
        lambda data: data["epochs"][1]["clients"].insert(1, data["epochs"][1]["clients"][0]),
        "records.epochs[1]: client ids must ascend strictly: 'c0000' after 'c0000'"),
    # Derived fields that do not match what they derive from.
    "gamma-above-one": (_set(["epochs", 0, "clients", 0, "gamma"], 5.0),
                        "records.epochs[0].clients[0].gamma: expected 1.0 from the other fields, "
                        "got 5.0"),
    "gamma-negative": (_set(["epochs", 0, "clients", 0, "gamma"], -1.0),
                       "records.epochs[0].clients[0].gamma: expected 1.0 from the other fields, "
                       "got -1.0"),
    "gamma-nan": (_set(["epochs", 0, "clients", 1, "gamma"], math.nan),
                  "records.epochs[0].clients[1].gamma: expected 1.0 from the other fields, got nan"),
    "gamma-without-chose-best": (
        _set(["epochs", 1, "clients", 0, "chose_best"], None),
        "records.epochs[1].clients[0].chose_best: expected True from the other fields, got None"),
    "gamma-off-its-ratio": (_set(["epochs", 0, "clients", 0, "gamma"], 0.5),
                            "records.epochs[0].clients[0].gamma: expected 1.0 from the other "
                            "fields, got 0.5"),
    "chose-best-off-its-bandwidths": (
        _set(["epochs", 1, "clients", 3, "chose_best"], False),
        "records.epochs[1].clients[3].chose_best: expected True from the other fields, got False"),
    "gamma-without-candidates": (
        _update(["epochs", 0, "clients", 2], candidate_count=0, feasible_count=0),
        "records.epochs[0].clients[2].gamma: expected None from the other fields, got 1.0"),
    "gain-off-its-bandwidths": (
        _set(["epochs", 0, "clients", 0, "gain_mbps"], 4.0),
        "records.epochs[0].clients[0].gain_mbps: expected 3.384880978931175 from the other "
        "fields, got 4.0"),
    "n-active-off-by-one": (_set(["epochs", 1, "n_active"], 13),
                            "records.epochs[1].n_active: expected 12 from the other fields, got 13"),
    "objective-off-its-gains": (
        _set(["epochs", 0, "objective_mbps"], 1e6),
        "records.epochs[0].objective_mbps: expected 20.670517471222603 from the other fields, "
        "got 1000000.0"),
    "assignment-off-its-record": (
        _set(["epochs", 0, "assignments", "c0004", "demand_mbps"], 9.0),
        "records.epochs[0].assignments['c0004'].demand_mbps: expected 4.440788994220907 from "
        "the other fields, got 9.0"),
    "assignment-without-its-record": (
        _set(["epochs", 0, "clients", 4, "server_id"], None),
        "records.epochs[0].assignments['c0004']: expected None from the other fields, "
        "got Assignment(server_id='s0003', demand_..."),
    "record-without-its-assignment": (
        _set(["epochs", 1, "clients", 11, "server_id"], "s0000"),
        "records.epochs[1].assignments['c0011']: expected Assignment(server_id='s0000', "
        "demand_... from the other fields, got None"),
}


def _write_mutated(path, data, mutate):
    """Write `data` changed by `mutate`, or `mutate` itself if it is raw file content."""
    if isinstance(mutate, bytes):
        path.write_bytes(mutate)
    else:
        mutate(data)
        path.write_text(json.dumps(data), encoding="utf-8")


def _assert_one_error_line(capsys, expected):
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: "), err
    assert "Traceback" not in err
    assert expected in err


@pytest.mark.parametrize("case", sorted(MALFORMED_SCENARIOS))
def test_malformed_scenario_is_one_error_line(case, tmp_path, capsys):
    mutate, expected = MALFORMED_SCENARIOS[case]
    path = tmp_path / "scenario.json"
    _write_mutated(path, encode(generate_scenario(3, 2, 2, seed=1)), mutate)
    assert main(["run", "--scenario", str(path), "--epochs", "1", "--out", str(tmp_path / "o")]) == 1
    _assert_one_error_line(capsys, expected)


@pytest.mark.parametrize("flags", [["--wifi-sigma", "400"], ["--wifi-mu", "1000"]])
def test_wifi_uplink_overflow_is_one_error_line(flags, tmp_path, capsys):
    out = tmp_path / "scenario.json"
    assert main(["generate", "--out", str(out), *flags]) == 1
    _assert_one_error_line(capsys, "wifi_lognormal_mu")
    assert not out.exists()


def test_arrival_with_overflowing_wifi_uplink_is_one_error_line(tmp_path, capsys):
    path = tmp_path / "scenario.json"
    data = encode(generate_scenario(3, 2, 2, seed=1))
    data["net_params"]["wifi_lognormal_sigma"] = 400.0
    path.write_text(json.dumps(data), encoding="utf-8")
    assert main(["run", "--scenario", str(path), "--epochs", "3", "--arrival-rate", "5",
                 "--out", str(tmp_path / "o")]) == 1
    _assert_one_error_line(capsys, "wifi_lognormal_sigma")


def test_exact_search_too_deep_is_one_error_line(tmp_path, capsys):
    # 2,500 clients on 8 relays that never fill: 1,764 of them gain, more
    # levels than the exact search may recurse.
    path = tmp_path / "scenario.json"
    assert main(["generate", "--clients", "2500", "--servers", "8",
                 "--server-capacity-mbps", "1e9", "--seed", "1", "--out", str(path)]) == 0
    capsys.readouterr()
    assert main(["run", "--scenario", str(path), "--policy", "bass_exact", "--exact-cap", "5000",
                 "--epochs", "1", "--reserve-mbps", "0", "--out", str(tmp_path / "o")]) == 1
    _assert_one_error_line(capsys, "1764 clients with a positive gain")


@pytest.mark.parametrize("case", sorted(MALFORMED_RECORDS))
def test_malformed_records_is_one_error_line(case, tmp_path, capsys):
    mutate, expected = MALFORMED_RECORDS[case]
    out = tmp_path / "out"
    assert main(["run", "--scenario", str(make_scenario(tmp_path)), "--epochs", "2",
                 "--out", str(out)]) == 0
    path = out / "records.json"
    _write_mutated(path, json.loads(path.read_text(encoding="utf-8")), mutate)
    capsys.readouterr()
    assert main(["report", "--records", str(path), "--out", str(tmp_path / "s.json")]) == 1
    _assert_one_error_line(capsys, expected)
    assert not (tmp_path / "s.json").exists()


# Output digests of four small generate + run invocations. They were
# recorded from a build whose outputs the benchmark's golden digests also
# match, so any change to the numbers a run writes shows up here.
# "greedy-load-filter" is the one whose load filter binds: with reserve 0 on
# 20 Mbit/s relays, some relays fall below the threshold and are skipped.
PINNED_RUNS = {
    "greedy-churn": (
        ["--clients", "12", "--servers", "4", "--origins", "3", "--seed", "5"],
        ["--policy", "bass_greedy", "--epochs", "4", "--seed", "1",
         "--arrival-rate", "3", "--session-mean", "5", "--remeasure-noise"],
    ),
    "exact-contended": (
        ["--clients", "8", "--servers", "3", "--origins", "3", "--seed", "5",
         "--server-capacity-mbps", "20", "--distance-decay", "0.2", "--direct-path-factor", "0.3"],
        ["--policy", "bass_exact", "--epochs", "4", "--seed", "2",
         "--reserve-mbps", "0", "--remeasure-noise"],
    ),
    "random": (
        ["--clients", "12", "--servers", "4", "--origins", "3", "--seed", "5"],
        ["--policy", "random", "--epochs", "3", "--seed", "9"],
    ),
    "greedy-load-filter": (
        ["--clients", "24", "--servers", "6", "--origins", "3", "--seed", "5",
         "--server-capacity-mbps", "20"],
        ["--policy", "bass_greedy", "--epochs", "6", "--seed", "4", "--arrival-rate", "3",
         "--session-mean", "5", "--k-candidates", "2", "--load-threshold", "0.3",
         "--reserve-mbps", "0"],
    ),
}
PINNED_DIGESTS = {
    "exact-contended": {
        "records.json": "167da235b75d1b63e631bc84b3b9b516177cc7e8316aace3d685c94feefe78c7",
        "per_client.csv": "838c67ea1dee3935bf555be1401fdc67209d9b098c5985f91b5df2ba36c89064",
        "summary.json": "4ea6e491c83038b53f322fe1c6d18f46e6366da0f1d81e73bbc20aea26ff86b9",
    },
    "greedy-load-filter": {
        "records.json": "cbeaa3fa9316db4694dacb8ce08bd1a3f370e270a1713f09e064b230a7a491f7",
        "per_client.csv": "6bd2a59ea2e22757739a5060f2f51e10e58edacbb0f56c89a2bf2c84177e6d91",
        "summary.json": "8dc28f1f48a7487a60bf8e33d28f94464ccffd3e4465c3aa2f2bf32e92306ac3",
    },
    "greedy-churn": {
        "records.json": "f90989dcd880394076282e474d4f38caba0b6d1b67d9f1a7a9a3c5145e977328",
        "per_client.csv": "044cde4aa267d0259bdf39e493a6a577082e8eaed2c07c5e56580e71ae0462ea",
        "summary.json": "4b95f5a2afc341dbd40c8ee7613cb3e3dd26dc0fd2afd27cd08904afcd117f80",
    },
    "random": {
        "records.json": "ea1cbd6007830a7692fb893d3c4ca4ed85b7880f169e7303f3071825be04bba7",
        "per_client.csv": "82ecde570fd59c70e8eb79daaed7172b37333ead868cc7e82fc996e561d30b47",
        "summary.json": "ae2e23607aa62613faf7fc027be354f8e29f3f58502244d2949cf149a09f58b2",
    },
}


def _output_digests(tmp_path, case):
    generate_flags, run_flags = PINNED_RUNS[case]
    scenario = tmp_path / "scenario.json"
    assert main(["generate", "--out", str(scenario), *generate_flags]) == 0
    out = tmp_path / "out"
    assert main(["run", "--scenario", str(scenario), "--out", str(out), *run_flags]) == 0
    return {
        name: hashlib.sha256((out / name).read_bytes()).hexdigest()
        for name in ("records.json", "per_client.csv", "summary.json")
    }


@pytest.mark.parametrize("case", sorted(PINNED_RUNS))
def test_outputs_match_pinned_digests(case, tmp_path):
    assert _output_digests(tmp_path, case) == PINNED_DIGESTS[case]


def test_load_filter_binds_in_the_load_filter_case(tmp_path, monkeypatch):
    # Each candidate list the run asks for is compared with the list the
    # same call gives at threshold 0 (the fourth argument, before the load
    # map): the pinned case is only a test of the filter's skip path if they
    # differ.
    original = sim.candidate_subset
    calls = []

    def spy(client, index, k, load_threshold, load_rates):
        got = original(client, index, k, load_threshold, load_rates)
        calls.append(got != original(client, index, k, 0.0, load_rates))
        return got

    monkeypatch.setattr(sim, "candidate_subset", spy)
    _output_digests(tmp_path, "greedy-load-filter")
    assert len(calls) == 153  # one call per client-epoch
    assert sum(calls) == 45
