import pytest

from bass_sim.codec import load_json
from bass_sim.errors import ValidationError
from bass_sim.metrics import (
    PER_CLIENT_COLUMNS,
    SummaryReport,
    cdf,
    emit_report,
    load_records,
    per_client_rows,
    save_records,
    summarize,
    write_rows_csv,
)
from bass_sim.sim import SimConfig, run_simulation
from bass_sim.topology import generate_scenario


class TestCdf:
    def test_collapses_duplicates(self):
        assert cdf([1, 1, 1]) == [(1, 1.0)]

    def test_two_values(self):
        assert cdf([1, 2]) == [(1, 0.5), (2, 1.0)]

    def test_order_invariant(self):
        assert cdf([3, 1, 2]) == cdf([1, 2, 3])

    def test_empty_has_no_points(self):
        assert cdf([]) == []

    def test_monotone_and_ends_at_one(self):
        points = cdf([0.3, 0.1, 0.9, 0.1, 0.5])
        values = [v for v, _ in points]
        fractions = [f for _, f in points]
        assert values == sorted(values)
        assert fractions == sorted(fractions)
        assert fractions[-1] == 1.0


@pytest.fixture(scope="module")
def sample_run():
    scenario = generate_scenario(20, 4, 3, seed=9)
    config = SimConfig(epochs=3, policy="bass_greedy", seed=9)
    return run_simulation(scenario, config)


class TestSummarize:
    def test_fraction_one_matches_argmax_identity(self, sample_run):
        report = summarize("bass_greedy", sample_run)
        client_records = [c for r in sample_run for c in r.clients]
        hits = sum(1 for c in client_records if c.chose_best)
        scored = sum(1 for c in client_records if c.gamma is not None)
        assert report.gamma_fraction_one == hits / scored

    def test_multipliers_at_least_one_for_bass(self, sample_run):
        report = summarize("bass_greedy", sample_run)
        assert report.multiplier_min >= 1.0
        assert report.multiplier_cdf[0][0] >= 1.0

    def test_objective_series_matches_plans(self, sample_run):
        report = summarize("bass_greedy", sample_run)
        assert report.objective_series == tuple(r.objective_mbps for r in sample_run)

    def test_counts_are_consistent(self, sample_run):
        report = summarize("bass_greedy", sample_run)
        assert report.client_epochs == sum(len(r.clients) for r in sample_run)
        assert (
            report.records_with_candidates + report.no_candidate_records
            == report.client_epochs
        )


class TestEmitReport:
    def test_json_round_trip(self, sample_run, tmp_path):
        report = summarize("bass_greedy", sample_run)
        path = tmp_path / "report.json"
        emit_report(report, "json", path)
        assert load_json(SummaryReport, path, "report", ValidationError) == report

    def test_same_bytes_twice(self, sample_run, tmp_path):
        report = summarize("bass_greedy", sample_run)
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        emit_report(report, "json", p1)
        emit_report(report, "json", p2)
        assert p1.read_bytes() == p2.read_bytes()
        c1, c2 = tmp_path / "a.csv", tmp_path / "b.csv"
        emit_report(report, "csv", c1)
        emit_report(report, "csv", c2)
        assert c1.read_bytes() == c2.read_bytes()

    def test_unknown_format_rejected(self, sample_run, tmp_path):
        report = summarize("bass_greedy", sample_run)
        with pytest.raises(ValidationError):
            emit_report(report, "yaml", tmp_path / "r.yaml")


class TestPerClientRows:
    def test_csv_header_matches_schema(self, sample_run, tmp_path):
        rows = per_client_rows("bass_greedy", sample_run)
        path = tmp_path / "rows.csv"
        write_rows_csv(rows, path)
        header = path.read_text(encoding="utf-8").splitlines()[0]
        assert header == ",".join(PER_CLIENT_COLUMNS)

    def test_row_count(self, sample_run, tmp_path):
        rows = list(per_client_rows("bass_greedy", sample_run))
        path = tmp_path / "rows.csv"
        write_rows_csv(rows, path)
        lines = path.read_text(encoding="utf-8").splitlines()
        assert len(lines) == 1 + len(rows)


def test_run_records_hold_no_instance_dict(sample_run):
    # A long run holds one of each per client-epoch; slots keep them compact.
    record = next(r for r in sample_run if r.assignments)
    for value in (record.clients[0], next(iter(record.assignments.values()))):
        assert not hasattr(value, "__dict__")


class TestRecordsRoundTrip:
    def test_save_load_identity(self, sample_run, tmp_path):
        path = tmp_path / "records.json"
        save_records("bass_greedy", sample_run, path)
        policy, loaded = load_records(path)
        assert policy == "bass_greedy"
        assert loaded == sample_run

    def test_summary_survives_round_trip(self, sample_run, tmp_path):
        path = tmp_path / "records.json"
        save_records("bass_greedy", sample_run, path)
        _, loaded = load_records(path)
        assert summarize("bass_greedy", loaded) == summarize("bass_greedy", sample_run)
