"""Tests for the serve-bench harness and its pinned smoke hash."""

import pytest

from repro.engine import available_backends
from repro.exceptions import CertificationError
from repro.service.bench import (
    SERVE_SMOKE_HASH,
    _strip_timing,
    check_smoke_hash,
    render_serve_report,
    run_serve_bench,
    serve_report_hash,
)

#: One tiny configuration shared by the non-smoke tests.
TINY = dict(
    num_stripes=8,
    num_shards=2,
    workers=2,
    ops=400,
    element_size=64,
    cache_stripes=2,
    queue_depth=32,
)


@pytest.fixture(scope="module")
def tiny_payload():
    return run_serve_bench(["HV"], 5, **TINY)


class TestHarness:
    def test_oracle_and_rebuild_verdicts(self, tiny_payload):
        (entry,) = tiny_payload["codes"]
        det = entry["deterministic"]
        assert det["oracle_match"] is True
        assert det["oracle_ledger_match"] is True
        assert det["rebuild_matches_healthy"] is True
        assert det["ok"] is True
        assert tiny_payload["all_ok"] is True

    def test_op_accounting(self, tiny_payload):
        (entry,) = tiny_payload["codes"]
        healthy = entry["deterministic"]["healthy"]
        assert sum(healthy["counts"].values()) == 400
        assert healthy["counts"]["fail"] == 0
        rebuild = entry["deterministic"]["rebuild_phase"]
        assert rebuild["counts"]["fail"] == 1
        assert rebuild["counts"]["rebuild"] == 1
        assert sum(rebuild["counts"].values()) == 402

    def test_timing_half_reports_latency_and_throughput(self, tiny_payload):
        (entry,) = tiny_payload["codes"]
        timing = entry["timing"]["healthy"]
        assert timing["ops_per_second"] > 0
        for kind in ("read", "write"):
            summary = timing["latency"][kind]
            assert summary["p50_us"] <= summary["p99_us"]
        assert len(entry["timing"]["rebuild_overlap"]) == 1

    def test_headline_run_appended(self):
        payload = run_serve_bench(["HV"], 5, headline_ops=200, **TINY)
        assert payload["headline"] is not None
        head = payload["headline"]["deterministic"]
        assert head["ok"] is True
        assert sum(head["healthy"]["counts"].values()) == 200

    def test_render(self, tiny_payload):
        text = render_serve_report(tiny_payload)
        assert "serve-bench" in text
        assert "HV" in text
        assert "report hash" in text
        assert "-> ok" in text


class TestReportHash:
    def test_hash_ignores_timing_subtrees(self, tiny_payload):
        import copy

        tampered = copy.deepcopy(tiny_payload)
        tampered["codes"][0]["timing"]["healthy"]["ops_per_second"] = 1e9
        assert serve_report_hash(tampered) == tiny_payload["report_hash"]

    def test_hash_sees_deterministic_drift(self, tiny_payload):
        import copy

        tampered = copy.deepcopy(tiny_payload)
        tampered["codes"][0]["deterministic"]["digest_healthy"] = "f00d"
        assert serve_report_hash(tampered) != tiny_payload["report_hash"]

    def test_strip_timing_recurses(self):
        nested = {
            "a": {"timing": {"x": 1}, "keep": 2},
            "b": [{"timing": 1, "c": 3}],
            "report_hash": "zz",
        }
        assert _strip_timing(nested) == {
            "a": {"keep": 2},
            "b": [{"c": 3}],
        }


class TestSmokePin:
    def test_smoke_matches_pin(self):
        payload = run_serve_bench(smoke=True)
        assert payload["all_ok"] is True
        assert payload["report_hash"] == SERVE_SMOKE_HASH
        check_smoke_hash(payload)  # must not raise

    def test_drift_detected(self):
        with pytest.raises(CertificationError):
            check_smoke_hash({"report_hash": "deadbeef"})


class TestEngineSelection:
    def test_engine_changes_only_the_compute_counters(self, tiny_payload):
        """The backend only changes who executes the parity math: served
        bytes, op counts, verdicts and disk I/O match vector's exactly.
        Only ``xor_words`` and ``kernel_invocations`` may differ, since
        each backend charges its own kernel shape."""
        if "native" not in available_backends():
            pytest.skip("no C compiler on this host")
        native = run_serve_bench(["HV"], 5, engine="native", **TINY)
        assert native["timing"]["engine"] == "native"

        def without_compute(payload):
            stripped = _strip_timing(payload)
            for entry in stripped["codes"]:
                det = entry["deterministic"]
                assert det["oracle_match"] is True
                for phase in ("healthy", "rebuild_phase"):
                    del det[phase]["io"]["xor_words"]
                    del det[phase]["io"]["kernel_invocations"]
            return stripped

        (vec_entry,) = tiny_payload["codes"]
        (nat_entry,) = native["codes"]
        assert (
            nat_entry["deterministic"]["digest_healthy"]
            == vec_entry["deterministic"]["digest_healthy"]
        )
        assert without_compute(native) == without_compute(tiny_payload)

    def test_smoke_rejects_a_non_default_engine(self):
        """The pinned smoke hash is a vector run; another engine must
        fail loudly rather than silently run vector."""
        from repro.exceptions import InvalidParameterError

        with pytest.raises(InvalidParameterError, match="smoke"):
            run_serve_bench(smoke=True, engine="auto")

    def test_unknown_engine_rejected(self):
        from repro.exceptions import InvalidParameterError

        with pytest.raises(InvalidParameterError):
            run_serve_bench(["HV"], 5, engine="abacus", **TINY)
