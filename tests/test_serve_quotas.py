"""Per-tenant quotas: spec parsing, the ledger, and exhaustion reports."""

import pytest

from repro.obs.resources import ResourceUsage
from repro.serve.quotas import (
    QuotaExceeded,
    QuotaLedger,
    TenantBudget,
    parse_quota_spec,
)


class TestParseQuotaSpec:
    def test_full_spec(self):
        budgets = parse_quota_spec("alice=1.5:100000")
        assert budgets == {
            "alice": TenantBudget(cpu_seconds=1.5, rows_touched=100000)
        }

    def test_cpu_only(self):
        assert parse_quota_spec("bob=2.0") == {
            "bob": TenantBudget(cpu_seconds=2.0, rows_touched=None)
        }

    def test_rows_only(self):
        assert parse_quota_spec("carol=:50000") == {
            "carol": TenantBudget(cpu_seconds=None, rows_touched=50000)
        }

    def test_multiple_tenants_with_whitespace(self):
        budgets = parse_quota_spec(" alice=1:10 , bob=2.5 ,")
        assert set(budgets) == {"alice", "bob"}
        assert budgets["alice"].rows_touched == 10

    def test_missing_equals(self):
        with pytest.raises(ValueError, match="bad quota spec"):
            parse_quota_spec("alice")

    def test_non_numeric_limit(self):
        with pytest.raises(ValueError, match="non-numeric"):
            parse_quota_spec("alice=lots")


def usage(cpu=0.0, rows=0):
    return ResourceUsage(cpu_seconds=cpu, rows_touched=rows)


class TestQuotaLedger:
    def test_unbudgeted_tenant_never_blocked(self):
        ledger = QuotaLedger()
        ledger.charge("anyone", usage(cpu=1e9, rows=10**12))
        ledger.check("anyone")  # no budget, no enforcement

    def test_usage_accumulates(self):
        ledger = QuotaLedger()
        ledger.charge("t", usage(cpu=0.75, rows=100))
        ledger.charge("t", usage(cpu=0.5, rows=50))
        report = ledger.report("t")
        assert report["budget"]["cpu_seconds"]["used"] == pytest.approx(1.25)
        assert report["budget"]["rows_touched"]["used"] == 150

    def test_rows_axis_enforced(self):
        ledger = QuotaLedger({"t": TenantBudget(rows_touched=100)})
        ledger.charge("t", usage(rows=99))
        ledger.check("t")
        ledger.charge("t", usage(rows=1))
        with pytest.raises(QuotaExceeded) as info:
            ledger.check("t")
        assert "rows_touched" in str(info.value)
        assert info.value.tenant == "t"

    def test_report_carried_on_error(self):
        ledger = QuotaLedger({"t": TenantBudget(cpu_seconds=0.1)})
        ledger.charge("t", usage(cpu=0.2))
        with pytest.raises(QuotaExceeded) as info:
            ledger.check("t")
        axis = info.value.report["budget"]["cpu_seconds"]
        assert axis["exhausted"] is True
        assert axis["limit"] == 0.1
        assert axis["remaining"] == 0.0

    def test_default_budget_fallback(self):
        ledger = QuotaLedger(
            budgets={"vip": TenantBudget()},
            default_budget=TenantBudget(rows_touched=10),
        )
        ledger.charge("vip", usage(rows=1000))
        ledger.check("vip")  # explicit unlimited entry wins
        ledger.charge("pleb", usage(rows=1000))
        with pytest.raises(QuotaExceeded):
            ledger.check("pleb")

    def test_report_shape_for_unlimited(self):
        report = QuotaLedger().report("t")
        assert report["tenant"] == "t"
        for axis in report["budget"].values():
            assert axis["limit"] is None
            assert axis["remaining"] is None
            assert axis["exhausted"] is False

    def test_snapshot_covers_budgeted_and_seen(self):
        ledger = QuotaLedger({"configured": TenantBudget(cpu_seconds=1)})
        ledger.charge("walkin", usage(cpu=0.1))
        snap = ledger.snapshot()
        assert set(snap) == {"configured", "walkin"}
