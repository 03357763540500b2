"""Tests for the verify suite's own bookkeeping."""

from f2moduli import moduli, reference, verify


def test_golden_half_tables_names_the_first_failing_table(monkeypatch):
    f2, q = dict(reference.F2_HALF), dict(reference.Q_HALF)
    f2[2] = (*f2[2][:-1], f2[2][-1] + 1)
    q[4] = (*q[4][:-1], q[4][-1] + 1)
    monkeypatch.setattr(reference, "F2_HALF", f2)
    monkeypatch.setattr(reference, "Q_HALF", q)
    checks, _ = verify.run_checks(6)
    name, ok, detail = checks[0]
    assert (name, ok) == ("golden-half-tables", False)
    assert detail.startswith("F2 g=2: ")


def test_run_checks_builds_profiles_only_for_the_bundles(monkeypatch):
    # the half-space bookkeeping of genus 1-40 reads int rows; the only
    # MapProfiles left are those of the genus-1/2 bundles and small splits
    built = []
    check = moduli.MapProfile.__post_init__
    monkeypatch.setattr(moduli.MapProfile, "__post_init__", lambda p: built.append(check(p)))
    checks, _ = verify.run_checks(40)
    assert all(ok for _, ok, _ in checks)
    assert 0 < len(built) <= 400
