"""The golden suite evaluates each distinct slice once."""

from gitcurves import engine
from gitcurves.paperchecks import run_paper_check


def test_each_distinct_slice_evaluated_once(monkeypatch):
    calls = []
    sparse_monomials = engine._sparse_monomials

    def counted(par, m):
        calls.append(m)
        return sparse_monomials(par, m)

    monkeypatch.setattr(engine, "_sparse_monomials", counted)
    manifest = run_paper_check()
    assert manifest["passed"] and manifest["checks"] == 41
    # open rosaries 5 x (m = 2, 3), closed r = 4, 6 and broken r = 3, 5
    # x (m = 2, 3), and m = 4 for closed r = 4 and broken r = 3
    assert len(calls) == 20

