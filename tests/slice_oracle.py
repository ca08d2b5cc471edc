"""Full-enumeration slice elimination, kept as a test oracle.

`full_slice` echelonizes every degree-m monomial, supported on a component
or not, against the weighted order by exact `Fraction` elimination, for any
monomial parametrization; the engine decides the same standard monomials by
a union-find on the supported ones.  `substitution_matrix`
builds the substitution matrix from the parametrization terms, for rank
and pivot checks by an independent linear-algebra package.
"""

from fractions import Fraction

from gitcurves.monomials import degree_monomials


def full_slice(config, m, order):
    """(monomials, standard flags, certificates) over all degree-m monomials.

    There is one certificate `(j, tail)` per initial monomial, indexed into
    the monomial list: `tail` holds the coefficients over smaller standard
    monomials k, so the row

        x^{a(j)} - sum_k coeff[k] * x^{a(k)}

    lies in the ideal and has leading term x^{a(j)}.
    """
    par = config.parametrization
    comp_data = []
    offset = 0
    for cm in par.maps:
        table = {t.coord: (t.s_exp, t.coeff) for t in cm.terms}
        comp_data.append((table, offset))
        offset += m * cm.degree + 1

    monos = order.sorted_ascending(list(degree_monomials(par.num_coordinates, m)))

    def column(mono):
        col = {}
        support = [i for i, e in enumerate(mono) if e]
        for table, off in comp_data:
            if any(i not in table for i in support):
                continue
            alpha = 0
            coeff = Fraction(1)
            for i in support:
                s_exp, c = table[i]
                alpha += s_exp * mono[i]
                coeff *= c ** mono[i]
            row = off + alpha
            val = col.get(row, Fraction(0)) + coeff
            if val:
                col[row] = val
            else:
                col.pop(row, None)
        return col

    pivots = {}
    pivot_expr = {}
    standard = []
    certificates = []
    for j, mono in enumerate(monos):
        col = column(mono)
        expr = {j: Fraction(1)}
        while col:
            r = min(col)
            if r not in pivots:
                break
            f = col.pop(r)
            for rr, v in pivots[r].items():
                if rr == r:
                    continue
                nv = col.get(rr, Fraction(0)) - f * v
                if nv:
                    col[rr] = nv
                else:
                    col.pop(rr, None)
            for k, v in pivot_expr[r].items():
                nv = expr.get(k, Fraction(0)) - f * v
                if nv:
                    expr[k] = nv
                else:
                    expr.pop(k, None)
        if col:
            r = min(col)
            lead = col[r]
            pivots[r] = {rr: v / lead for rr, v in col.items()}
            pivot_expr[r] = {k: v / lead for k, v in expr.items()}
            standard.append(True)
        else:
            standard.append(False)
            tail = tuple((k, -v) for k, v in sorted(expr.items()) if k != j)
            certificates.append((j, tail))
    return tuple(monos), tuple(standard), tuple(certificates)


def substitution_matrix(config, m, monos):
    """Rows of the substitution map on the given degree-m monomials.

    One row per (component, s^a t^b) with a + b = m * degree, one column per
    monomial; entry = coefficient of s^a t^b in the monomial's restriction.
    """
    par = config.parametrization
    rows = []
    for cm in par.maps:
        terms = {t.coord: t for t in cm.terms}
        for a in range(m * cm.degree + 1):
            row = []
            for mono in monos:
                support = [i for i, e in enumerate(mono) if e]
                if any(i not in terms for i in support):
                    row.append(Fraction(0))
                    continue
                s_exp = sum(terms[i].s_exp * mono[i] for i in support)
                coeff = Fraction(1)
                for i in support:
                    coeff *= terms[i].coeff ** mono[i]
                row.append(coeff if s_exp == a else Fraction(0))
            rows.append(row)
    return rows
