"""Full-enumeration slice elimination and per-component candidates, kept as
test oracles.

`full_slice` echelonizes every degree-m monomial, supported on a component
or not, against the weighted order by exact `Fraction` elimination, for any
monomial parametrization; the engine decides the same standard monomials by
a union-find on the supported ones.  `substitution_matrix`
builds the substitution matrix from the parametrization terms, for rank
and pivot checks by an independent linear-algebra package.

`candidates` runs the candidate dynamic program once per component, where
`engine._candidates` runs it once per component shape.  `supported_keys`,
`supported_monomials` and `sparse_monomials` list the supported monomials
of a slice, which the engine never lists.
"""

from fractions import Fraction
from itertools import chain

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


def holders(par):
    """Each coordinate's (component, s exponent) pairs, the oracle's input to
    `candidates`."""
    held = {}
    for k, cm in enumerate(par.maps):
        for t in cm.terms:
            held.setdefault(t.coord, []).append((k, t.s_exp))
    return held


def _key_table(cm, m, order):
    """A component's terms in coordinate order, and the key table
    T[p][j] = w_j * S - coord_j * n^(m-1-p) over them: a monomial whose
    coordinates are the terms j_0 <= ... <= j_{m-1} has the key
    S - 1 + sum(T[p][j_p] for p)."""
    n = order.nvars
    base = n**m
    w = order.weights.weights
    terms = sorted(cm.terms, key=lambda t: t.coord)
    parts = [(w[t.coord] * base, t.coord) for t in terms]
    places = [n ** (m - 1 - p) for p in range(m)]
    return terms, [[wt - q * place for wt, q in parts] for place in places]


def sequence_sums(table, start):
    """start + sum(table[p][j_p] for p) for every j_0 <= ... <= j_{m-1}, where
    m = len(table), in the order `combinations_with_replacement` yields them.

    Built from the last position back: chunk j of a position holds the sums
    of the sequences that start there with index j, so each sum costs one
    addition."""
    chunks = [[start + t] for t in table[-1]]
    for row in reversed(table[:-1]):
        chunks = [[t + s for s in chain.from_iterable(chunks[j:])] for j, t in enumerate(row)]
    return chain.from_iterable(chunks)


def supported_keys(sl):
    """Ascending keys of the degree-m monomials supported on some component
    of the slice's parametrization; every other monomial is initial."""
    keys = set()
    for cm in sl.parametrization.maps:
        _, table = _key_table(cm, sl.degree, sl.order)
        keys.update(sequence_sums(table, sl.order.nvars**sl.degree - 1))
    return tuple(sorted(keys))


def supported_monomials(sl):
    """Exponent vectors of `supported_keys`."""
    return tuple(map(sl._dense, supported_keys(sl)))


def sparse_monomials(sl):
    """The nonzero (coord, exp) pairs of each of `supported_monomials`."""
    return tuple(
        tuple((c, e) for c, e in enumerate(mono) if e) for mono in supported_monomials(sl)
    )


def candidates(par, m, order, holders):
    """(key, a, -1) for the least supported half-edge at each row a, and
    (key, a, b) for the least edge on each pair of rows a < b.

    `holders` maps each coordinate to its (component, s exponent) pairs.  A
    monomial whose coordinates all lie on component k and on one other
    component c is an edge; any other monomial on k is a half-edge at row
    offset_k + s-sum.  Only these candidates can be standard: a later
    half-edge at the same row meets a class that already holds a half-edge,
    and a later edge on the same rows finds both classes full or the rows in
    one class with opposite parity; a dependent element changes nothing.

    For each component a dynamic program over its terms in coordinate order, from
    the last term and position back, keeps the least partial key (the sum of
    T[p'][j_p'] over p' >= p) per state of the sequences at positions p..
    with indices >= j: `free` maps the row on k to it for the half-edges, and
    `pure[c]` maps (row on k) * span + (row on c), where span is the number
    of rows, to it for the sequences whose coordinates all lie on c too.
    Edges are read off their lower component.
    """
    offsets = []
    span = 0  # the number of rows
    for cm in par.maps:
        offsets.append(span)
        span += m * cm.degree + 1
    top = order.nvars**m - 1
    out = []
    for k, cm in enumerate(par.maps):
        terms, table = _key_table(cm, m, order)
        # tables[p] covers the positions p.. with indices >= the current j
        tables = [({}, {}) for _ in range(m)]
        for j in range(len(terms) - 1, -1, -1):
            te = terms[j].s_exp
            held = holders[terms[j].coord]
            c, ce = held[-1] if held[0][0] == k else held[0]  # c == k: on k only
            shift = te * span + ce
            t = table[m - 1][j]
            free, pure = tables[m - 1]
            if c == k:
                dst, code = free, offsets[k] + te
            else:
                dst, code = pure.setdefault(c, {}), (offsets[k] + te) * span + offsets[c] + ce
            if t < dst.get(code, t + 1):
                dst[code] = t
            for p in range(m - 2, -1, -1):
                t = table[p][j]
                free, pure = tables[p]
                src_free, src_pure = tables[p + 1]
                for a, v in src_free.items():
                    a += te
                    v += t
                    if v < free.get(a, v + 1):
                        free[a] = v
                for cc, src in src_pure.items():
                    if cc == c:
                        dst = pure.setdefault(c, {})
                        for code, v in src.items():
                            code += shift
                            v += t
                            if v < dst.get(code, v + 1):
                                dst[code] = v
                    else:
                        for code, v in src.items():
                            a = code // span + te
                            v += t
                            if v < free.get(a, v + 1):
                                free[a] = v
        free, pure = tables[0]
        out += [(top + v, a, -1) for a, v in free.items()]
        for c, codes in pure.items():
            if c > k:
                out += [(top + v, code // span, code % span) for code, v in codes.items()]
    return out
