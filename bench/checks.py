"""Correctness checks on nilcoh reports.

Every check tests a property the mathematics must have, or compares two
independent computations; none compares against a stored copy of an earlier
report.  Symplectic witnesses are re-checked with the small exterior algebra
below, which shares no code with nilcoh: a witness printed in the deformed
coframe eta is pulled back to the base coframe phi through
eta^i = phi^i + sum_j B_ij(t) phi^jbar and differentiated there with the
structure equations as the paper states them.

Each check function returns a list of error strings; an empty list passes.
"""

from __future__ import annotations

from fractions import Fraction

from workloads import gauss_text


# ---------------------------------------------------------------------------
# exact Gaussian rationals


class G:
    """a + b*i with a, b Fractions."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        self.re = Fraction(re)
        self.im = Fraction(im)

    def __add__(self, o):
        return G(self.re + o.re, self.im + o.im)

    def __sub__(self, o):
        return G(self.re - o.re, self.im - o.im)

    def __neg__(self):
        return G(-self.re, -self.im)

    def __mul__(self, o):
        return G(self.re * o.re - self.im * o.im, self.re * o.im + self.im * o.re)

    def scale(self, r):
        return G(self.re * r, self.im * r)

    def conj(self):
        return G(self.re, -self.im)

    def norm2(self):
        return self.re * self.re + self.im * self.im

    def __bool__(self):
        return bool(self.re or self.im)

    def __eq__(self, o):
        return self.re == o.re and self.im == o.im

    __hash__ = None


ONE = G(1)
I = G(0, 1)


def parse_coeff(text):
    """'3/4', '-i', '2*i', '1/2-1/3*i', '((1/2+i))' -> G."""
    s = text.strip()
    while s.startswith("(") and s.endswith(")"):
        s = s[1:-1].strip()
    if not s.endswith("i"):
        return G(Fraction(s))
    cut = max(s.rfind("+"), s.rfind("-"))
    re_text, im_text = (s[:cut], s[cut:]) if cut > 0 else ("", s)
    im_text = im_text[:-1].rstrip("*")
    if im_text in ("", "+", "-"):
        im_text += "1"
    return G(Fraction(re_text) if re_text else 0, Fraction(im_text))


# ---------------------------------------------------------------------------
# forms: {monomial: G}; a monomial is a sorted tuple of generators (barred, j)


def _normal(gens):
    """(sign, sorted monomial) of a wedge of generators; sign 0 on a repeat."""
    gens = list(gens)
    if len(set(gens)) < len(gens):
        return 0, ()
    sign = 1
    for i in range(len(gens)):
        for j in range(len(gens) - 1 - i):
            if gens[j] > gens[j + 1]:
                gens[j], gens[j + 1] = gens[j + 1], gens[j]
                sign = -sign
    return sign, tuple(gens)


def _add_term(out, mono, c):
    s = out.get(mono, G()) + c
    if s:
        out[mono] = s
    else:
        out.pop(mono, None)


def add(a, b):
    out = dict(a)
    for m, c in b.items():
        _add_term(out, m, c)
    return out


def wedge(a, b):
    out = {}
    for m1, c1 in a.items():
        for m2, c2 in b.items():
            sign, m = _normal(m1 + m2)
            if sign:
                _add_term(out, m, c1 * c2 if sign > 0 else -(c1 * c2))
    return out


def conj(a):
    out = {}
    for m, c in a.items():
        sign, mc = _normal((1 - bar, j) for bar, j in m)
        _add_term(out, mc, c.conj() if sign > 0 else -c.conj())
    return out


def scale(a, c):
    return {m: v * c for m, v in a.items() if v * c}


def gen(j, barred=0, c=ONE):
    return {((barred, j),): c}


ONE_FORM = {(): ONE}


def parse_form(text):
    """Parse a form as nilcoh prints it, e.g. 'f1^f3+(-3/4)*f4^F1-2*i*F2^F4'."""
    terms, depth, start = [], 0, 0
    for pos, ch in enumerate(text):
        depth += ch == "("
        depth -= ch == ")"
        if ch in "+-" and depth == 0 and pos > start and text[pos - 1] not in "*(":
            terms.append(text[start:pos])
            start = pos
    terms.append(text[start:])
    out = {}
    for term in terms:
        term = term.strip()
        if term in ("", "0"):
            continue
        sign = -1 if term.startswith("-") else 1
        term = term.lstrip("+-")
        coeff_text, _, mono_text = term.rpartition("*")
        if "f" not in mono_text and "F" not in mono_text:
            raise ValueError(f"no monomial in term {term!r}")
        c = parse_coeff(coeff_text) if coeff_text else ONE
        form = ONE_FORM
        for g in mono_text.split("^"):
            form = wedge(form, gen(int(g[1:]), barred=int(g[0] == "F")))
        for m, v in scale(form, c if sign > 0 else -c).items():
            _add_term(out, m, v)
    return out


class Structure:
    """Structure equations d(phi^j) in the base coframe."""

    def __init__(self, n, dphi):
        self.n = n
        self.dphi = [parse_form(x) if isinstance(x, str) else x for x in dphi]

    def d_gen(self, g):
        barred, j = g
        return conj(self.dphi[j - 1]) if barred else self.dphi[j - 1]

    def d(self, form):
        out = {}
        for m, c in form.items():
            for pos, g in enumerate(m):
                left = {m[:pos]: c if pos % 2 == 0 else -c}
                out = add(out, wedge(wedge(left, self.d_gen(g)), {m[pos + 1:]: ONE}))
        return out


def pull_back(form, n, B):
    """Rewrite a form in eta^i = phi^i + sum_j B[i][j] phi^jbar in phi."""
    eta = {}
    for i in range(n):
        e = gen(i + 1)
        for j in range(n):
            if B[i][j]:
                e = add(e, gen(j + 1, 1, B[i][j]))
        eta[(0, i + 1)] = e
        eta[(1, i + 1)] = conj(e)
    out = {}
    for m, c in form.items():
        term = {(): c}
        for g in m:
            term = wedge(term, eta[g])
        out = add(out, term)
    return out


# The structure equations of the paper's examples, and the frame
# deformations eta = phi + B(t) phibar of the one-parameter families.
BASE = {
    "example31": (4, ["0", "0", "f1^F1", "f1^f2"]),
    "example45": (4, ["0", "0", "f1^F1", "f1^f2"]),
    "theorem51_family": (4, ["0", "0", "f1^f2", "i*f1^F1+f1^F2+f2^F1"]),
    "section42_example": (4, ["0", "0", "f1^f2", "f1^f3"]),
    "frolicher_example": (4, ["0", "f1^F1", "f2^F1", "f3^F1"]),
}


def frame_b(family, t):
    B = [[G() for _ in range(4)] for _ in range(4)]
    if family == "example31":
        B[1][1] = t
    elif family == "example45":
        B[0][0] = t
    elif family == "theorem51_family":
        B[0][0], B[0][1] = t, -(I * t)
    elif family == "section42_example":
        B[2][0] = t
    return B


def iwasawa_x_torus(t11, t22):
    """Structure equations of the Iwasawa manifold times a torus at (t11, t22)."""
    n11, n22 = t11.norm2(), t22.norm2()
    c12 = G(-(1 - n11 * n22) / ((1 - n11) * (1 - n22)))
    d3 = add(add(scale(wedge(gen(1), gen(2)), c12),
                 scale(wedge(gen(1), gen(2, 1)), t22.scale(1 / (1 - n22)))),
             scale(wedge(gen(2), gen(1, 1)), -t11.scale(1 / (1 - n11))))
    return Structure(4, [{}, {}, d3, {}])


def witness_errors(label, text, structure, B=None):
    """A closed non-degenerate (2,0)-form: d-closed, nonzero top wedge power."""
    try:
        omega = parse_form(text)
    except (ValueError, ZeroDivisionError) as e:
        return [f"{label}: witness {text!r} does not parse: {e}"]
    n = structure.n
    errors = []
    if not omega or any(len(m) != 2 or any(b for b, _ in m) for m in omega):
        errors.append(f"{label}: witness {text!r} is not a nonzero (2,0)-form")
    flat = pull_back(omega, n, B) if B is not None else omega
    if structure.d(flat):
        errors.append(f"{label}: witness {text!r} is not d-closed")
    top = ONE_FORM
    for _ in range(n // 2):
        top = wedge(top, omega)
    if not top:
        errors.append(f"{label}: witness {text!r} has a vanishing top wedge power")
    return errors


# ---------------------------------------------------------------------------
# cohomology tables, Betti numbers, the Frolicher spectral sequence


def _cells(table):
    return {tuple(int(x) for x in k.strip("()").split(",")): v for k, v in table.items()}


def betti_errors(label, b):
    """b is the list b_0..b_2n of a nilmanifold."""
    top = len(b) - 1
    errors = []
    if b[0] != 1:
        errors.append(f"{label}: b_0 = {b[0]}, not 1")
    for k in range(top + 1):
        if b[k] != b[top - k]:
            errors.append(f"{label}: b_{k} = {b[k]} but b_{top - k} = {b[top - k]}")
    if sum((-1) ** k * x for k, x in enumerate(b)):
        errors.append(f"{label}: Euler characteristic of {b} is not 0")
    return errors


def table_errors(label, res):
    """All five tables of one `cohomology` report."""
    b = [res["de_rham"][str(k)] for k in range(len(res["de_rham"]))]
    n = (len(b) - 1) // 2
    h = {th: _cells(res[th]) for th in ("dolbeault", "del", "bott_chern", "aeppli")}
    errors = betti_errors(label, b)
    square = {(p, q) for p in range(n + 1) for q in range(n + 1)}
    for th, table in h.items():
        if set(table) != square:
            errors.append(f"{label}: {th} table does not cover the (p,q) square")
            return errors
    bc, a, dol, dl = h["bott_chern"], h["aeppli"], h["dolbeault"], h["del"]
    for p, q in sorted(square):
        if bc[(p, q)] != bc[(q, p)]:
            errors.append(f"{label}: h_BC^{p},{q} = {bc[(p, q)]} != h_BC^{q},{p} = {bc[(q, p)]}")
        if dol[(p, q)] != dl[(q, p)]:
            errors.append(f"{label}: h_dbar^{p},{q} = {dol[(p, q)]} != h_d^{q},{p} = {dl[(q, p)]}")
        if bc[(p, q)] != a[(n - p, n - q)]:
            errors.append(f"{label}: h_BC^{p},{q} = {bc[(p, q)]} != h_A^{n - p},{n - q}")
    for k in range(2 * n + 1):
        cells = [c for c in square if sum(c) == k]
        if sum(dol[c] for c in cells) < b[k]:
            errors.append(f"{label}: Frolicher inequality fails in degree {k}")
        if sum(bc[c] + a[c] for c in cells) < 2 * b[k]:
            errors.append(f"{label}: Angella-Tomassini inequality fails in degree {k}")
    return errors


def frolicher_errors(label, res, tables):
    """A `frolicher` report against the `cohomology` report of the same structure."""
    pages = {int(r): _cells(d) for r, d in res["pages"].items()}
    b = [res["betti"][str(k)] for k in range(len(res["betti"]))]
    e_inf = _cells(res["e_infinity"])
    errors = betti_errors(label, b)
    if b != [tables["de_rham"][str(k)] for k in range(len(b))]:
        errors.append(f"{label}: Betti numbers differ from the cohomology report")
    if pages.get(1) != _cells(tables["dolbeault"]):
        errors.append(f"{label}: page 1 differs from the Dolbeault table")
    last = res["degeneration_page"]
    if sorted(pages) != list(range(1, last + 1)):
        errors.append(f"{label}: pages {sorted(pages)} do not run 1..{last}")
        return errors
    for r in range(1, last):
        if any(pages[r + 1][c] > pages[r][c] for c in pages[r]):
            errors.append(f"{label}: a cell grows from page {r} to {r + 1}")

    def totals(cells):
        return [sum(d for c, d in cells.items() if sum(c) == k) for k in range(len(b))]

    if totals(e_inf) != b:
        errors.append(f"{label}: E_infinity totals {totals(e_inf)} != Betti {b}")
    if pages[last] != e_inf:
        errors.append(f"{label}: page {last} differs from E_infinity")
    if any(totals(pages[r]) == b for r in range(1, last)):
        errors.append(f"{label}: an earlier page than {last} already degenerates")
    return errors


def suite_and_bounds_errors(label, res, n, betti):
    """The --suite61 and --betti-bounds parts of a `symplectic` report, if present."""
    errors = []
    sym = res["symplectic"]
    if "wedge_class_suite" in res and sym["verdict"] == "exists":
        suite = res["wedge_class_suite"]
        if suite["witness"] != sym["witness"]:
            errors.append(f"{label}: the suite checked another witness")
        cells = suite["cells"].values()
        if (len(cells) != (n // 2 + 1) ** 2 or not suite["all_nontrivial"]
                or any(len(row) != 5 or set(row.values()) != {"nontrivial"} for row in cells)):
            errors.append(f"{label}: a wedge-power class is trivial or missing")
    if "betti_bounds" in res:
        bounds = res["betti_bounds"]
        for row in bounds["bounds"]:
            if betti is not None and row["betti"] != betti[row["degree"]]:
                errors.append(f"{label}: b_{row['degree']} = {row['betti']} differs along "
                              f"the family")
            if row["holds"] != (row["betti"] >= row["bound"]):
                errors.append(f"{label}: bound row {row} is misjudged")
        if bounds["all_hold"] == bounds["obstruction_fires"] or (
                sym["verdict"] == "exists" and not bounds["all_hold"]):
            errors.append(f"{label}: the even-Betti bounds fail or contradict the verdict")
    return errors


# ---------------------------------------------------------------------------
# sweeps


class CheckError(Exception):
    pass


def _rows(label, report, op):
    """Sample rows of a deform/hypotheses report, checked against the inputs."""
    rows = report["results"]["samples"]
    want = [{k: gauss_text(v) for k, v in a.items()} for a in op.meta["assigns"]]
    if [r["assign"] for r in rows] != want:
        raise CheckError(f"{label}: sample rows {[r['assign'] for r in rows]} != inputs {want}")
    return rows


def _groups(result):
    """{(theory, degree): dim} of a deform row's cohomology task list."""
    out = {}
    for g in result.get("cohomology", []):
        deg = g["degree"]
        out[(g["theory"], tuple(deg) if isinstance(deg, list) else deg)] = g["dim"]
        if len(g["representatives"]) != g["dim"]:
            raise CheckError(f"{g['theory']} {deg}: {g['dim']} != number of representatives")
    return out


def purefull_errors(label, pf, b2):
    errors = []
    if pf["betti"] != b2:
        errors.append(f"{label}: pure/full betti {pf['betti']} != b_2 = {b2}")
    if pf["full"] != (pf["sum_dim"] == pf["betti"]) or pf["sum_dim"] > pf["betti"]:
        errors.append(f"{label}: full = {pf['full']} but sum {pf['sum_dim']} of b_2 {b2}")
    if pf["pure"] != (pf["single_group_stage"] or pf["total_intersection_dim"] == 0):
        errors.append(f"{label}: pure verdict disagrees with the intersection")
    if pf["pure_and_full"] != (pf["pure"] and pf["full"]):
        errors.append(f"{label}: pure_and_full is not pure and full")
    for cell, d in pf["pure_type_subgroup_dims"].items():
        if d > b2 or len(pf["pure_type_subgroup_reps"][cell]) != d:
            errors.append(f"{label}: subgroup {cell} of dim {d} is inconsistent")
    return errors


def verdict_errors(label, sym, structure, B=None):
    """A symplectic verdict: a witness that re-checks, or a complete grid."""
    if sym["verdict"] == "exists":
        return witness_errors(label, sym["witness"], structure, B)
    if sym["verdict"] != "none":
        return [f"{label}: verdict {sym['verdict']!r}"]
    errors = []
    if sym["nondegeneracy_polynomial"] != "0":
        errors.append(f"{label}: verdict none with a nonzero polynomial")
    if sym["grid_certificate"]["points_checked"] != (structure.n // 2 + 1) ** sym["closed_20_dim"]:
        errors.append(f"{label}: the grid certificate skips points")
    return errors


def structure_at(family, assign):
    """(base structure, frame matrix B or None) of a family at a sample."""
    if family == "iwasawa_x_torus":
        return iwasawa_x_torus(G(*assign["t11"]), G(*assign["t22"])), None
    return Structure(*BASE[family]), frame_b(family, G(*assign["t"]))


# the paper's verdicts along each family: (symplectic exists?, h_BC^{2,0})
EXPECTED = {
    "example31": lambda t: (not t, 4 if not t else 3),
    "example45": lambda t: (True, 4),
    "theorem51_family": lambda t: (bool(t), None),
    "section42_example": lambda t: (True, None),
}


def family_sweep_errors(op, report):
    """One `deform` of a one-parameter family or of the Iwasawa-torus grid."""
    fam = op.meta["family"]
    label = f"deform @{fam}"
    rows = _rows(label, report, op)
    errors, b2s = [], set()
    for row, assign in zip(rows, op.meta["assigns"]):
        lab = f"{label} at {row['assign']}"
        if "error" in row:
            continue  # a failed sample: counted by the runner, not checked
        res = row["result"]
        if "validate" in res and not res["validate"]["ok"]:
            errors.append(f"{lab}: validation fails")
        dims = _groups(res)
        bc20, b2 = dims[("bott_chern", (2, 0))], dims.get(("de_rham", 2))
        if b2 is not None:
            b2s.add(b2)
        sym = res["symplectic"]
        if fam in EXPECTED:
            exists, want_bc20 = EXPECTED[fam](G(*assign["t"]))
            if (sym["verdict"] == "exists") != exists:
                errors.append(f"{lab}: verdict {sym['verdict']}, the paper says "
                              f"{'exists' if exists else 'none'}")
            if want_bc20 is not None and bc20 != want_bc20:
                errors.append(f"{lab}: h_BC^2,0 = {bc20}, the paper says {want_bc20}")
        if sym["closed_20_dim"] != bc20:
            errors.append(f"{lab}: closed (2,0) dim {sym['closed_20_dim']} != h_BC^2,0 {bc20}")
        errors += verdict_errors(lab, sym, *structure_at(fam, assign))
        if "purefull" in res:
            pf = res["purefull"][0]
            errors += purefull_errors(lab, pf, b2)
            if fam == "section42_example" and not pf["full"]:
                errors.append(f"{lab}: not full at stage 2")
    if len(b2s) > 1:
        errors.append(f"{label}: b_2 varies along the family: {sorted(b2s)}")
    return errors


def hypotheses_errors(op, report, deform_report):
    """`hypotheses` against the `deform` sweep over the same samples."""
    fam = op.meta["family"]
    label = f"hypotheses @{fam}"
    res = report["results"]
    rows = _rows(label, report, op)
    drows = deform_report["results"]["samples"]
    errors = witness_errors(f"{label} omega", res["omega"], Structure(*BASE[fam]))
    if not (res["omega_closed_at_zero"] and res["omega_nondegenerate_at_zero"]):
        errors.append(f"{label}: omega is reported degenerate or not closed")
    h20 = []
    for row, drow in zip(rows, drows):
        lab = f"{label} at {row['assign']}"
        if "error" in row or "error" in drow:
            continue
        dres = drow["result"]
        pf = dres["purefull"][0]
        h20.append(row["h20_bott_chern"])
        if row["h20_bott_chern"] != _groups(dres)[("bott_chern", (2, 0))]:
            errors.append(f"{lab}: h20 differs from the deform sweep")
        if row["full_at_stage_2"] != pf["full"]:
            errors.append(f"{lab}: stage-2 fullness differs from the deform sweep")
        sur = row["degree2_decomposition_surrogate"]
        if sur["pure_and_full_at_stage_2"] != pf["pure_and_full"]:
            errors.append(f"{lab}: pure-and-full differs from the deform sweep")
        if sur["passed"] != (sur["dimension_identity"] and sur["pure_and_full_at_stage_2"]):
            errors.append(f"{lab}: surrogate verdict is inconsistent")
    if res["h20_bott_chern_constant"] != (len(set(h20)) <= 1):
        errors.append(f"{label}: constancy verdict contradicts h20 = {h20}")
    return errors


def sigma_errors(op, report, iwasawa_tables, product_op, product_report):
    """The sigma family against @iwasawa, and by Kunneth against Iwasawa x torus."""
    b = [iwasawa_tables["de_rham"][str(k)] for k in range(len(iwasawa_tables["de_rham"]))]
    errors, sig_dims = [], {}
    for row in _rows("deform @iwasawa_sigma_family", report, op):
        lab = f"deform @iwasawa_sigma_family at {row['assign']}"
        if "error" in row:
            continue
        res = row["result"]
        if not res["validate"]["ok"]:
            errors.append(f"{lab}: validation fails")
        dims = _groups(res)
        a = row["assign"]
        sig_dims[(a["t11"], a["t12"], a["t21"], a["t22"])] = dims
        for k in (1, 2):
            if dims[("de_rham", k)] != b[k]:
                errors.append(f"{lab}: b_{k} = {dims[('de_rham', k)]}, @iwasawa has {b[k]}")
        if dims[("bott_chern", (1, 0))] != dims[("bott_chern", (0, 1))]:
            errors.append(f"{lab}: h_BC^1,0 != h_BC^0,1")
    for row in _rows("deform @iwasawa_x_torus", product_report, product_op):
        lab = f"deform @iwasawa_x_torus at {row['assign']}"
        x = sig_dims.get((row["assign"]["t11"], "0", "0", row["assign"]["t22"]))
        if "error" in row or x is None:
            continue
        dims = _groups(row["result"])
        want_b2 = x[("de_rham", 2)] + 2 * x[("de_rham", 1)] + 1
        want_bc11 = (x[("bott_chern", (1, 1))] + x[("bott_chern", (1, 0))]
                     + x[("bott_chern", (0, 1))] + 1)
        if dims[("de_rham", 2)] != want_b2:
            errors.append(f"{lab}: b_2 = {dims[('de_rham', 2)]}, Kunneth gives {want_b2}")
        if dims[("bott_chern", (1, 1))] != want_bc11:
            errors.append(f"{lab}: h_BC^1,1 = {dims[('bott_chern', (1, 1))]}, "
                          f"Kunneth gives {want_bc11}")
    return errors


# ---------------------------------------------------------------------------
# per round


def _op_errors(op, rep, by_key, ops_by_key):
    """Checks of one command; reports of other commands are looked up by key."""
    res = rep["results"]
    if op.key == "cohomology31":
        errors = table_errors("cohomology @example31 (deformed)", res)
        if res["bott_chern"]["2,0"] != 3:
            errors.append("cohomology @example31: h_BC^2,0 != 3 at t != 0")
        return errors
    if op.key in ("cohomology_frolicher", "cohomology_iwasawa"):
        return table_errors(f"cohomology {op.argv[1]}", res)
    if op.kind == "frolicher":
        tables = by_key.get(op.meta["tables"])
        if tables is None:
            return []
        return frolicher_errors(f"frolicher {op.argv[1]}", res, tables["results"])
    if op.kind == "symplectic":
        label = f"symplectic {op.argv[1]}"
        fam, sym = op.meta["family"], res["symplectic"]
        assign = {k: op.meta[k] for k in ("t", "t11", "t22") if k in op.meta}
        structure, B = structure_at(fam, assign)
        errors = verdict_errors(label, sym, structure, B)
        if fam in EXPECTED:
            exists, want_bc20 = EXPECTED[fam](G(*assign["t"]))
            if (sym["verdict"] == "exists") != exists:
                errors.append(f"{label}: verdict {sym['verdict']}, the paper says "
                              f"{'exists' if exists else 'none'}")
            if want_bc20 is not None and sym["closed_20_dim"] != want_bc20:
                errors.append(f"{label}: h_BC^2,0 = {sym['closed_20_dim']}, "
                              f"the paper says {want_bc20}")
        # example31 and example45 deform one nilmanifold: one set of Betti numbers
        deformed = by_key.get("cohomology31")
        betti = None if deformed is None else {
            int(k): v for k, v in deformed["results"]["de_rham"].items()}
        return errors + suite_and_bounds_errors(label, res, structure.n, betti)
    if op.key == "deform:iwasawa_sigma_family":
        tables, product = by_key.get("cohomology_iwasawa"), by_key.get("deform:iwasawa_x_torus")
        if tables is None or product is None:
            return []
        return sigma_errors(op, rep, tables["results"],
                            ops_by_key["deform:iwasawa_x_torus"], product)
    if op.kind == "deform" and op.meta["family"] != "iwasawa_sigma_family":
        if op.meta["family"] == "iwasawa_x_torus" and "--samples" in op.argv:
            return []  # the Kunneth partner of the sigma sweep, checked there
        return family_sweep_errors(op, rep)
    if op.kind == "hypotheses":
        partner = by_key.get(f"deform:{op.meta['family']}")
        return [] if partner is None else hypotheses_errors(op, rep, partner)
    return [f"{op.key}: no check for this command"]


def round_errors(ops, reports):
    """All checks of one round; reports[i] is None where ops[i] failed."""
    by_key = {op.key: r for op, r in zip(ops, reports) if r is not None}
    ops_by_key = {op.key: op for op in ops}
    errors = []
    for op, rep in zip(ops, reports):
        if rep is None:
            continue
        try:
            errors += _op_errors(op, rep, by_key, ops_by_key)
        except CheckError as e:
            errors.append(str(e))
        except (KeyError, IndexError, TypeError, ValueError, ZeroDivisionError) as e:
            errors.append(f"{op.key}: malformed report: {type(e).__name__}: {e}")
    return errors
