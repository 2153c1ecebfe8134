"""Built-in entries: integrity, round-trips, and the sigma specialization."""

import pytest

from conftest import validation_for
from nilcoh.catalog import CatalogEntry, CatalogError, catalog, get
from nilcoh.deform import frame_change
from nilcoh.dsl import parse, parse_gauss, pretty
from nilcoh.gauss import GaussRat

EXPECTED_ORDER = [
    "torus2",
    "torus3",
    "torus4",
    "iwasawa",
    "iwasawa_x_torus",
    "example31",
    "example45",
    "nakamura_x_torus",
    "theorem51_family",
    "section42_example",
    "frolicher_example",
    "iwasawa_sigma_family",
]


def test_listing_order_and_freshness():
    names = [e.name for e in catalog()]
    assert names == EXPECTED_ORDER
    assert [get(name).name for name in names] == names
    a, b = catalog(), catalog()
    assert a is not b and a[0] is not b[0]


def test_get_unknown_name_lists_known_entries():
    with pytest.raises(CatalogError, match="no catalog entry named 'nope'"):
        get("nope")
    with pytest.raises(CatalogError, match="iwasawa_sigma_family"):
        get("nope")


def test_get_builds_only_the_named_entry(monkeypatch):
    built = []
    init = CatalogEntry.__init__

    def counting_init(self, *args, **kw):
        built.append(args[0])
        init(self, *args, **kw)

    monkeypatch.setattr(CatalogEntry, "__init__", counting_init)
    assert get("torus2").name == "torus2"
    assert built == ["torus2"]
    with pytest.raises(CatalogError):
        get("nope")
    assert built == ["torus2"]


def test_every_entry_validates():
    for e in catalog():
        report = validation_for(e.name)
        assert report.ok, e.name
        assert not report.integrability_failures
        assert not report.d2_failures


def test_source_round_trips():
    for e in catalog():
        spec = e.spec
        again = parse(pretty(spec))
        for j in range(1, spec.n + 1):
            assert (
                again.d_gen(j, False) - spec.d_gen(j, False)
            ).is_zero(), (e.name, j)


def test_as_dict_shapes():
    d31 = get("example31").as_dict()
    assert d31 == {
        "name": "example31",
        "summary": d31["summary"],
        "dimension": 4,
        "parameters": [],
        "has_deformation_family": True,
        "unverified": False,
        "family_parameters": ["t"],
        "distinguished_two_zero_form": "f1^f2+f1^f3+f1^f4+f2^f4",
    }
    dsig = get("iwasawa_sigma_family").as_dict()
    assert dsig["unverified"] is True
    assert dsig["parameters"] == ["t11", "t12", "t21", "t22"]
    assert dsig["has_deformation_family"] is False
    assert [e.unverified for e in catalog()].count(True) == 1


def test_family_at_zero_is_base():
    for e in catalog():
        if e.family is None:
            continue
        zero = {p: GaussRat(0) for p in e.family.params}
        spec = frame_change(e.family, zero)
        base = e.spec
        if base.params:
            base = base.evaluate({p: GaussRat(0) for p in base.params})
        for j in range(1, base.n + 1):
            assert (spec.d_gen(j, False) - base.d_gen(j, False)).is_zero()


SIGMA_DIAGONAL_SAMPLES = [
    ("0", "0", "-f1^f2"),
    ("1/2", "0", "(-4/3)*f1^f2+(-2/3)*f2^F1"),
    ("0", "i/2", "(-4/3)*f1^f2+(2/3*i)*f1^F2"),
    ("1/2", "(1+i)/3", "(-34/21)*f1^f2+(3/7+3/7*i)*f1^F2+(-2/3)*f2^F1"),
    ("i/2", "i/2", "(-5/3)*f1^f2+(2/3*i)*f1^F2+(-2/3*i)*f2^F1"),
]


@pytest.mark.parametrize("t11,t22,expected", SIGMA_DIAGONAL_SAMPLES)
def test_sigma_specializes_to_the_diagonal_family(t11, t22, expected):
    """With the off-diagonal parameters at zero the four-parameter entry
    reproduces the two-parameter one coefficient-for-coefficient."""
    sigma = get("iwasawa_sigma_family").spec
    diag = get("iwasawa_x_torus").spec
    a, b = parse_gauss(t11), parse_gauss(t22)
    zero = GaussRat(0)
    s = sigma.evaluate({"t11": a, "t12": zero, "t21": zero, "t22": b})
    d = diag.evaluate({"t11": a, "t22": b})
    for j in range(1, 4):
        assert (s.d_gen(j, False) - d.d_gen(j, False)).is_zero()
    assert str(s.d_gen(3, False)) == expected
