"""Built-in entries: integrity, round-trips, pins, and the sigma specialization."""

import contextlib
import hashlib
import io
import json
import subprocess
import sys

import pytest

from conftest import validation_for
from nilcoh import catalog as catalog_module
from nilcoh import cli
from nilcoh.catalog import CatalogEntry, CatalogError, catalog, get
from nilcoh.deform import frame_change
from nilcoh.dsl import parse, parse_gauss, pretty
from nilcoh.gauss import GaussRat
from nilcoh.scalar import _compile

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


def test_import_parses_nothing():
    # every command imports the catalog; a row is parsed when its entry is asked for
    script = "import nilcoh.dsl as dsl; dsl._Parser = None; import nilcoh.catalog"
    subprocess.run([sys.executable, "-c", script], check=True)


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


# Recorded from the hand-built entries the text table replaced.  The input
# digest of `validate @name` hashes dsl.pretty of the structure and, for a
# family, its A, B and omega, so a mistyped row of the table fails its pin.
_INPUT_DIGESTS = {
    "torus2": "33c38b17561fc2717b6d528bf35f812fee9249f166417381e35f601acc1a1619",
    "torus3": "ddaeb3d68fbce4dc93b9bb3c41fe84447334cc464c54da8cab3321d66bbcc9c3",
    "torus4": "f23239bd4581386b809bb7a9ebe925536e37bec317480e969169c457be3742ec",
    "iwasawa": "5e4dd11d908415a7b5546992ef4d0bd23169f93f1926acad9e0757718d5cc41a",
    "iwasawa_x_torus": "e4fe65b7a94acc8c373b0b2293ba33d6d757149430fad8d00b64362b975080a8",
    "example31": "f94f767e35941691c26afd0fbe37a185c97207ec2bd5838d397f122fa58c05c6",
    "example45": "e27e10e68fda0adf5d626e543f7636420b4b63234a5a02e4b859e7d2aebd7c2b",
    "nakamura_x_torus": "d481bc6e5c0cc89e72d2ddfea53bc831280d1f0ae61b342b4323c7d78758b995",
    "theorem51_family": "c12f218facb799703879e2bec2fc2dec26ca3b904b11b96634a586f32ba491fd",
    "section42_example": "baa27c810096803c71db4133cd3d8f91561fc89a94e28c87883ea548455fec76",
    "frolicher_example": "e7d6d9a7576267adf18b7229db99fe22501d1a0c0311ce1dac7de7a5ba76a2fe",
    "iwasawa_sigma_family": "8e747a720bfbdda5956739c734755b20c06957b35927db4cdfb3b08800e7d6f8",
}

_CATALOG_SHA256 = {
    "json": "586064d99d9986c876cb1ffac896b9930a8ec478c281285b5044e1fe3d5e7384",
    "table": "e500582b187bbfa115e672116e8eb2b5948adaf5026b910c42bbb2f6c4adeaa8",
}


def _stdout(*argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = cli.main(list(argv))
    assert rc == 0, argv
    return out.getvalue()


def test_every_entry_input_is_pinned():
    assert list(_INPUT_DIGESTS) == EXPECTED_ORDER
    for name, digest in _INPUT_DIGESTS.items():
        report = json.loads(_stdout("validate", f"@{name}"))
        assert report["input"]["digest"] == digest, name


@pytest.mark.parametrize("fmt", list(_CATALOG_SHA256))
def test_catalog_report_is_pinned(fmt):
    out = _stdout("catalog", "--format", fmt)
    assert hashlib.sha256(out.encode()).hexdigest() == _CATALOG_SHA256[fmt]


def test_sigma_row_keeps_its_shared_subexpressions():
    # each parameter, literal and let name of the row is one program node,
    # and no coefficient gains a multiplication by the wedge's sign
    coeffs = [c for _, c in get("iwasawa_sigma_family").spec.d_phi[2].items()]
    steps = [len(_compile(c.node)) for c in coeffs]
    assert all(s <= bound for s, bound in zip(steps, [79, 59, 68, 59, 58])), steps


def test_sigma_row_in_a_file_has_the_entry_digest(tmp_path):
    _, n, flag, equations, _ = catalog_module._ENTRIES["iwasawa_sigma_family"]
    path = tmp_path / "sigma.txt"
    path.write_text(f'algebra "iwasawa_sigma_family" dim {n}\n'
                    f"flag invariant_cohomology_is_manifold_cohomology {str(flag).lower()}\n"
                    f"{equations}\n")
    from_file = json.loads(_stdout("validate", str(path)))
    assert from_file["input"]["digest"] == _INPUT_DIGESTS["iwasawa_sigma_family"]
    from_entry = json.loads(_stdout("validate", "@iwasawa_sigma_family"))
    assert from_file["results"] == from_entry["results"]
