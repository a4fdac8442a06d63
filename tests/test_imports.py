"""What the package loads: no layer of its own, and the modules each command imports."""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import qskein
from qskein import suites
from qskein.chebyshev import ChebyshevForm, Polynomial
from qskein.dimensions import Marked3ManifoldDescriptor, SurfaceDescriptor
from qskein.quantum_torus import Triangulation, once_punctured_torus
from qskein.suites import CheckResult
from qskein.torus_skein import S1S2Element

SRC = str(Path(qskein.__file__).resolve().parents[1])

LAYERS = (
    "chebyshev",
    "dimensions",
    "linear",
    "oq_sl2",
    "quantum_torus",
    "scalars",
    "torus_skein",
)

# Runs in a fresh interpreter: imports qskein.cli, runs one command with its
# report discarded, and prints the modules each step added.
_PROBE = """
import contextlib, io, json, sys
argv = json.loads(sys.argv[1])
start = set(sys.modules)
import qskein.cli
imported = set(sys.modules) - start
with contextlib.redirect_stdout(io.StringIO()):
    rc = qskein.cli.main(argv) if argv else 0
ran = set(sys.modules) - start
print(json.dumps({"rc": rc, "imported": sorted(imported), "ran": sorted(ran)}))
"""


def probe(argv):
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", _PROBE, json.dumps(argv)],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path},
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_cli_import_loads_no_layer_and_no_dataclasses():
    result = probe([])
    loaded = {m for m in result["imported"] if m.startswith("qskein")}
    assert loaded == {"qskein", "qskein.cli", "qskein.suites"}
    assert "dataclasses" not in result["imported"]


@pytest.mark.parametrize(
    "argv, wanted, unwanted",
    [
        (["verify", "chebyshev", "--N", "3"], {"chebyshev"},
         {"scalars", "oq_sl2", "quantum_torus"}),
        (["verify", "bigon", "--N", "3"], {"oq_sl2", "scalars", "dimensions"},
         {"quantum_torus", "chebyshev", "torus_skein"}),
        (["verify", "qtorus", "--N", "3"], {"quantum_torus", "scalars"},
         {"oq_sl2", "chebyshev"}),
        (["verify", "torus-skein", "--N", "3"], {"torus_skein", "chebyshev"},
         {"scalars", "oq_sl2", "quantum_torus"}),
        (["verify", "counts", "--N", "3"], {"dimensions", "linear"},
         set(LAYERS) - {"dimensions", "linear"}),
        (["dims", "surface", "--genus", "1", "--punctures", "1", "--boundary", "0",
          "--N", "5"], {"dimensions", "linear"}, set(LAYERS) - {"dimensions", "linear"}),
    ],
    ids=["chebyshev", "bigon", "qtorus", "torus-skein", "counts", "dims"],
)
def test_command_loads_only_its_layers(argv, wanted, unwanted):
    result = probe(argv)
    assert result["rc"] == 0
    layers = {m.removeprefix("qskein.") for m in result["ran"] if m.startswith("qskein.")}
    assert wanted <= layers
    assert not layers & unwanted
    assert "dataclasses" not in result["ran"]
    # a verify command loads its own suite's module and no other suite's
    own = {f"suites.{argv[1].replace('-', '_')}"} if argv[0] == "verify" else set()
    assert {m for m in layers if m.startswith("suites.")} == own


def test_builders_resolve_to_their_suite_modules():
    for suite in ("bigon", "qtorus", "torus_skein", "chebyshev", "counts"):
        module = importlib.import_module(f"qskein.suites.{suite}")
        assert getattr(suites, f"{suite}_suite") is getattr(module, f"{suite}_suite")
    with pytest.raises(AttributeError, match="no_such_suite"):
        suites.no_such_suite


# -- the package itself ------------------------------------------------------------


def test_unknown_name_is_refused_by_name():
    """The package holds no layer's names: each is imported from its layer."""
    with pytest.raises(AttributeError, match="no_such_name"):
        qskein.no_such_name
    with pytest.raises(ImportError, match="no_such_name"):
        exec("from qskein import no_such_name", {})
    with pytest.raises(ImportError, match="OqAlgebra"):
        exec("from qskein import OqAlgebra", {})


# -- records -----------------------------------------------------------------------


@pytest.mark.parametrize(
    "make, message",
    [
        (lambda: SurfaceDescriptor(-1, 0, 0), "surface data must be nonnegative"),
        (lambda: SurfaceDescriptor(0, 0, -1), "surface data must be nonnegative"),
        (lambda: Marked3ManifoldDescriptor(0, -1), "manifold data must be nonnegative"),
        (lambda: S1S2Element(4, 1, ()), "order must be odd and positive, got 4"),
        (lambda: S1S2Element(3, 0, ((2, 1),)), "index 2 is not admissible at order 3"),
        (lambda: S1S2Element(3, 0, ((1, 1), (1, 2))), "duplicate index"),
        (lambda: S1S2Element(3, 0, ((1, 0),)), "zero coefficients must be dropped"),
        (lambda: S1S2Element(3, 0, ((4, 1), (1, 1))), "indices must be sorted"),
        (lambda: Triangulation(0, (), ()), "at least one edge"),
        (lambda: Triangulation(1, ((0, 0, 0),), ()), "fan lengths"),
    ],
)
def test_validated_records_refuse_bad_input(make, message):
    with pytest.raises(ValueError, match=message):
        make()


@pytest.mark.parametrize(
    "edit, error, message",
    [
        (lambda: SurfaceDescriptor(0, 0, 2)._replace(genus=-5),
         ValueError, "surface data must be nonnegative"),
        (lambda: SurfaceDescriptor._make((0, True, 2)), TypeError, "expected an integer"),
        (lambda: Marked3ManifoldDescriptor(1, 2)._replace(markings=-1),
         ValueError, "manifold data must be nonnegative"),
        (lambda: Marked3ManifoldDescriptor._make((1.0, 2)), TypeError, "expected an integer"),
        (lambda: once_punctured_torus()._replace(edge_count=0), ValueError, "at least one edge"),
        (lambda: Triangulation._make((1, ((0, 0, 0),), ())), ValueError, "fan lengths"),
        (lambda: S1S2Element(3, 0, ())._replace(order=4, e_coeffs=((1, 0),)),
         ValueError, "order must be odd and positive, got 4"),
        (lambda: S1S2Element._make((3, 0, ((2, 1),))),
         ValueError, "index 2 is not admissible at order 3"),
        (lambda: ChebyshevForm(1, (Polynomial.x(),))._replace(order=2),
         ValueError, "order 2 needs 2 columns, got 1"),
        (lambda: ChebyshevForm._make((2, (Polynomial.x(), 1))),
         TypeError, "expected a Polynomial, got int 1"),
    ],
    ids=["surface-replace", "surface-make", "manifold-replace", "manifold-make",
         "triangulation-replace", "triangulation-make", "s1s2-replace", "s1s2-make",
         "chebyshev-form-replace", "chebyshev-form-make"],
)
def test_record_make_and_replace_validate(edit, error, message):
    with pytest.raises(error, match=message):
        edit()


def test_record_make_and_replace_keep_valid_records():
    s = SurfaceDescriptor(0, 0, 2)._replace(genus=1)
    assert type(s) is SurfaceDescriptor and s == (1, 0, 2)
    assert Marked3ManifoldDescriptor._make([2, 1]) == Marked3ManifoldDescriptor(2, 1)
    tri = once_punctured_torus()
    assert tri._replace(fans=tri.fans) == tri
    e = S1S2Element(3, 0, ())._replace(e_coeffs=((1, 2),))
    assert type(e) is S1S2Element and e.coefficient(1) == 2


def test_records_keep_keywords_repr_and_immutability():
    s = SurfaceDescriptor(genus=1, punctures=2, boundary=0)
    assert s == SurfaceDescriptor(1, 2, 0)
    assert repr(s) == "SurfaceDescriptor(genus=1, punctures=2, boundary=0)"
    assert repr(Marked3ManifoldDescriptor(2, 1)) == "Marked3ManifoldDescriptor(genus=2, markings=1)"
    assert repr(CheckResult("x", "pass", "ok", 1.5)) == (
        "CheckResult(id='x', status='pass', detail='ok', elapsed_ms=1.5)"
    )
    with pytest.raises(AttributeError):
        s.genus = 2
