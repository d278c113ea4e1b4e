"""Noiseless structures (S = 0): one rule, `StructureSet.noiseless`, decides
"no noise" in every module, and the real axis takes the general path.

A = diag(1, 0) is written two ways, with no A_j and with one zero A_j; both
must behave alike, at beta = 1 and 2. The limit law is the atoms 1 and 0 with
weight 1/2 each, so m, U and (-m)^{-1} have closed forms.
"""

import json

import numpy as np
import pytest

from kronldp import make_structure, structure_to_dict
from kronldp import mde
from kronldp.outlier import largest_outlier
from kronldp.rate import DegenerateModelError, rate_function

from test_cli import read_csv, run_cli

SPELLINGS = {"no-A": [], "zero-A": [np.zeros((2, 2))]}


@pytest.fixture(scope="module", params=[(s, b) for b in (1, 2) for s in SPELLINGS],
                ids=lambda p: f"{p[0]}-beta{p[1]}")
def atoms(request):
    spelling, beta = request.param
    return make_structure(np.diag([1.0, 0.0]), SPELLINGS[spelling], beta=beta)


def test_noiseless_edges_are_the_atoms(atoms):
    assert atoms.noiseless
    assert mde.right_edge(atoms).r_inf == 1.0
    assert mde.left_edge(atoms) == 0.0


def test_noiseless_has_no_rate_and_no_outlier(atoms):
    with pytest.raises(DegenerateModelError):
        rate_function(atoms, 2.0)
    assert largest_outlier(atoms, 1.0, np.eye(2) / 2).Z == 1.0


def test_noiseless_log_potential(atoms):
    # left of r_inf = 1 is inside the support, as for every structure
    with pytest.raises(mde.DomainError):
        mde.log_potential(atoms, 0.5)
    assert abs(mde.log_potential(atoms, 3.0) - (np.log(3.0) + np.log(2.0)) / 2) <= 1e-14


@pytest.mark.parametrize("q", [0.1, 1.0, 10.0])
def test_noiseless_inverse_neg_m(atoms, q):
    # (1/t + 1/(t - 1))/2 = q: 2 q t^2 - 2 (q + 1) t + 1 = 0, larger root
    want = (q + 1.0 + np.sqrt(q * q + 1.0)) / (2.0 * q)
    assert abs(mde.inverse_neg_stieltjes(atoms, q) - want) <= 1e-13


def test_noiseless_density_writes_a_header_only(tmp_path, atoms):
    # both spellings, one body: the header, and no Lorentzian tails of the atoms
    doc = {"command": "density", "seed": 1, "structure": structure_to_dict(atoms)}
    code, out = run_cli(tmp_path, doc)
    assert code == 0
    header, body = read_csv(out / "density.csv")
    assert header == ["x", "density", "cell_mass"] and body == []
    assert json.loads((out / "support.json").read_text())["r_inf"] == 1.0


def test_noiseless_is_exact():
    # tiny noise is noise: the rule is S = 0, with no threshold
    assert not make_structure(np.diag([1.0, 0.0]), [1e-9 * np.eye(2)]).noiseless
    assert make_structure([[0.0]], [[[0.0]]]).noiseless
