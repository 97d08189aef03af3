"""Finite groups and the integral module catalog."""

import pytest

from ecomu3.groups import (GroupModule, resolve_module_name, standard_modules,
                           symmetric_group, trivial_module)
from ecomu3.linalg import IntMatrix

from cohomology_oracle import cyclic_group, invariants_rank


def test_symmetric_groups():
    assert symmetric_group(1).order == 1
    assert symmetric_group(2).order == 2
    s3 = symmetric_group(3)
    assert s3.order == 6
    assert len(s3.generators) == 2
    assert symmetric_group(4).order == 24
    with pytest.raises(ValueError):
        symmetric_group(7)


def test_conjugacy_classes():
    s3 = symmetric_group(3)
    sizes = sorted(len(c) for c in s3.conjugacy_classes())
    assert sizes == [1, 2, 3]


def test_catalog_matches_fixed_matrices(catalog):
    s3 = symmetric_group(3)
    sigma, tau = s3.generators
    ms = catalog["standard(x)sign"]
    assert ms.action_matrix(sigma).to_lists() == [[0, -1], [1, -1]]
    assert ms.action_matrix(tau).to_lists() == [[0, -1], [-1, 0]]
    mm = catalog["standard(x)standard"]
    assert mm.action_matrix(sigma).to_lists() == [
        [0, 0, 0, 1], [0, 0, -1, 1], [0, -1, 0, 1], [1, -1, -1, 1]]
    assert mm.action_matrix(tau).to_lists() == [
        [0, 0, 0, 1], [0, 0, 1, 0], [0, 1, 0, 0], [1, 0, 0, 0]]
    # sign: transposition acts by -1, the 3-cycle by +1
    assert catalog["sign"].action_matrix(tau)[0, 0] == -1
    assert catalog["sign"].action_matrix(sigma)[0, 0] == 1


def test_homomorphism_verified_over_full_table(catalog):
    for mod in catalog.values():
        mod.verify_homomorphism()
    # and a corrupted action is caught
    s3 = symmetric_group(3)
    sigma, tau = s3.generators
    with pytest.raises(ValueError):
        GroupModule(s3, 2, {sigma: IntMatrix.from_rows([[0, -1], [1, -1]]),
                            tau: IntMatrix.from_rows([[1, 1], [0, 1]])})


def test_catalog_shared_and_read_only(catalog):
    assert standard_modules(3) is catalog
    with pytest.raises(TypeError):
        catalog["trivial"] = catalog["sign"]
    assert sorted(catalog) == ["sign", "standard", "standard(x)sign",
                               "standard(x)standard", "trivial"]


def test_catalog_verifies_each_module_once(monkeypatch):
    verified = []
    original = GroupModule.verify_homomorphism

    def counting(self):
        verified.append(self.name)
        return original(self)

    monkeypatch.setattr(GroupModule, "verify_homomorphism", counting)
    standard_modules.__wrapped__(3)      # a fresh build, past the shared one
    assert sorted(verified) == ["sign", "standard", "standard(x)sign",
                                "standard(x)standard", "trivial"]


def test_characters(catalog):
    # classes ordered (identity, transpositions, 3-cycles)
    assert catalog["trivial"].character() == [1, 1, 1]
    assert catalog["sign"].character() == [1, -1, 1]
    assert catalog["standard"].character() == [2, 0, -1]
    assert catalog["standard(x)sign"].character() == [2, 0, -1]
    assert catalog["standard(x)standard"].character() == [4, 0, 1]


def test_invariants(catalog):
    assert invariants_rank(catalog["trivial"]) == 1
    assert invariants_rank(catalog["standard"]) == 0
    assert invariants_rank(catalog["sign"]) == 0
    assert invariants_rank(catalog["standard(x)standard"]) == 1
    assert invariants_rank(catalog["standard(x)sign"]) == 0


def test_tensor_and_sum(catalog):
    s = catalog["sign"]
    assert s.tensor(s).character() == [1, 1, 1]


def test_module_name_aliases():
    assert resolve_module_name("standard⊗sign") == "standard(x)sign"
    assert resolve_module_name("Trivial") == "trivial"
    with pytest.raises(KeyError):
        resolve_module_name("nonsense")


def test_cyclic_group():
    c2 = cyclic_group(2)
    assert c2.order == 2
    assert trivial_module(c2).rank == 1
