"""Discrete atoms in a config are read atom by atom, plain JSON numbers and
float subclasses alike, and a ConfigError names the first bad atom."""

import numpy as np
import pytest

from remenu import ConfigError, CostFunctional, DiscreteTypes, ScenarioConfig

N = 2000
BAD = 1234
TOO_LARGE = "must be a finite number, got an integer too large for a float"


def plain_atoms(n=N, seed=3):
    rng = np.random.default_rng(seed)
    w = rng.dirichlet(np.ones(n))
    k_atoms = np.c_[rng.uniform(5000, 25000, n), w / w.sum()].tolist()
    k_atoms[7] = [12000, k_atoms[7][1]]  # a JSON integer
    return k_atoms, rng.uniform(0.03, 0.15, n).tolist()


def build(k_atoms, alphas):
    types = {"variant": "discrete", "k_dist": {"atoms": k_atoms}, "alpha_dist": {"atoms": alphas}}
    return ScenarioConfig(CostFunctional(0.1), {}, types).build_dist()


def test_plain_atoms_match_the_triples():
    k_atoms, alphas = plain_atoms()
    got = build(k_atoms, alphas)
    want = DiscreteTypes([(float(al), float(k), float(w)) for (k, w), al in zip(k_atoms, alphas)])
    for name in ("alphas", "ks", "weights", "a_vals"):
        assert getattr(got, name).tobytes() == getattr(want, name).tobytes()
        assert getattr(got, name).flags.c_contiguous


def test_numbers_that_are_not_plain_are_read_atom_by_atom():
    k_atoms, alphas = plain_atoms()
    mixed = [[np.float64(k), w] for k, w in k_atoms]  # float subclasses: accepted, one by one
    assert build(mixed, alphas).a_vals.tobytes() == build(k_atoms, alphas).a_vals.tobytes()


def test_large_integers_round_as_float_does():
    k_atoms, alphas = plain_atoms()
    k_atoms[3][0] = 2**60 + 3
    assert build(k_atoms, alphas).ks[3] == float(2**60 + 3)


@pytest.mark.parametrize(
    "where, value, named",
    [
        ("k", True, f"types.k_dist.atoms[{BAD}][0] must be a number, got True"),
        ("k", "5000", f"types.k_dist.atoms[{BAD}][0] must be a number, got '5000'"),
        ("k", None, f"types.k_dist.atoms[{BAD}][0] is required"),
        ("k", 10**400, f"types.k_dist.atoms[{BAD}][0] {TOO_LARGE}"),
        ("w", False, f"types.k_dist.atoms[{BAD}][1] must be a number, got False"),
        ("w", 10**400, f"types.k_dist.atoms[{BAD}][1] {TOO_LARGE}"),
        ("pair", [5000.0], f"types.k_dist.atoms[{BAD}] must be [k, weight]"),
        ("pair", [5000.0, 0.5, 1.0], f"types.k_dist.atoms[{BAD}] must be [k, weight]"),
        ("pair", (5000.0, 0.5), f"types.k_dist.atoms[{BAD}] must be [k, weight]"),
        ("alpha", True, f"types.alpha_dist.atoms[{BAD}] must be a number, got True"),
        ("alpha", None, f"types.alpha_dist.atoms[{BAD}] is required"),
        ("alpha", 10**400, f"types.alpha_dist.atoms[{BAD}] {TOO_LARGE}"),
    ],
)
def test_a_bad_atom_deep_in_the_list_is_named(where, value, named):
    k_atoms, alphas = plain_atoms()
    if where == "k":
        k_atoms[BAD][0] = value
    elif where == "w":
        k_atoms[BAD][1] = value
    elif where == "pair":
        k_atoms[BAD] = value
    else:
        alphas[BAD] = value
    with pytest.raises(ConfigError) as info:
        build(k_atoms, alphas)
    assert str(info.value) == named


def test_the_first_bad_atom_is_named():
    k_atoms, alphas = plain_atoms()
    alphas[BAD + 1] = "0.1"
    k_atoms[BAD][1] = None
    with pytest.raises(ConfigError, match=rf"types\.k_dist\.atoms\[{BAD}\]\[1\] is required"):
        build(k_atoms, alphas)
