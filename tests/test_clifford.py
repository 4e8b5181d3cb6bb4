"""Gamma-algebra identities, basis completeness, and tensor embeddings."""

import inspect

import numpy as np
import pytest

from mtdirac import clifford, consistency, potential, solver, symmetry
from mtdirac.clifford import (
    ALGEBRA_TOL,
    MINKOWSKI_METRIC,
    PRODUCT_INDEX,
    PRODUCT_PHASE,
    BasisClass,
    BasisElement,
    anticommutator,
    anticommute,
    basis16,
    build_dirac_rep,
    build_weyl_rep,
    commutator,
    commutator_table,
    decompose,
    embed,
    frobenius,
    realize,
    reconstruct,
    single_matrix,
    square_sign,
    tensor_element,
    verify_clifford,
)
from oracles import conjugate_rep, dense_decompose

REPS = [build_dirac_rep(), build_weyl_rep()]


@pytest.mark.parametrize("rep", REPS, ids=lambda r: r.name)
def test_anticommutation_relations(rep):
    eye = np.eye(4)
    for mu in range(4):
        for nu in range(4):
            lhs = anticommutator(rep.gammas[mu], rep.gammas[nu])
            assert np.allclose(
                lhs, 2.0 * MINKOWSKI_METRIC[mu, nu] * eye, atol=ALGEBRA_TOL
            )


@pytest.mark.parametrize("rep", REPS, ids=lambda r: r.name)
def test_hermiticity_pattern(rep):
    assert np.allclose(rep.gammas[0], rep.gammas[0].conj().T, atol=ALGEBRA_TOL)
    for a in (1, 2, 3):
        assert np.allclose(rep.gammas[a], -rep.gammas[a].conj().T, atol=ALGEBRA_TOL)


@pytest.mark.parametrize("rep", REPS, ids=lambda r: r.name)
def test_gamma5_properties(rep):
    g5 = rep.gamma5
    assert np.allclose(g5, g5.conj().T, atol=ALGEBRA_TOL)
    assert np.allclose(g5 @ g5, np.eye(4), atol=ALGEBRA_TOL)
    for mu in range(4):
        assert frobenius(anticommutator(g5, rep.gammas[mu])) < ALGEBRA_TOL


@pytest.mark.parametrize("rep", REPS, ids=lambda r: r.name)
def test_alpha0_is_identity(rep):
    assert np.allclose(rep.alphas[0], np.eye(4), atol=ALGEBRA_TOL)


@pytest.mark.parametrize("rep", REPS, ids=lambda r: r.name)
def test_verify_clifford_reports_clean(rep):
    residuals = verify_clifford(rep)
    assert max(residuals.values()) < ALGEBRA_TOL


def test_traces_against_direct_oracle(dirac):
    # Oracle: tr(gamma^mu gamma^nu) computed by brute-force matrix products
    # must equal 4 g^{mu nu}; basis elements are traceless except alpha^0.
    for mu in range(4):
        for nu in range(4):
            tr = np.trace(dirac.gammas[mu] @ dirac.gammas[nu])
            assert abs(tr - 4.0 * MINKOWSKI_METRIC[mu, nu]) < 1e-12
    for element, mat in basis16(dirac):
        expected = 4.0 if element == BasisElement(BasisClass.ALPHA, 0) else 0.0
        assert abs(np.trace(mat) - expected) < 1e-12


def test_basis_gram_is_four_identity(dirac):
    basis = dirac.basis.reshape(16, 4, 4)
    gram = np.einsum("iab,jab->ij", basis.conj(), basis)
    assert np.allclose(gram, 4.0 * np.eye(16), atol=1e-12)


def test_commutator_table_all_residuals_vanish():
    for rep in REPS:
        rows = commutator_table(rep)
        assert len(rows) == 48
        worst = max(res for _, _, res in rows)
        assert worst < ALGEBRA_TOL


def test_commutator_spot_checks(dirac):
    # Frozen instances of the closed forms.
    a1 = dirac.alphas[1]
    assert np.allclose(commutator(a1, dirac.gammas[0]), -2.0 * dirac.gammas[1],
                       atol=1e-12)
    assert np.allclose(commutator(a1, dirac.gammas[2]), np.zeros((4, 4)),
                       atol=1e-12)
    assert np.allclose(commutator(a1, a1), np.zeros((4, 4)), atol=1e-12)
    # [alpha^1, alpha^2] = 2i gamma5 alpha^3 (eps_123 = +1), and multiplying
    # by gamma5 must reproduce [alpha^1, gamma5 alpha^2] = 2i alpha^3.
    lhs = commutator(a1, dirac.alphas[2])
    assert np.allclose(lhs, 2j * dirac.gamma5 @ dirac.alphas[3], atol=1e-12)
    lhs5 = commutator(a1, dirac.gamma5 @ dirac.alphas[2])
    assert np.allclose(lhs5, 2j * dirac.alphas[3], atol=1e-12)
    assert np.allclose(dirac.gamma5 @ lhs, lhs5, atol=1e-12)


def test_embed_places_factor_correctly(dirac):
    g0 = dirac.gammas[0]
    assert np.allclose(embed(g0, 1, 2), np.kron(g0, np.eye(4)), atol=1e-14)
    assert np.allclose(embed(g0, 2, 2), np.kron(np.eye(4), g0), atol=1e-14)
    # Embeddings of different particles commute.
    m1 = embed(dirac.gammas[1], 1, 2)
    m2 = embed(dirac.gamma5, 2, 2)
    assert frobenius(commutator(m1, m2)) < 1e-13


def test_embed_respects_products(dirac, rng):
    a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    b = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    assert np.allclose(embed(a @ b, 2, 2), embed(a, 2, 2) @ embed(b, 2, 2),
                       atol=1e-12)


def test_embed_rejects_bad_index(dirac):
    with pytest.raises(ValueError):
        embed(dirac.gammas[0], 3, 2)


def test_decompose_roundtrip_random(dirac, rng):
    for _ in range(10):
        m = rng.normal(size=(16, 16)) + 1j * rng.normal(size=(16, 16))
        coeffs = decompose(m, 2, dirac)
        assert len(coeffs) == 256
        back = reconstruct(coeffs, 2, dirac)
        assert frobenius(back - m) < 1e-12


@pytest.mark.parametrize("n_particles", [1, 2, 3])
def test_decompose_and_reconstruct_match_dense_oracle(n_particles, weyl, rng):
    dim = 4**n_particles
    m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    expected = dense_decompose(m, n_particles, weyl)
    coeffs = decompose(m, n_particles, weyl)
    assert list(coeffs) == list(expected)
    assert max(abs(coeffs[k] - expected[k]) for k in expected) < 1e-14
    assert frobenius(reconstruct(expected, n_particles, weyl) - m) < 1e-12


def test_reconstruct_rejects_wrong_factor_count(dirac):
    one_factor = tensor_element(BasisElement(BasisClass.GAMMA, 1))
    with pytest.raises(ValueError):
        reconstruct({one_factor: 1.0}, 2, dirac)


def test_decompose_single_particle(dirac, rng):
    m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    coeffs = decompose(m, 1, dirac)
    assert len(coeffs) == 16
    assert frobenius(reconstruct(coeffs, 1, dirac) - m) < 1e-13


def test_decompose_picks_out_basis_element(dirac):
    element = tensor_element(
        BasisElement(BasisClass.GAMMA, 1), BasisElement(BasisClass.G5ALPHA, 2)
    )
    coeffs = decompose(2.5 * realize(element, dirac), 2, dirac)
    assert abs(coeffs[element] - 2.5) < 1e-12
    others = [v for k, v in coeffs.items() if k != element]
    assert max(abs(v) for v in others) < 1e-12


def test_decompose_is_linear(dirac, rng):
    m1 = rng.normal(size=(16, 16)) + 1j * rng.normal(size=(16, 16))
    m2 = rng.normal(size=(16, 16)) + 1j * rng.normal(size=(16, 16))
    c1 = decompose(m1, 2, dirac)
    c2 = decompose(m2, 2, dirac)
    c12 = decompose(m1 + 2j * m2, 2, dirac)
    worst = max(abs(c12[k] - (c1[k] + 2j * c2[k])) for k in c12)
    assert worst < 1e-12


def test_conjugated_rep_keeps_identities(dirac, rng):
    h = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    h = h + h.conj().T
    w, v = np.linalg.eigh(h)
    rep = conjugate_rep(dirac, v)
    assert max(verify_clifford(rep).values()) < 1e-12


def _random_unitary_rep(dirac, rng):
    h = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    _, unitary = np.linalg.eigh(h + h.conj().T)
    return conjugate_rep(dirac, unitary)


def test_sign_table_does_not_depend_on_representation(dirac, rng):
    # B_i B_j = +-B_j B_i: the index table is symmetric, the phases agree
    # up to sign, and every element squares to +-1
    assert np.array_equal(PRODUCT_INDEX, PRODUCT_INDEX.T)
    assert np.all(np.isin(PRODUCT_PHASE / PRODUCT_PHASE.T, [1, -1]))
    assert set(np.diag(PRODUCT_PHASE)) <= {1, -1}
    # the signs read off the table are those of the matrices of any rep
    singles = [tensor_element(BasisElement(cls, mu))
               for cls in BasisClass for mu in range(4)]
    for rep in (build_weyl_rep(), _random_unitary_rep(dirac, rng)):
        basis = rep.basis.reshape(16, 4, 4)
        for a, ma in zip(singles, basis):
            for b, mb in zip(singles, basis):
                sign = -1.0 if anticommute(a, b) else 1.0
                assert frobenius(ma @ mb - sign * mb @ ma) < ALGEBRA_TOL
    # the table is the package's one copy, read-only and on no GammaRep
    assert not PRODUCT_INDEX.flags.writeable
    assert not PRODUCT_PHASE.flags.writeable
    assert not any(hasattr(dirac, name)
                   for name in ("product_index", "product_phase"))


@pytest.mark.parametrize("which", ["dirac", "weyl", "unitary conjugate"])
def test_product_table_holds_for_all_products(which, dirac, rng):
    rep = {"dirac": dirac, "weyl": build_weyl_rep(),
           "unitary conjugate": _random_unitary_rep(dirac, rng)}[which]
    basis = rep.basis.reshape(16, 4, 4)
    for i in range(16):
        for j in range(16):
            phase = PRODUCT_PHASE[i, j]
            assert phase in (1, -1, 1j, -1j)
            expected = phase * basis[PRODUCT_INDEX[i, j]]
            assert frobenius(basis[i] @ basis[j] - expected) < ALGEBRA_TOL


# Public functions whose numbers come from the product table alone, and
# public functions that form matrices.
_REP_FREE = (
    clifford.element_product, clifford.square_sign, clifford.anticommute,
    clifford.field_product, clifford.field_commutator,
    potential.hermitian_defect,
    consistency.check_consistency, consistency.curvature_operator,
    consistency.cc_residuals, symmetry.classify_gauge,
    symmetry.classify_interaction, symmetry.interaction_witness_hoho,
    symmetry.make_boost, symmetry.make_rotation, symmetry.poincare_residual)
_FORMS_MATRICES = (
    clifford.realize, clifford.reconstruct, clifford.decompose,
    clifford.verify_clifford, clifford.commutator_table,
    potential.evaluate_potential, consistency.zeroth_order_residual,
    consistency.derivative_coefficient_matrices)


def test_only_code_that_forms_matrices_takes_a_representation():
    for function in _REP_FREE:
        assert "rep" not in inspect.signature(function).parameters, \
            function.__qualname__
    for function in _FORMS_MATRICES:
        assert "rep" in inspect.signature(function).parameters, \
            function.__qualname__
    # symmetry forms no matrices: none of its public callables takes one
    for name, value in vars(symmetry).items():
        if callable(value) and not name.startswith("_"):
            try:
                parameters = inspect.signature(value).parameters
            except ValueError:  # a builtin without a signature
                continue
            assert "rep" not in parameters, name
    # the solver forms matrices in the Dirac representation only: none of
    # the public callables it defines takes one
    for name, value in vars(solver).items():
        if (callable(value) and not name.startswith("_")
                and value.__module__ == solver.__name__):
            assert "rep" not in inspect.signature(value).parameters, name


@pytest.mark.parametrize("rep", REPS, ids=lambda r: r.name)
def test_tensor_signs_match_matrices(rep, rng):
    singles = [BasisElement(cls, mu) for cls in BasisClass for mu in range(4)]
    elements = [tensor_element(*(singles[i] for i in rng.integers(16, size=2)))
                for _ in range(40)]
    eye = np.eye(16)
    for a in elements:
        ma = realize(a, rep)
        assert frobenius(ma @ ma - square_sign(a) * eye) < ALGEBRA_TOL
        assert frobenius(ma.conj().T - square_sign(a) * ma) < ALGEBRA_TOL
        for b in elements:
            mb = realize(b, rep)
            sign = -1.0 if anticommute(a, b) else 1.0
            assert frobenius(ma @ mb - sign * mb @ ma) < ALGEBRA_TOL


def test_single_matrix_identity_and_gamma5(dirac):
    assert np.allclose(
        single_matrix(BasisElement(BasisClass.ALPHA, 0), dirac), np.eye(4),
        atol=1e-14,
    )
    assert np.allclose(
        single_matrix(BasisElement(BasisClass.G5ALPHA, 0), dirac), dirac.gamma5,
        atol=1e-14,
    )
