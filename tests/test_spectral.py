"""Block-matrix eigenspectra: closed forms, the LAPACK solver and the Jacobi oracle."""

import json

import numpy as np
import pytest

from hypstruct import hierarchy as hi
from hypstruct import spectral as sp
from hypstruct.errors import DegenerateRow, NonFiniteMatrix, NotALeaf, NotSymmetric

from jacobi_oracle import jacobi_eigenvalues
from test_hierarchy import brute_force_lca_height

# Unequal leaf depths: a1 and c1 at depth 2, x and y at 3, b at 1.
UNEVEN_TREE = json.dumps({"name": "root", "children": [
    {"name": "a", "children": [
        {"name": "a1"},
        {"name": "a2", "children": [{"name": "x"}, {"name": "y"}]}]},
    {"name": "b"},
    {"name": "c", "children": [{"name": "c1"}]}]})


def oracle_spectrum(K):
    return sp.EigenSpectrum.from_values(jacobi_eigenvalues(K))


def block_matrix(counts, r):
    return sp.build_block_matrix(hi.balanced_tree(counts), r)


def assert_same_spectrum(got, want, tol):
    assert got.multiplicities == want.multiplicities
    np.testing.assert_allclose(got.values, want.values, rtol=0, atol=tol)


@pytest.mark.parametrize("counts,r", [((1, 2, 4, 8), (0.9, 0.5, 0.2)),
                                      ((1, 3, 9, 27), (0.8, 0.4, 0.1))])
def test_closed_form_oracle_and_solver_agree(counts, r):
    K = block_matrix(counts, r)
    closed = sp.balanced_eigenvalues_closed_form(list(reversed(counts)), r)
    oracle = oracle_spectrum(K)
    solver = sp.numerical_eigenvalues(K)
    assert_same_spectrum(oracle, closed, 1e-10)
    assert_same_spectrum(solver, closed, 1e-10)
    assert_same_spectrum(solver, oracle, 1e-10)


def test_solver_matches_closed_form_at_n_200():
    counts, r = (1, 4, 20, 200), (0.8, 0.5, 0.2)
    closed = sp.balanced_eigenvalues_closed_form(list(reversed(counts)), r)
    solver = sp.numerical_eigenvalues(block_matrix(counts, r))
    assert closed.multiplicities == (1, 3, 16, 180)
    assert_same_spectrum(solver, closed, 1e-10)


@pytest.mark.parametrize("d,p", [(5, 0.3), (4, -0.2), (3, 0.0)])
def test_star_matrix_eigenvalues(d, p):
    # the first reduction: one constant-correlation block has eigenvalues
    # 1 + p(d-1) once and 1 - p (d-1) times
    K = np.full((d, d), p)
    np.fill_diagonal(K, 1.0)
    star = sp.EigenSpectrum.from_values([1.0 + p * (d - 1)] + [1.0 - p] * (d - 1))
    assert_same_spectrum(star, oracle_spectrum(K), 1e-12)
    assert_same_spectrum(sp.numerical_eigenvalues(K), star, 1e-12)
    if p >= 0:
        # a star is the one-level balanced tree
        assert_same_spectrum(sp.balanced_eigenvalues_closed_form((d, 1), (p,)), star, 1e-12)


def test_two_level_block_reduction_supplies_the_spectrum():
    sizes, within = (2, 3, 4), (0.6, 0.5, 0.7)
    across = np.array([[0.0, 0.2, 0.1], [0.2, 0.0, 0.3], [0.1, 0.3, 0.0]])
    starts = np.cumsum((0,) + sizes)
    K = np.empty((9, 9))
    for i in range(3):
        for j in range(3):
            K[starts[i]:starts[i + 1], starts[j]:starts[j + 1]] = (
                within[i] if i == j else across[i, j])
    np.fill_diagonal(K, 1.0)
    # the second reduction: 1 - r_ii (p_i - 1 times) plus the spectrum of A,
    # a_ii = 1 + (p_i - 1) r_ii and a_ij = sqrt(p_i p_j) r_ij
    within_eigs = np.concatenate([np.full(p - 1, 1.0 - w) for p, w in zip(sizes, within)])
    A = np.diag([1.0 + (p - 1) * w for p, w in zip(sizes, within)])
    for i, j in zip(*np.triu_indices(3, 1)):
        A[i, j] = A[j, i] = np.sqrt(sizes[i] * sizes[j]) * across[i, j]
    assert sorted(within_eigs) == pytest.approx([0.3] * 3 + [0.4] + [0.5] * 2)
    combined = np.sort(np.concatenate([within_eigs, jacobi_eigenvalues(A)]))
    np.testing.assert_allclose(combined, np.sort(jacobi_eigenvalues(K)), rtol=0, atol=1e-12)
    np.testing.assert_allclose(combined, sp.numerical_eigenvalues(K).expand()[::-1],
                               rtol=0, atol=1e-12)


def test_phase_transition_detect():
    spectrum = sp.EigenSpectrum((10.0, 5.0, 1.0), (1, 2, 3))
    assert sp.phase_transition_detect(spectrum, top_k=5) == [(3, 0.8), (1, 0.5)]
    assert sp.phase_transition_detect(spectrum, top_k=2) == [(1, 0.5)]
    assert sp.phase_transition_detect(spectrum, top_k=100) == [(3, 0.8), (1, 0.5)]
    with pytest.raises(ValueError):
        sp.phase_transition_detect(sp.EigenSpectrum((1.0,), (1,)), top_k=1)


def test_solver_rejects_non_square_and_asymmetric_input():
    with pytest.raises(NotSymmetric):
        sp.numerical_eigenvalues(np.zeros((2, 3)))
    with pytest.raises(NotSymmetric):
        sp.numerical_eigenvalues(np.zeros(4))
    K = np.eye(3)
    K[0, 1] = 1e-6
    with pytest.raises(NotSymmetric):
        sp.numerical_eigenvalues(K)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_solver_rejects_non_finite_entries(bad):
    K = np.eye(2)
    K[0, 1] = K[1, 0] = bad
    with pytest.raises(NonFiniteMatrix):
        sp.numerical_eigenvalues(K)


@pytest.mark.parametrize("tree", [hi.balanced_tree((1, 2, 4, 8)), hi.parse_tree(UNEVEN_TREE)],
                         ids=["balanced", "uneven"])
def test_leaf_lca_heights_match_pairwise_queries(tree):
    H = tree.leaf_lca_heights()
    leaves = [tree.leaf_of_class(k) for k in range(tree.n_classes)]
    assert H.shape == (len(leaves), len(leaves))
    for i, u in enumerate(leaves):
        for j, v in enumerate(leaves):
            assert H[i, j] == tree.lca_height(u, v) == brute_force_lca_height(tree, u, v)


def test_block_matrix_on_uneven_tree():
    tree = hi.parse_tree(UNEVEN_TREE)
    r = (0.9, 0.6, 0.3)
    K = sp.build_block_matrix(tree, r)
    leaves = [tree.leaf_of_class(k) for k in range(tree.n_classes)]
    want = np.array([[1.0 if u == v else r[tree.lca_height(u, v) - 1] for v in leaves]
                     for u in leaves])
    assert np.array_equal(K, want)
    # rising or negative values break the closed form's preconditions
    for bad in ((0.3, 0.6, 0.9), (0.9, 0.6, -0.3)):
        with pytest.warns(UserWarning, match="preconditions"):
            sp.build_block_matrix(tree, bad)


def test_lca_height_broadcasts_over_leaf_arrays():
    tree = hi.parse_tree(UNEVEN_TREE)
    leaves = np.array([tree.id_of(name) for name in ("a1", "x", "b")])
    got = tree.lca_height(leaves, tree.id_of("y"))
    assert got.tolist() == [2, 1, 3]
    assert isinstance(tree.lca_height(tree.id_of("x"), tree.id_of("y")), int)
    with pytest.raises(NotALeaf):
        tree.lca_height(np.array([tree.id_of("x"), tree.id_of("a")]), tree.id_of("y"))


def gram_inputs(n_per_class, dim, seed):
    """Shuffled labels on the (1, 2, 4) tree and features off the origin, so
    both the class sort and the centring change the result."""
    tree = hi.balanced_tree((1, 2, 4))
    rng = np.random.default_rng(seed)
    labels = rng.permutation(np.repeat(np.arange(tree.n_classes), n_per_class))
    return tree, 3.0 + rng.standard_normal((labels.size, dim)), labels


def test_gram_matrix_is_the_cosine_of_mean_centred_rows_in_class_order():
    tree, Z, labels = gram_inputs(3, 5, seed=4)
    K = sp.gram_matrix(Z, labels, tree)
    order = sp.class_sorted_order(labels, tree)
    keys = list(zip(tree.coarse_labels(labels[order]), labels[order], order))
    assert keys == sorted(keys)
    centred = Z - Z.mean(axis=0)
    for a, i in enumerate(order):
        for b, j in enumerate(order):
            u, v = centred[i], centred[j]
            cosine = u @ v / (np.linalg.norm(u) * np.linalg.norm(v))
            assert K[a, b] == pytest.approx(cosine, rel=0, abs=1e-12)
    assert np.all(np.abs(np.diag(K) - 1.0) <= 4 * np.finfo(np.float64).eps)


@pytest.mark.parametrize("n_per_class, dim", [(125, 16), (2, 3)])
def test_gram_matrix_equals_its_transpose_bit_for_bit(n_per_class, dim):
    # the precondition of the mirrored gram.csv writer
    tree, Z, labels = gram_inputs(n_per_class, dim, seed=dim)
    K = sp.gram_matrix(Z, labels, tree)
    assert K.shape == (4 * n_per_class,) * 2
    assert np.array_equal(K.view(np.uint64), K.T.view(np.uint64))


def test_gram_matrix_rejects_a_row_at_the_mean():
    Z = np.array([[1.0, 2.0], [3.0, 4.0], [2.0, 3.0]])
    with pytest.raises(DegenerateRow):
        sp.gram_matrix(Z, np.array([0, 1, 2]), hi.balanced_tree((1, 2, 4)))
