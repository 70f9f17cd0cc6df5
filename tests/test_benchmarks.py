import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spsla

from phmor import validate_structure
from phmor.benchmarks import (
    MassSpringSpec,
    OseenSpec,
    mass_spring_chain,
    mass_spring_chain_b2,
    mass_spring_chain_sparse,
    mixed_chain,
    oseen_grid,
    oseen_grid_sparse,
    random_ph_index1,
)
from phmor.linalg import LinAlgContractError

from oracles import constraint_blocks


class TestMassSpringChain:
    def test_dimensions(self):
        part = mass_spring_chain(MassSpringSpec(k=5))
        assert part.parent.n == 11
        assert part.n1 == 10 and part.n2 == 1

    def test_structure_valid(self):
        part = mass_spring_chain(MassSpringSpec(k=8))
        assert validate_structure(part.parent).passed
        assert part.b2_zero

    def test_sparse_matches_dense(self):
        # the dense chain is the dense copy of the sparse assembly
        for k in (2, 6, 50):
            spec = MassSpringSpec(k=k)
            part = mass_spring_chain(spec)
            sparse = mass_spring_chain_sparse(spec)
            assert all(sp.issparse(getattr(sparse, name)) for name in "EJR")
            for name in "EJRBPSN":
                M = getattr(sparse, name)
                assert np.array_equal(M.toarray() if sp.issparse(M) else M,
                                      getattr(part.parent, name))
            assert part.n1 == spec.n1 == 2 * k

    def test_b2_variant(self):
        part = mass_spring_chain_b2(MassSpringSpec(k=5), amplitude=2.0)
        assert not part.b2_zero
        assert part.B2[0, 0] == pytest.approx(2.0)
        assert validate_structure(part.parent).passed

    def test_spec_validation(self):
        with pytest.raises(LinAlgContractError):
            MassSpringSpec(k=1)


class TestOseen:
    def test_dimensions_small(self):
        spec = OseenSpec(n_grid=4)
        assert spec.n_velocity == 2 * 3 * 4
        assert spec.n_pressure == 15
        part = oseen_grid(spec)
        assert part.n1 == spec.n_velocity and part.n2 == spec.n_pressure

    def test_structure_valid(self):
        part = oseen_grid(OseenSpec(n_grid=5))
        assert validate_structure(part.parent).passed
        assert part.b2_zero

    def test_dissipation_definite_on_velocities(self):
        part = oseen_grid(OseenSpec(n_grid=4))
        w = np.linalg.eigvalsh(part.R11)
        assert w.min() > 0

    def test_sparse_matches_dense(self):
        spec = OseenSpec(n_grid=4)
        part = oseen_grid(spec)
        sparse = oseen_grid_sparse(spec)
        for name in "EJR":
            assert np.array_equal(getattr(sparse, name).toarray(), getattr(part.parent, name))
        assert part.n1 == spec.n_velocity

    def test_constraint_full_rank(self):
        part = oseen_grid(OseenSpec(n_grid=4))
        M = constraint_blocks(part)[1]
        assert np.linalg.matrix_rank(M) == part.n2


class TestRandomIndex1:
    def test_deterministic_per_seed(self):
        a = random_ph_index1(8, 3, 2, seed=11).parent
        b = random_ph_index1(8, 3, 2, seed=11).parent
        c = random_ph_index1(8, 3, 2, seed=12).parent
        assert np.array_equal(a.E, b.E) and np.array_equal(a.J, b.J)
        assert not np.array_equal(a.J, c.J)

    @pytest.mark.parametrize("seed", range(4))
    def test_always_valid(self, seed):
        part = random_ph_index1(10, 4, 3, seed=seed)
        assert validate_structure(part.parent).passed
        assert not part.b2_zero


class TestMixedChain:
    def test_partition_and_structure(self):
        # the index-2 view of the mixed blocks (1, 10, 1)
        part = mixed_chain(MassSpringSpec(k=5))
        assert (part.index_kind, part.n1, part.n2) == ("2", 11, 1)
        assert validate_structure(part.parent).passed

    def test_constraint_pins_adjoined_state(self):
        # the constraint block [J13; 0]: the multiplier acts on the first state only
        part = mixed_chain(MassSpringSpec(k=4))
        assert part.J12 == pytest.approx(np.eye(part.n1, 1))


def _sparse_sym_violation(M):
    d = (M - M.T).tocoo()
    return np.max(np.abs(d.data)) if d.nnz else 0.0


class TestSparseStructureChecks:
    def test_large_chain_assembly(self):
        sys = mass_spring_chain_sparse(MassSpringSpec(k=500))
        assert sys.n == 1001
        assert _sparse_sym_violation(sys.E) == 0.0
        assert _sparse_sym_violation(-sys.J) == pytest.approx(_sparse_sym_violation(sys.J))
        # J skew: J + J^T == 0
        assert (sys.J + sys.J.T).nnz == 0
        # R psd via smallest eigenvalue of the (symmetric) dissipation
        w = spsla.eigsh(sys.R, k=1, which="SA", return_eigenvectors=False)
        assert w[0] >= -1e-8
