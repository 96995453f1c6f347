import numpy as np

from wittenlab import circle_lab, eigensolve


def test_lapack_is_the_flapack_extension():
    """The fast path found scipy's compiled extension: a scipy release that
    moves or renames it fails here, not by a silently slower start."""
    assert eigensolve._lapack.__name__ == "scipy.linalg._flapack"
    assert eigensolve.load_lapack() is eigensolve._lapack      # loaded once


def test_fallback_is_scipy_linalg_lapack(tmp_path, monkeypatch, example_a):
    """With no _flapack in the given directory the routines come from
    scipy.linalg.lapack: the same Fortran objects, so the same values."""
    import scipy.linalg.lapack
    fallback = eigensolve.load_lapack(tmp_path)
    assert fallback is scipy.linalg.lapack
    fast = circle_lab.circle_solve(example_a, 200.0)
    monkeypatch.setattr(eigensolve, "_lapack", fallback)
    slow = circle_lab.circle_solve(example_a, 200.0)
    for degree in (0, 1):
        assert np.array_equal(fast.values(degree), slow.values(degree))
        for p, q in zip(fast.pairs[degree], slow.pairs[degree]):
            assert np.array_equal(p.vector, q.vector)
