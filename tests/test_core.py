import numpy as np
import pytest

from relugeom import DimensionMismatch, NotContracting, RankDeficient
from relugeom.core import AffineMap, build_dual_frame, evaluate_affine, project_to_row_span
from relugeom.layer import evaluate

# Published dual-basis configuration: the columns below are the dual
# vectors and the apex is (1, 1, 1).  The layer matrix is recovered
# independently by inverting the column matrix.
PUBLISHED_DUAL_COLUMNS = np.array(
    [
        [0.25, 1.0, 0.0],
        [-1.0, 0.0, -0.5],
        [0.1, 0.25, 1.0],
    ]
)
PUBLISHED_APEX = np.array([1.0, 1.0, 1.0])


def published_layer() -> AffineMap:
    a = np.linalg.inv(PUBLISHED_DUAL_COLUMNS)
    return AffineMap(a, -a @ PUBLISHED_APEX)


def test_identity_frame():
    frame = build_dual_frame(AffineMap(np.eye(3), np.zeros(3)))
    np.testing.assert_allclose(frame.apex, np.zeros(3), atol=1e-15)
    np.testing.assert_allclose(frame.duals, np.eye(3), atol=1e-15)
    assert frame.conditioning == pytest.approx(1.0)
    assert not frame.is_contracting


def test_published_duals_recovered():
    frame = build_dual_frame(published_layer())
    np.testing.assert_allclose(frame.duals.T, PUBLISHED_DUAL_COLUMNS, atol=1e-12)
    np.testing.assert_allclose(frame.apex, PUBLISHED_APEX, atol=1e-12)


def test_random_square_duality_residual():
    rng = np.random.default_rng(42)
    a = rng.normal(size=(5, 5))
    frame = build_dual_frame(AffineMap(a, np.zeros(5)))
    np.testing.assert_allclose(frame.apex, np.zeros(5), atol=1e-10)
    # A a_i* = e_i, checked column by column against direct solves.
    for i in range(5):
        direct = np.linalg.solve(a, np.eye(5)[:, i])
        np.testing.assert_allclose(frame.duals[i], direct, atol=1e-10)
        np.testing.assert_allclose(a @ frame.duals[i], np.eye(5)[:, i], atol=1e-10)


@pytest.mark.parametrize("d", range(2, 11))
def test_duality_invariant_random(d):
    rng = np.random.default_rng(d)
    for _ in range(20):
        a = rng.normal(size=(d, d))
        if np.linalg.cond(a) > 1e6:
            continue
        layer = AffineMap(a, rng.normal(size=d))
        frame = build_dual_frame(layer)
        delta = np.abs(frame.duals @ a.T - np.eye(d)).max()
        assert delta < 1e-9
        apex_residual = np.linalg.norm(layer(frame.apex))
        assert apex_residual < 1e-9 * (1 + np.linalg.norm(layer.offset))
        assert 0 < frame.conditioning <= 1


def test_evaluate_affine_identity():
    layer = AffineMap(np.eye(2), np.zeros(2))
    np.testing.assert_allclose(evaluate_affine(layer, [2.0, -1.0]), [2.0, -1.0])


def test_evaluate_affine_returns_expansion_coefficients():
    layer = published_layer()
    frame = build_dual_frame(layer)
    lam = np.array([0.7, -1.3, 2.1])
    x = frame.apex + lam @ frame.duals
    np.testing.assert_allclose(evaluate_affine(layer, x), lam, atol=1e-12)


def test_evaluate_affine_at_apex_is_zero():
    rng = np.random.default_rng(1)
    layer = AffineMap(rng.normal(size=(4, 4)), rng.normal(size=4))
    frame = build_dual_frame(layer)
    np.testing.assert_allclose(evaluate_affine(layer, frame.apex), np.zeros(4), atol=1e-12)


def test_evaluate_affine_batched():
    layer = AffineMap([[2.0, 0.0], [0.0, 3.0]], [1.0, -1.0])
    out = evaluate_affine(layer, [[1.0, 1.0], [0.0, 0.0]])
    np.testing.assert_allclose(out, [[3.0, 2.0], [1.0, -1.0]])


def _read_only(values):
    array = np.array(values)
    array.setflags(write=False)
    return array


@pytest.mark.parametrize(
    "x",
    [
        [1.5, -2.0],
        [[1, 2], [3, -4]],
        np.array([3, -1]),
        np.array([[0.1, 2.7], [1e30, -3.3]], dtype=np.float32),
        np.array([[0.25, -1.0], [2.0, 0.5], [1e-300, 7.0]]),
        np.array([[0.25, 2.0, 1e-300], [-1.0, 0.5, 7.0]]).T,
        np.linspace(-3.0, 5.0, 24).reshape(3, 4, 2) ** 3,
        _read_only([0.5, 3.0]),
        np.empty((0, 2)),
    ],
    ids=[
        "list", "nested int list", "int", "float32", "float64", "float64 transposed", "float64 stacks",
        "read-only", "no points",
    ],
)
def test_evaluate_affine_input_kinds(x):
    # every kind of input gives the values and the dtype of the converted
    # float array, in a new array that the input does not share
    layer = AffineMap([[2.0, 0.5], [-1.0, 3.0], [0.1, 0.0]], [1.0, -1.0, 0.25])
    before = np.array(x, copy=True)
    got = evaluate_affine(layer, x)
    expected = np.asarray(x, dtype=float) @ layer.matrix.T + layer.offset
    assert got.dtype == np.float64 and got.shape == expected.shape
    assert got.tobytes() == expected.tobytes()
    assert not np.shares_memory(got, x) and np.array_equal(np.asarray(x), before)


@pytest.mark.parametrize(
    "x, message",
    [
        (np.array(2.0), "point has dimension 0, layer expects 2"),
        (np.float64(2.0), "point has dimension 0, layer expects 2"),
        (3, "point has dimension 0, layer expects 2"),
        (np.zeros(3), "point has dimension 3, layer expects 2"),
        ([[1.0, 2.0, 3.0]], "point has dimension 3, layer expects 2"),
        (np.zeros((2, 1), dtype=np.float32), "point has dimension 1, layer expects 2"),
        (np.zeros((4, 0)), "point has dimension 0, layer expects 2"),
    ],
    ids=["0-d", "float64 scalar", "int scalar", "too wide", "too wide list", "too narrow float32", "no coordinates"],
)
def test_evaluate_affine_dimension_messages(x, message):
    with pytest.raises(DimensionMismatch, match=f"^{message}$"):
        evaluate_affine(AffineMap(np.eye(2), np.zeros(2)), x)


def test_dimension_errors():
    with pytest.raises(DimensionMismatch):
        AffineMap(np.eye(3), np.zeros(2))
    with pytest.raises(DimensionMismatch):
        evaluate_affine(AffineMap(np.eye(3), np.zeros(3)), np.zeros(2))
    # Expanding layers have no dual frame: their rows are never independent.
    with pytest.raises(RankDeficient):
        build_dual_frame(AffineMap(np.ones((3, 2)), np.zeros(3)))


def test_rank_gate():
    singular = np.array([[1.0, 2.0], [2.0, 4.0]])
    with pytest.raises(RankDeficient):
        build_dual_frame(AffineMap(singular, np.zeros(2)))
    nearly = np.diag([1.0, 1e-13])
    with pytest.raises(RankDeficient):
        build_dual_frame(AffineMap(nearly, np.zeros(2)))


class TestContracting:
    def frame(self, d_in=5, d_out=3, seed=0):
        rng = np.random.default_rng(seed)
        layer = AffineMap(rng.normal(size=(d_out, d_in)), rng.normal(size=d_out))
        return layer, build_dual_frame(layer)

    def test_duality_inside_row_span(self):
        layer, frame = self.frame()
        np.testing.assert_allclose(
            layer.matrix @ frame.duals.T, np.eye(3), atol=1e-10
        )
        # apex and duals lie in V: projecting onto the span basis loses nothing.
        basis = frame.row_span_basis
        for v in [frame.apex, *frame.duals]:
            np.testing.assert_allclose((v @ basis.T) @ basis, v, atol=1e-10)
        np.testing.assert_allclose(layer(frame.apex), np.zeros(3), atol=1e-10)

    def test_complement_kernel(self):
        layer, frame = self.frame()
        assert frame.complement_basis.shape == (2, 5)
        np.testing.assert_allclose(
            layer.matrix @ frame.complement_basis.T, np.zeros((3, 2)), atol=1e-9
        )
        stacked = np.vstack([frame.row_span_basis, frame.complement_basis])
        np.testing.assert_allclose(stacked @ stacked.T, np.eye(5), atol=1e-10)

    def test_projection_fixes_row_span(self):
        _, frame = self.frame()
        v = 0.3 * frame.duals[0] - 1.2 * frame.duals[2]
        np.testing.assert_allclose(project_to_row_span(frame, v), v, atol=1e-10)

    def test_projection_splits_components(self):
        _, frame = self.frame()
        v = 1.7 * frame.row_span_basis[1]
        w = -2.3 * frame.complement_basis[0]
        np.testing.assert_allclose(project_to_row_span(frame, v + w), v, atol=1e-10)

    def test_layer_output_invariant_under_projection(self):
        rng = np.random.default_rng(3)
        affine, relu = self.frame(seed=3)
        xs = rng.normal(size=(100, 5)) * 3.0
        np.testing.assert_allclose(
            evaluate(relu, xs),
            evaluate(relu, project_to_row_span(relu, xs)),
            atol=1e-9,
        )

    def test_square_frame_rejects_projection(self):
        frame = build_dual_frame(AffineMap(np.eye(3), np.zeros(3)))
        with pytest.raises(NotContracting):
            project_to_row_span(frame, np.zeros(3))


def test_reconstruction_from_dual_expansion():
    rng = np.random.default_rng(9)
    for d in (2, 4, 7):
        a = rng.normal(size=(d, d))
        layer = AffineMap(a, rng.normal(size=d))
        frame = build_dual_frame(layer)
        x = rng.normal(size=d) * 4.0
        lam = layer(x)
        recon = frame.apex + lam @ frame.duals
        assert np.abs(recon - x).max() < 1e-9 * (1 + np.abs(x).max())
