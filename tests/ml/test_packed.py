"""Differential tests for the packed-forest inference kernel.

The oracle below is the per-tree masked descent the kernel replaced: each
tree walks its own rows down one level per iteration, only rows still on
an internal node move, and the forest adds the per-tree leaf values into
a zero accumulator in tree order before dividing by the tree count.
Every comparison is on ``tobytes()``: the kernel must reproduce the
oracle bit for bit, not merely to a tolerance.
"""

import numpy as np
import pytest

from repro.core.autoexecutor import AutoExecutor
from repro.core.features import featurize_plans
from repro.ml.forest import RandomForestRegressor
from repro.ml.packed import NonFiniteFeaturesError, PackedForest
from repro.ml.tree import DecisionTreeRegressor
from repro.workloads.generator import Workload


def _oracle_apply(tree: DecisionTreeRegressor, X: np.ndarray) -> np.ndarray:
    features, thresholds, left, right, _ = tree._compile()
    idx = np.zeros(X.shape[0], dtype=int)
    rows = np.arange(X.shape[0])
    while True:
        feats = features[idx]
        active = feats >= 0
        if not np.any(active):
            break
        act_rows = rows[active]
        act_idx = idx[active]
        go_left = X[act_rows, feats[active]] <= thresholds[act_idx]
        idx[active] = np.where(go_left, left[act_idx], right[act_idx])
    return idx


def _oracle_depth(tree: DecisionTreeRegressor, node: int = 0) -> int:
    n = tree.nodes_[node]
    if n.is_leaf:
        return 0
    return 1 + max(_oracle_depth(tree, n.left), _oracle_depth(tree, n.right))


def _oracle_predict(forest: RandomForestRegressor, X: np.ndarray) -> np.ndarray:
    acc = np.zeros((X.shape[0], forest.n_outputs_))
    for tree in forest.estimators_:
        acc += tree._compile()[4][_oracle_apply(tree, X)]
    acc /= len(forest.estimators_)
    return acc[:, 0] if forest._y_was_1d else acc


def _assert_bit_identical(forest: RandomForestRegressor, X: np.ndarray) -> None:
    got = forest.predict(X)
    want = _oracle_predict(forest, X)
    assert got.shape == want.shape
    assert got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()


@pytest.fixture(scope="module")
def tpcds(workload100):
    """The paper's parameter model on TPC-DS SF 100, and the 206 feature
    vectors of every plan at SF 10 and SF 100."""
    model = AutoExecutor(family="power_law").train(workload100).model
    plans = [workload100.optimized_plan(q) for q in workload100.query_ids]
    sf10 = Workload(scale_factor=10)
    plans += [sf10.optimized_plan(q) for q in sf10.query_ids]
    X = featurize_plans(plans)
    assert X.shape[0] == 206
    return model, X


class TestTPCDS:
    def test_all_206_feature_vectors(self, tpcds):
        model, X = tpcds
        assert len(model.estimator.estimators_) == 100
        _assert_bit_identical(model.estimator, X)

    def test_seeded_multiplicative_perturbations(self, tpcds):
        model, X = tpcds
        rng = np.random.default_rng(7)
        for _ in range(3):
            noisy = X * np.exp(rng.normal(0.0, 0.3, size=X.shape))
            _assert_bit_identical(model.estimator, noisy)

    def test_values_on_and_beside_split_thresholds(self, tpcds):
        """Rows whose features sit exactly on a split threshold (and one
        ulp either side) exercise the ``<=`` tie on every path."""
        model, X = tpcds
        splits = [
            (node.feature, node.threshold)
            for tree in model.estimator.estimators_
            for node in tree.nodes_
            if not node.is_leaf
        ]
        rng = np.random.default_rng(11)
        tied = X.copy()
        for row in tied:
            for k in rng.choice(len(splits), size=4, replace=False):
                feature, threshold = splits[k]
                row[feature] = threshold
        _assert_bit_identical(model.estimator, tied)
        _assert_bit_identical(model.estimator, np.nextafter(tied, np.inf))
        _assert_bit_identical(model.estimator, np.nextafter(tied, -np.inf))

    def test_single_row_equals_same_row_in_batch(self, tpcds):
        model, X = tpcds
        batch = model.estimator.predict(X)
        for i in range(X.shape[0]):
            single = model.estimator.predict(X[i : i + 1])
            assert single[0].tobytes() == batch[i].tobytes()

    def test_predict_params_rejects_non_finite(self, tpcds):
        model, X = tpcds
        bad = X[0].copy()
        bad[3] = np.nan
        with pytest.raises(NonFiniteFeaturesError, match="row 0"):
            model.predict_params(bad)


class TestShapes:
    def test_one_dimensional_y(self, rng):
        X, y = rng.random((80, 5)), rng.random(80)
        forest = RandomForestRegressor(n_estimators=12, random_state=1).fit(X, y)
        assert forest.predict(X).ndim == 1
        _assert_bit_identical(forest, X)
        _assert_bit_identical(forest, rng.random((40, 5)))

    def test_three_output_y(self, rng):
        X, y = rng.random((80, 6)), rng.random((80, 3))
        forest = RandomForestRegressor(n_estimators=12, random_state=2).fit(X, y)
        assert forest.predict(X).shape == (80, 3)
        _assert_bit_identical(forest, X)
        _assert_bit_identical(forest, rng.random((40, 6)))

    def test_root_only_trees(self, rng):
        X = rng.random((30, 4))
        forest = RandomForestRegressor(n_estimators=5, random_state=0)
        forest.fit(X, np.full((30, 2), 1.25))
        assert all(len(t.nodes_) == 1 for t in forest.estimators_)
        assert PackedForest([t._compile() for t in forest.estimators_]).depth == 0
        _assert_bit_identical(forest, X)

    def test_depth_zero_tree_apply(self, rng):
        X = rng.random((10, 3))
        tree = DecisionTreeRegressor(max_depth=0).fit(X, rng.random(10))
        assert tree.apply(X).tolist() == [0] * 10

    def test_single_tree_forest(self, rng):
        X, y = rng.random((60, 4)), rng.random((60, 2))
        forest = RandomForestRegressor(n_estimators=1, random_state=3).fit(X, y)
        _assert_bit_identical(forest, X)
        _assert_bit_identical(forest, rng.random((25, 4)))

    def test_tree_apply_matches_oracle(self, rng):
        X, y = rng.random((100, 4)), rng.random(100)
        tree = DecisionTreeRegressor(random_state=0).fit(X, y)
        probe = rng.random((50, 4))
        assert tree.apply(probe).tobytes() == _oracle_apply(tree, probe).tobytes()

    def test_mixed_depth_trees_pack_to_deepest(self, rng):
        X, y = rng.random((50, 3)), rng.random(50)
        shallow = DecisionTreeRegressor(max_depth=1).fit(X, y)
        deep = DecisionTreeRegressor().fit(X, y)
        packed = PackedForest([shallow._compile(), deep._compile()])
        assert packed.depth == deep.depth_ == _oracle_depth(deep) > 1
        leaves = packed.apply(X)
        assert leaves[0].tolist() == _oracle_apply(shallow, X).tolist()
        offset = len(shallow.nodes_)
        assert (leaves[1] - offset).tolist() == _oracle_apply(deep, X).tolist()

    def test_refit_drops_the_pack(self, rng):
        X = rng.random((40, 3))
        forest = RandomForestRegressor(n_estimators=4, random_state=0)
        forest.fit(X, rng.random(40)).predict(X)
        forest.fit(X, rng.random(40))
        _assert_bit_identical(forest, X)


class TestNonFinite:
    @pytest.fixture()
    def forest(self, rng):
        X, y = rng.random((40, 4)), rng.random((40, 2))
        return RandomForestRegressor(n_estimators=3, random_state=0).fit(X, y)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_single_row(self, forest, value):
        row = np.array([[0.5, value, 0.5, 0.5]])
        with pytest.raises(NonFiniteFeaturesError, match="row 0") as info:
            forest.predict(row)
        assert info.value.row == 0
        assert isinstance(info.value, ValueError)

    def test_batch_names_first_bad_row(self, forest, rng):
        X = rng.random((8, 4))
        X[5, 0] = np.inf
        X[3, 2] = np.nan
        with pytest.raises(NonFiniteFeaturesError, match="row 3") as info:
            forest.predict(X)
        assert info.value.row == 3

    def test_tree_predict(self, forest):
        with pytest.raises(NonFiniteFeaturesError):
            forest.estimators_[0].predict(np.array([[np.nan, 0.0, 0.0, 0.0]]))
