"""Unit tests for Table 2 featurization."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.features import (
    FEATURE_NAMES,
    QueryFeatures,
    featurize_plans,
    project_features,
)
from repro.core.parameter_model import ParameterModel
from repro.engine.optimizer import Optimizer
from repro.engine.plan import (
    OPERATOR_KINDS,
    InputSource,
    LogicalPlan,
    OperatorKind,
    PlanNode,
)
from repro.export.format import save_parameter_model
from repro.export.runtime import PortableModelRuntime, PortablePPMScorer
from repro.ml.forest import RandomForestRegressor
from repro.workloads.tpcds import QUERY_IDS, build_query


class TestFeatureLayout:
    def test_nineteen_features(self):
        """14 operator counts + NumOps, MaxDepth, NumInputs, bytes, rows."""
        assert len(FEATURE_NAMES) == 19

    def test_paper_figure15_names_present(self):
        for name in (
            "TotalInputBytes",
            "TotalRowsProcessed",
            "MaxDepth",
            "NumOps",
            "NumInputs",
            "Project",
            "Filter",
            "Aggregate",
            "Sort",
            "Union",
        ):
            assert name in FEATURE_NAMES

    def test_operator_kinds_lead_the_vector(self):
        assert FEATURE_NAMES[: len(OPERATOR_KINDS)] == tuple(
            k.value for k in OPERATOR_KINDS
        )


class TestFromPlan:
    @pytest.fixture(scope="class")
    def features(self):
        return QueryFeatures.from_plan(build_query("q11", scale_factor=10))

    def test_vector_shape_and_id(self, features):
        assert features.values.shape == (19,)
        assert features.query_id == "q11"

    def test_counts_match_plan(self, features):
        plan = build_query("q11", scale_factor=10)
        counts = plan.operator_counts()
        for kind in OPERATOR_KINDS:
            assert features[kind.value] == counts[kind]

    def test_aggregates_match_plan(self, features):
        plan = build_query("q11", scale_factor=10)
        assert features["NumOps"] == plan.num_operators()
        assert features["MaxDepth"] == plan.max_depth()
        assert features["NumInputs"] == len(plan.input_sources())
        assert features["TotalInputBytes"] == pytest.approx(
            plan.total_input_bytes()
        )
        assert features["TotalRowsProcessed"] == pytest.approx(
            plan.total_rows_processed()
        )

    def test_compile_time_only(self, features):
        """No runtime statistics in the feature list (Section 3.4)."""
        runtime_words = ("time", "runtime", "executor", "duration", "auc")
        for name in FEATURE_NAMES:
            assert not any(w in name.lower() for w in runtime_words)

    def test_getitem_unknown_raises_keyerror(self, features):
        with pytest.raises(KeyError):
            features["NoSuchFeature"]

    def test_masked_projection(self, features):
        # The Section 5.7 ablation projects full vectors onto a subset,
        # in the subset's order.
        keep = ("TotalInputBytes", "MaxDepth")
        subset = project_features(features.values[None, :], keep)
        assert subset.shape == (1, 2)
        assert subset[0, 0] == features["TotalInputBytes"]
        assert subset[0, 1] == features["MaxDepth"]

    def test_full_width_projection_follows_name_order(self):
        # All 19 names in another order are a reordering, not a no-op.
        rows = np.arange(19.0)[None, :]
        reordered = project_features(rows, tuple(reversed(FEATURE_NAMES)))
        assert reordered.tolist() == [list(np.arange(18.0, -1.0, -1.0))]
        assert project_features(rows, FEATURE_NAMES) is rows

    def test_permuted_model_scores_identically_exported(self, tmp_path):
        rng = np.random.default_rng(4)
        X = rng.random((40, len(FEATURE_NAMES))) * 100.0
        params = np.column_stack(
            [-rng.random(40), rng.random(40) * 500 + 1, rng.random(40) * 20]
        )
        names = tuple(rng.permutation(FEATURE_NAMES))
        model = ParameterModel(
            family="power_law",
            estimator=RandomForestRegressor(n_estimators=5, random_state=0),
            feature_names=names,
        ).fit(X, params)
        save_parameter_model(model, tmp_path / "permuted.json")
        scorer = PortablePPMScorer(PortableModelRuntime(tmp_path), "permuted")
        assert scorer.predict_ppm(X[0]).parameters().tobytes() == (
            model.predict_ppm(X[0]).parameters().tobytes()
        )
        assert [p.parameters().tobytes() for p in scorer.predict_ppm_batch(X)] == [
            p.parameters().tobytes() for p in model.predict_ppm_batch(X)
        ]


class TestValidation:
    def test_wrong_length_rejected(self):
        with pytest.raises(ValueError, match="19"):
            QueryFeatures(values=np.zeros(5))


class TestFeaturizePlans:
    def test_stacks_matrix(self):
        plans = [build_query(q, 10) for q in ("q1", "q2", "q3")]
        X = featurize_plans(plans)
        assert X.shape == (3, 19)
        assert not np.allclose(X[0], X[1])

    def test_scale_factor_moves_only_data_features(self):
        f10 = QueryFeatures.from_plan(build_query("q20", 10))
        f100 = QueryFeatures.from_plan(build_query("q20", 100))
        # structural features identical, data features grow
        for kind in OPERATOR_KINDS:
            assert f10[kind.value] == f100[kind.value]
        assert f100["TotalInputBytes"] > f10["TotalInputBytes"]
        assert f100["TotalRowsProcessed"] > f10["TotalRowsProcessed"]


def reference_vector(plan):
    """The Table 2 vector from the :class:`LogicalPlan` helpers, one walk
    per feature (what ``from_plan`` computed before its one-walk form)."""
    counts = plan.operator_counts()
    values = [float(counts[kind]) for kind in OPERATOR_KINDS]
    values.append(float(plan.num_operators()))
    values.append(float(plan.max_depth()))
    values.append(float(len(plan.input_sources())))
    values.append(plan.total_input_bytes())
    values.append(plan.total_rows_processed())
    return np.array(values)


def assert_parity(plan):
    got = QueryFeatures.from_plan(plan).values
    assert got.tobytes() == reference_vector(plan).tobytes(), (
        got,
        reference_vector(plan),
    )


#: Fractional sizes across many magnitudes, so the sums round.
SIZES = st.floats(min_value=0.0, max_value=1e13, allow_nan=False, allow_infinity=False)
INNER_KINDS = [kind for kind in OPERATOR_KINDS if kind != OperatorKind.SCAN]


def _scan(size, rows, rows_out):
    return PlanNode(
        kind=OperatorKind.SCAN,
        source=InputSource(name="t", bytes=size, rows=rows),
        rows_out=rows_out,
    )


def _inner(kind, children, rows_out):
    return PlanNode(kind=kind, children=children, rows_out=rows_out)


SCANS = st.builds(_scan, SIZES, SIZES, SIZES)
TREES = st.recursive(
    SCANS,
    lambda children: st.builds(
        _inner,
        st.sampled_from(INNER_KINDS),
        # Wide joins and unions as well as unary operators.
        st.lists(children, min_size=1, max_size=8),
        SIZES,
    ),
    max_leaves=40,
)


@st.composite
def plans(draw):
    """Random valid plans: a random tree under a unary chain of up to
    200 operators, so deep chains and wide fan-ins both occur."""
    root = draw(TREES)
    for _ in range(draw(st.integers(min_value=0, max_value=200))):
        root = _inner(draw(st.sampled_from(INNER_KINDS)), [root], draw(SIZES))
    plan = LogicalPlan(root=root, query_id="random")
    plan.validate()
    return plan


class TestOneWalkParity:
    """``from_plan``'s one walk gives, bit for bit, the vector the
    :class:`LogicalPlan` helper methods give."""

    @pytest.mark.parametrize("scale_factor", [10, 100, 1000])
    def test_every_tpcds_plan(self, scale_factor):
        optimizer = Optimizer()
        for query_id in QUERY_IDS:
            plan = build_query(query_id, scale_factor)
            assert_parity(plan)
            assert_parity(optimizer.optimize(plan).plan)

    @settings(max_examples=200, deadline=None)
    @given(plans())
    def test_random_plans(self, plan):
        assert_parity(plan)
