import pytest

import uqscore
from uqscore import active, errors, measures, ood, records, selective

MODULES = (measures, selective, ood, active, records)

PUBLIC_NAMES = {
    "Beliefs", "COMPONENTS", "SIMPLEX_TOLERANCE", "ScoringRule", "SecondOrderSample",
    "UncertaintyTriple", "decompose", "divergence", "entropy", "expected_loss", "generic_triple", "loss",
    "validate_simplex",
    "AulcResult", "Ordering", "aulc", "aulc_weighted", "harmonic_weights", "optimal_aulc_bruteforce",
    "order_by_uncertainty", "run_selective_prediction",
    "AurocResult", "ScoreSplit", "auroc", "auroc_pairwise", "run_ood",
    "AcquisitionStrategy", "ActiveLearningTrace", "EnsembleLearner", "LearnerConfig", "TabularDataset",
    "acquire", "ensemble_zero_one_loss", "fit", "make_blobs", "make_epistemic_gap", "predict_pool",
    "run_active_learning",
    "PredictionRecord", "parse_predictions", "write_predictions",
    "__version__",
}


def test_package_reexports_each_module_all():
    assert len(uqscore.__all__) == len(PUBLIC_NAMES) == 42
    assert set(uqscore.__all__) == PUBLIC_NAMES
    module_names = [name for module in MODULES for name in module.__all__]
    assert len(module_names) == len(set(module_names)), "a name is public in two modules"
    assert set(module_names) == PUBLIC_NAMES - {"__version__"}
    for module in MODULES:
        for name in module.__all__:
            assert getattr(uqscore, name) is getattr(module, name), name
    namespace = {}
    exec("from uqscore import *", namespace)
    assert set(namespace) - {"__builtins__"} == PUBLIC_NAMES


def test_errors_define_six_value_error_classes():
    classes = {name for name, obj in vars(errors).items() if isinstance(obj, type) and issubclass(obj, BaseException)}
    assert classes == {
        "UqscoreError", "SimplexError", "LabelOutOfRange", "BadConfig", "Malformed", "InconsistentDecomposition"
    }
    for name in classes:
        assert issubclass(getattr(errors, name), errors.UqscoreError) and issubclass(getattr(errors, name), ValueError)
    plain, simplex = errors.Malformed(3, "invalid JSON"), errors.Malformed(3, "negative entry -0.5", row=2)
    assert (str(plain), plain.line, plain.row) == ("line 3: invalid JSON", 3, None)
    assert (str(simplex), simplex.line, simplex.row) == ("line 3, row 2: negative entry -0.5", 3, 2)


#: Faults raised as the base class itself: (call, text).
BASE_FAULTS = [
    (lambda: selective.Ordering([0, 0]), "perm is not a permutation of 0..n-1"),
    (lambda: selective.order_by_uncertainty([], measures.ScoringRule.LOG), "cannot order an empty list of samples"),
    (lambda: selective.harmonic_weights(0), "need n >= 1"),
    (lambda: selective.aulc([0.5, -0.1], selective.Ordering([0, 1])), "instance losses must be nonnegative (and not NaN)"),
    (
        lambda: selective.run_selective_prediction([], measures.ScoringRule.LOG, measures.ScoringRule.LOG),
        "need at least one labeled prediction",
    ),
    (lambda: active.ActiveLearningTrace([1, 2], [0.5]), "trace needs matching 1-d count and loss arrays"),
    (lambda: active.ActiveLearningTrace([10, 10], [0.5, 0.4]), "labeled counts must increase every round"),
    (lambda: active.ActiveLearningTrace([10, 20], [0.5, 1.4]), "zero-one test losses must lie in [0, 1]"),
]


@pytest.mark.parametrize("call, text", BASE_FAULTS, ids=[text for _, text in BASE_FAULTS])
def test_every_fault_is_an_uqscore_error(call, text):
    with pytest.raises(errors.UqscoreError) as exc:
        call()
    assert type(exc.value) is errors.UqscoreError and str(exc.value) == text
