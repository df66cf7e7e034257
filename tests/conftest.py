import numpy as np
import pytest
from hypothesis import strategies as st

from uqscore.measures import ScoringRule, SecondOrderSample, validate_simplex

RULES = tuple(ScoringRule)
STRICT_RULES = tuple(r for r in RULES if r.strictly_proper)


def random_simplex(rng: np.random.Generator, k: int) -> np.ndarray:
    return rng.dirichlet(np.ones(k))


@st.composite
def simplex_arrays(draw, min_k=2, max_k=6):
    """Probability vectors, including exact zeros."""
    k = draw(st.integers(min_k, max_k))
    raw = draw(
        st.lists(st.floats(0.0, 1.0, allow_nan=False), min_size=k, max_size=k).filter(
            lambda xs: sum(xs) > 1e-6
        )
    )
    arr = np.asarray(raw, dtype=np.float64)
    return arr / arr.sum()


@st.composite
def distributions(draw, min_k=2, max_k=6):
    return validate_simplex(draw(simplex_arrays(min_k, max_k)))


@st.composite
def distribution_pairs(draw, min_k=2, max_k=6):
    k = draw(st.integers(min_k, max_k))
    a = draw(simplex_arrays(k, k))
    b = draw(simplex_arrays(k, k))
    return validate_simplex(a), validate_simplex(b)


@st.composite
def beliefs(draw, min_k=2, max_k=6, min_m=1, max_m=8):
    k = draw(st.integers(min_k, max_k))
    m = draw(st.integers(min_m, max_m))
    rows = [draw(simplex_arrays(k, k)) for _ in range(m)]
    return SecondOrderSample(np.stack(rows))


@pytest.fixture
def rng():
    return np.random.default_rng(20240901)
