import pytest

from envload.dataset import builtin_material_library
from envload.preprocess import (
    SplitConfig,
    apply_normalizer,
    fit_normalizer,
    label_dataset,
    split,
)
from envload.sampling import SamplerConfig, generate_dataset
from envload.surrogate import SurrogateConfig, simulate_dataset


@pytest.fixture(scope="session")
def default_library():
    return builtin_material_library()


@pytest.fixture(scope="session")
def default_dataset(default_library):
    """600 rows sampled with the default seed."""
    return generate_dataset(default_library, SamplerConfig())


@pytest.fixture(scope="session")
def labeled_dataset(default_dataset):
    return label_dataset(simulate_dataset(default_dataset, SurrogateConfig()))


@pytest.fixture(scope="session")
def default_split(labeled_dataset):
    """The (x, y) raw features and label codes of the train and the test part."""
    in_train = split(labeled_dataset, SplitConfig())
    return tuple((labeled_dataset.features[rows], labeled_dataset.labels[rows])
                 for rows in (in_train, ~in_train))


@pytest.fixture(scope="session")
def default_normalizer(default_split):
    (x, _), _ = default_split
    return fit_normalizer(x)


@pytest.fixture(scope="session")
def normalized_train(default_split, default_normalizer):
    """The (x, y) of the train part, x normalized."""
    (x, y), _ = default_split
    return apply_normalizer(default_normalizer, x), y

