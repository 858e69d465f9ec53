import pytest

import twospec
from twospec.pipeline import reconstruct_circle, reconstruct_real

DRIVERS = [twospec.reconstruct, reconstruct_real, reconstruct_circle]


@pytest.mark.parametrize("pair", ["pair_4_2", "circle_3_2"])
def test_either_name_solves_either_setting(pair, request):
    pair = request.getfixturevalue(pair)
    expected = twospec.reconstruct(pair)
    for driver in (reconstruct_real, reconstruct_circle):
        assert driver(pair) == expected


@pytest.mark.parametrize("driver", DRIVERS)
def test_a_non_pair_is_a_type_error(driver):
    with pytest.raises(TypeError):
        driver(((1, 2, 3, 4), (1.5, 3.5)))
