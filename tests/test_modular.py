import numpy as np
import pytest

from looptl.modular import (color_reversing_count, label_count, level_table,
                            level_table_csv, s_matrix, specific_heat,
                            theory_singular, torus_dimension_estimate,
                            verlinde_dimension)


def test_label_counts_small():
    assert [label_count(ell) for ell in range(1, 7)] == [1, 4, 4, 9, 9, 16]


def test_color_reversing_counts():
    assert [color_reversing_count(ell) for ell in range(1, 7)] == \
        [1, 1, 4, 4, 9, 9]


def test_specific_heats():
    assert [specific_heat(ell) for ell in range(1, 7)] == \
        [2, 5, 8, 13, 18, 25]


def test_level3_row():
    assert (label_count(3), color_reversing_count(3), specific_heat(3)) == \
        (4, 4, 8)


@pytest.mark.parametrize("ell", [1, 2, 3, 4, 5, 6])
def test_s_matrix_unitary_shifted(ell):
    s = np.array(s_matrix(ell))
    assert np.allclose(s @ s.T, np.eye(ell + 1), atol=1e-12)


@pytest.mark.parametrize("ell", range(1, 11))
def test_singularity_rule(ell):
    assert theory_singular(ell) == (ell % 4 == 2)


@pytest.mark.parametrize("ell", [1, 2, 3, 4])
def test_verlinde_genus_one_matches_label_count(ell):
    assert abs(verlinde_dimension(ell, 1) - label_count(ell)) < 1e-9
    assert torus_dimension_estimate(ell, 1) == label_count(ell)


@pytest.mark.parametrize("ell,dim", [(1, 4), (2, 64), (3, 100)])
def test_higher_genus_dimension_is_the_verlinde_sum(ell, dim):
    assert torus_dimension_estimate(ell, 2) == verlinde_dimension(ell, 2)
    assert verlinde_dimension(ell, 2) == pytest.approx(dim, rel=1e-12)


def test_level_table_csv_shape():
    text = level_table_csv(6)
    lines = text.strip().splitlines()
    assert len(lines) == 7  # header + levels 1..6
    assert lines[0].startswith("ell,")
    rows = level_table(6)
    assert len(rows) == 6
