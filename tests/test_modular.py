import numpy as np
import pytest

from looptl import modular
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


def test_torus_dimension_estimate_rejects_genus_below_one():
    with pytest.raises(ValueError, match="genus must be >= 1"):
        torus_dimension_estimate(2, 0)


def test_torus_dimension_estimate_checks_the_label_count(monkeypatch):
    # a label count one too high at level 3 only: the genus-1 cross-check
    # with the Verlinde sum fails there and still passes at level 2
    count = modular.label_count
    monkeypatch.setattr(modular, "label_count",
                        lambda ell: count(ell) + (ell == 3))
    assert torus_dimension_estimate(2, 1) == 4
    with pytest.raises(AssertionError,
                       match="Verlinde sum 4.0.* label count 5"):
        torus_dimension_estimate(3, 1)


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
