"""Paths, spheres, bonds, and the enumeration oracle."""

import math

import pytest

from spinpaths import EnsembleTooLarge, LatticePath, Point, enumerate_paths, sphere
from spinpaths.lattice import PATH_ENUMERATION_LIMIT, path_count


class TestEndpoint:
    def test_hv(self):
        assert LatticePath(Point(0, 0), "HV").endpoint() == Point(1, 1)

    def test_empty_path(self):
        assert LatticePath(Point(-1, -1), "").endpoint() == Point(-1, -1)

    def test_hhv(self):
        assert LatticePath(Point(0, 0), "HHV").endpoint() == Point(2, 1)


class TestEnumeratePaths:
    def test_unit_square(self):
        paths = enumerate_paths(Point(0, 0), Point(1, 1))
        assert sorted(p.steps for p in paths) == ["HV", "VH"]

    def test_two_by_one(self):
        assert len(enumerate_paths(Point(0, 0), Point(2, 1))) == 3

    def test_single_column(self):
        paths = enumerate_paths(Point(0, 0), Point(0, 3))
        assert [p.steps for p in paths] == ["VVV"]

    def test_empty_ensemble(self):
        assert enumerate_paths(Point(0, 0), Point(-1, 2)) == []

    def test_count_matches_binomial(self):
        for di in range(5):
            for dj in range(5):
                start, end = Point(-1, 2), Point(-1 + di, 2 + dj)
                paths = enumerate_paths(start, end)
                assert len(paths) == math.comb(di + dj, di) == path_count(start, end)
                for p in paths:
                    assert p.endpoint() == end

    def test_oracle_limit(self):
        # binomial(26, 13) > 10^6
        assert math.comb(26, 13) > PATH_ENUMERATION_LIMIT
        with pytest.raises(EnsembleTooLarge):
            enumerate_paths(Point(0, 0), Point(13, 13))


class TestSphere:
    def test_forward(self):
        assert sphere(Point(0, 0), 2) == [Point(0, 2), Point(1, 1), Point(2, 0)]

    def test_radius_zero(self):
        assert sphere(Point(3, -1), 0) == [Point(3, -1)]

    def test_backward(self):
        assert set(sphere(Point(0, 0), 2, "backward")) == {
            Point(-2, 0), Point(-1, -1), Point(0, -2)}

    def test_partitions_paths(self):
        # every path crosses each sphere in exactly one point
        start, end = Point(0, 0), Point(3, 3)
        for path in enumerate_paths(start, end):
            pts = set(path.points())
            for radius in range(7):
                assert sum(1 for q in sphere(start, radius) if q in pts) == 1


class TestPassesThrough:
    def test_hv_hits_corner(self):
        assert LatticePath(Point(0, 0), "HV").passes_through(Point(1, 0))

    def test_hv_misses_other_corner(self):
        assert not LatticePath(Point(0, 0), "HV").passes_through(Point(0, 1))

    def test_start_always_hit(self):
        for p in enumerate_paths(Point(2, -1), Point(4, 1)):
            assert p.passes_through(Point(2, -1))

    def test_agrees_with_visited_points(self):
        for p in enumerate_paths(Point(0, 0), Point(3, 2)):
            visited = set(p.points())
            for i in range(-1, 5):
                for j in range(-1, 4):
                    assert p.passes_through(Point(i, j)) == (Point(i, j) in visited)


class TestBonds:
    def test_hv_bonds(self):
        bonds = LatticePath(Point(0, 0), "HV").bonds()
        assert [(b.tail, b.head, b.orientation) for b in bonds] == [
            (Point(0, 0), Point(1, 0), "H"),
            (Point(1, 0), Point(1, 1), "V"),
        ]

    def test_empty(self):
        assert LatticePath(Point(0, 0), "").bonds() == []

    def test_vh_bonds(self):
        bonds = LatticePath(Point(0, 0), "VH").bonds()
        assert [(b.tail, b.head, b.orientation) for b in bonds] == [
            (Point(0, 0), Point(0, 1), "V"),
            (Point(0, 1), Point(1, 1), "H"),
        ]


class TestTextForm:
    def test_round_trip(self):
        p = LatticePath(Point(-2, 3), "HVHH")
        assert p.text() == "(-2,3):HVHH"
        assert LatticePath.parse(p.text()) == p

    def test_empty_word(self):
        assert LatticePath.parse("(0,0):") == LatticePath(Point(0, 0), "")

    def test_rejects_garbage(self):
        with pytest.raises(ValueError):
            LatticePath.parse("(0,0):HX")


def test_invalid_step_word():
    with pytest.raises(ValueError):
        LatticePath(Point(0, 0), "HQ")


@pytest.mark.parametrize("word", [["H", "V"], ("H",), b"HV", None])
def test_step_word_must_be_a_str(word):
    with pytest.raises(ValueError, match="invalid step word"):
        LatticePath(Point(0, 0), word)


def test_point_contract():
    # a Point is the plain tuple (i, j), so tables keyed by tuples answer it
    assert Point(1, 2) == (1, 2)
    assert hash(Point(1, 2)) == hash((1, 2))
    assert str(Point(1, 2)) == "(1,2)"
    with pytest.raises(AttributeError):
        Point(1, 2).i = 3


def test_concat():
    a = LatticePath(Point(0, 0), "HV")
    b = LatticePath(Point(1, 1), "VH")
    assert a.concat(b).steps == "HVVH"
    with pytest.raises(ValueError):
        b.concat(a)
