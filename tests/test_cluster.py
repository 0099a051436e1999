"""Lattice core: proximity, intersection forms, value/multiplicity duality."""

import inspect
import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from antinef import (
    ClusterStructureError,
    INFINITY,
    PointRecord,
    ValuationVector,
    is_negative_definite,
    new_cluster,
)
from antinef.selfcheck import random_cluster, valid_satellite_pairs
from helpers import chain_cluster, cusp_cluster, random_coordinatized_cluster, star_cluster
from oracles import (
    fraction_leading_minors,
    fraction_negative_definite,
    proximity_matrix,
    replay_chart_fields,
)


class TestConstruction:
    def test_new_cluster_has_origin_only(self):
        c = new_cluster()
        assert len(c) == 1
        assert c.point(0).parent is None
        assert c.point(0).prox == ()

    def test_single_point_matrices(self):
        c = new_cluster()
        assert proximity_matrix(c) == ((1,),)
        assert c.intersection_matrix().entries == ((-1,),)

    def test_free_point_records(self):
        c = new_cluster()
        p1 = c.add_free_point(0, Fraction(3, 2))
        rec = c.point(p1)
        assert rec.prox == (0,)
        assert rec.kind == "free"
        assert rec.param == Fraction(3, 2)

    def test_duplicate_free_point_rejected(self):
        c = new_cluster()
        c.add_free_point(0, 1)
        with pytest.raises(ClusterStructureError, match="coincident"):
            c.add_free_point(0, 1)

    def test_distinct_params_ok(self):
        c = new_cluster()
        c.add_free_point(0, 1)
        c.add_free_point(0, 2)
        c.add_free_point(0, INFINITY)
        assert len(c) == 4

    def test_float_param_rejected(self):
        c = new_cluster()
        with pytest.raises(TypeError, match="unsupported parameter"):
            c.add_free_point(0, 0.5)

    def test_unknown_parent_rejected(self):
        c = new_cluster()
        with pytest.raises(ClusterStructureError):
            c.add_free_point(5)

    def test_satellite_needs_two_distinct_curves(self):
        c = new_cluster()
        p1 = c.add_free_point(0)
        with pytest.raises(ClusterStructureError, match="^satellite needs two distinct curves$"):
            c.add_satellite_point(p1, p1)
        assert len(c) == 2

    def test_satellite_has_two_proximities(self):
        c = cusp_cluster()
        assert set(c.point(2).prox) == {0, 1}
        assert c.point(2).kind == "satellite"

    def test_satellite_needs_meeting_curves(self):
        c = new_cluster()
        c.add_free_point(0)
        p2 = c.add_free_point(0)
        # curves 1 and 2 are disjoint points on E0, they never meet
        with pytest.raises(ClusterStructureError, match="do not meet"):
            c.add_satellite_point(p2, 1)

    def test_satellite_separated_by_blowup_rejected(self):
        c = cusp_cluster()
        # E1 and E0 were separated by blowing up their crossing (point 2)
        with pytest.raises(ClusterStructureError, match="separated"):
            c.add_satellite_point(1, 0)

    def test_satellite_parent_must_be_later(self):
        c = new_cluster()
        c.add_free_point(0)
        with pytest.raises(ClusterStructureError, match="most recent"):
            c.add_satellite_point(0, 1)

    def test_free_point_on_crossing_rejected(self):
        c = new_cluster()
        p1 = c.add_free_point(0, 0)
        # the crossing of E1 with E0 sits at parameter inf on E1
        with pytest.raises(ClusterStructureError, match="crossing"):
            c.add_free_point(p1, INFINITY)
        c.add_free_point(p1, 0)  # any finite parameter is free here

    def test_free_point_on_satellite_slot_rejected(self):
        c = cusp_cluster()
        # point 2 occupies the crossing of E2 with E1 (parameter 0 side)
        with pytest.raises(ClusterStructureError):
            c.add_free_point(2, 0)

    def test_rejected_coincident_point_leaves_the_slot_to_its_owner(self):
        c = new_cluster()
        c.add_free_point(0, Fraction(1, 2))
        for _ in range(2):
            with pytest.raises(ClusterStructureError, match="taken by point 1"):
                c.add_free_point(0, Fraction(1, 2))
        assert len(c) == 2 and c.children(0) == (1,)
        assert c.add_free_point(0, Fraction(1, 3)) == 2

    @pytest.mark.parametrize(
        "first, position, other_slot",
        [(0, INFINITY, 0), (INFINITY, 0, INFINITY)],
        ids=["u-crossing", "v-crossing"],
    )
    def test_satellite_records_its_position(self, first, position, other_slot):
        c = new_cluster()
        p1 = c.add_free_point(0, first)
        p2 = c.add_satellite_point(p1, 0)
        rec = c.point(p2)
        assert rec.crossing_axis == ("u" if position == INFINITY else "v")
        assert rec.param == position
        # the satellite's slot on E1 is a crossing, so no free point takes it
        with pytest.raises(ClusterStructureError, match="crossing"):
            c.add_free_point(p1, position)
        # the other slot on E1 is free
        assert c.point(c.add_free_point(p1, other_slot)).param == other_slot

    def test_separated_pairs_name_their_satellite_at_either_crossing(self):
        c = cusp_cluster()  # point 2 is the satellite of (1, 0); E0 on u, E1 on v
        assert c.add_satellite_point(2, 1) == 3  # v-crossing, position 0 on E2
        assert c.add_satellite_point(2, 0) == 4  # u-crossing, position inf on E2
        assert [c.point(i).crossing_axis for i in (3, 4)] == ["v", "u"]
        assert c.add_free_point(2, 5) == 5
        children, form = c.children(2), c.tree_form()
        for other, owner in ((1, 3), (0, 4)):
            for _ in range(2):
                message = f"separated by blowing up point {owner}$"
                with pytest.raises(ClusterStructureError, match=message):
                    c.add_satellite_point(2, other)
            assert len(c) == 6 and c.children(2) == children
            assert c.tree_form() is form
        # each slot still belongs to its satellite: a free point there is a crossing
        for position in (0, INFINITY):
            with pytest.raises(ClusterStructureError, match="crossing"):
                c.add_free_point(2, position)
        assert c.children(2) == (3, 4, 5)

    def test_satellite_inserts_agree_with_the_children_scan(self):
        # valid_satellite_pairs scans the children of each point for the
        # satellite that separated a pair; the insert looks up the slot instead
        rng = random.Random(23)
        tried = rejected = 0
        for _ in range(150):
            c = random_cluster(rng, max_points=9)
            for _ in range(6):
                parent = rng.randrange(len(c))
                for other in c.point(parent).prox:
                    valid = (parent, other) in valid_satellite_pairs(c)
                    children = c.children(parent)
                    tried += 1
                    try:
                        c.add_satellite_point(parent, other)
                    except ClusterStructureError as exc:
                        rejected += 1
                        assert not valid and "separated" in str(exc)
                        assert c.children(parent) == children
                    else:
                        assert valid
        assert tried > 500 and rejected > 100


def _try_insert(c, insert, *args):
    """The message of a refused insert, or "" if it was accepted.

    A refused insert must leave the cluster as it was: its size, every
    point's children, the memoized tree form and the owner of every slot
    (read from the private slot tables).
    """
    size, children = len(c), [c.children(i) for i in range(len(c))]
    slots, form = [dict(t) for t in c._taken], c.tree_form()
    try:
        insert(*args)
    except ClusterStructureError as exc:
        assert (len(c), [c.children(i) for i in range(len(c))]) == (size, children)
        assert [dict(t) for t in c._taken] == slots and c.tree_form() is form
        return str(exc)
    return ""


class TestDerivedFields:
    """A record stores only index, parent, prox and param; kind, axis_curves
    and crossing_axis are derived, and must equal the insert-time rules."""

    def test_stored_fields(self):
        # the declared fields are the constructor's parameters and all an
        # instance stores: a record has slots only, and a valuation vector
        # holds nothing else until its values are first read
        c = cusp_cluster()
        names = ["index", "parent", "prox", "param"]
        assert list(PointRecord.__slots__) == list(PointRecord._fields) == names
        assert list(inspect.signature(PointRecord).parameters) == names
        assert not hasattr(c.point(2), "__dict__")
        names = ["cluster", "multiplicities"]
        vv = ValuationVector(c, (1, 1, 1))
        assert list(ValuationVector._fields) == names
        assert list(inspect.signature(ValuationVector).parameters) == names
        assert list(vars(vv)) == names

    def test_derived_fields_match_the_replayed_inserts(self):
        rng = random.Random(20261018)
        crossings, refusals = Counter(), Counter()
        for _ in range(200):
            c = random_coordinatized_cluster(rng)
            points, expected = c.points, replay_chart_fields(c)
            for rec, fields in zip(points, expected):
                assert (rec.kind, rec.axis_curves, rec.crossing_axis) == fields
                crossings[fields[2]] += 1
            # each taken position is refused again, naming the point sitting there
            for rec, (kind, _, _) in zip(points, expected):
                if kind == "satellite":
                    message = _try_insert(c, c.add_satellite_point, rec.parent, rec.prox[0])
                    assert message.endswith(f"separated by blowing up point {rec.index}")
                    refusals["separated"] += 1
                elif kind == "free" and rec.param is not None:
                    message = _try_insert(c, c.add_free_point, rec.parent, rec.param)
                    assert message.endswith(f"already taken by point {rec.index}")
                    refusals["coincident"] += 1
            # a free point at 0 or inf is a crossing exactly when a curve lies on that axis
            for rec, (_, (u_curve, v_curve), _) in zip(points, expected):
                for position, curve in ((0, v_curve), (INFINITY, u_curve)):
                    message = _try_insert(c, c.add_free_point, rec.index, position)
                    assert ("crossing" in message) == (curve is not None), message
                    refusals["crossing"] += "crossing" in message
        assert crossings["u"] >= 50 and crossings["v"] >= 50
        assert min(refusals.values()) >= 200, refusals


class TestMatrices:
    def test_chain_intersection(self):
        c = chain_cluster(3)
        assert c.intersection_matrix().entries == (
            (-2, 1, 0),
            (1, -2, 1),
            (0, 1, -1),
        )

    def test_cusp_proximity(self):
        c = cusp_cluster()
        assert proximity_matrix(c) == (
            (1, 0, 0),
            (-1, 1, 0),
            (-1, -1, 1),
        )

    def test_cusp_intersection(self):
        c = cusp_cluster()
        assert c.intersection_matrix().entries == (
            (-3, 0, 1),
            (0, -2, 1),
            (1, 1, -1),
        )

    def test_star_matrix(self):
        for n in (1, 2, 3, 7):
            c = star_cluster(n)
            m = c.intersection_matrix()
            assert m[0, 0] == -(n + 1)
            for i in range(1, n + 1):
                assert m[i, i] == -1
                assert m[0, i] == m[i, 0] == 1
                for j in range(i + 1, n + 1):
                    assert m[i, j] == 0

    def test_star_proximity(self):
        c = star_cluster(3)
        p = proximity_matrix(c)
        for i in range(1, 4):
            assert p[i][0] == -1
            assert p[i][i] == 1

    def test_views_follow_inserts(self):
        # The tree form is memoized; an insert must drop it, so every view
        # taken after the insert matches a cluster built with the new points.
        rng = random.Random(11)
        for _ in range(30):
            c = random_cluster(rng, max_points=8)
            c.tree_form(), c.intersection_matrix(), proximity_matrix(c)
            parent = rng.randrange(len(c))
            free = c.add_free_point(parent)
            c.add_satellite_point(free, parent)
            fresh = new_cluster()
            for rec in c.points[1:]:
                if rec.kind == "free":
                    fresh.add_free_point(rec.parent, rec.param)
                else:
                    other = next(j for j in rec.prox if j != rec.parent)
                    fresh.add_satellite_point(rec.parent, other)
            assert c.tree_form() == fresh.tree_form()
            assert c.intersection_matrix() == fresh.intersection_matrix()
            assert proximity_matrix(c) == proximity_matrix(fresh)

    def test_free_point_drops_parent_self_intersection_by_one(self):
        rng = random.Random(7)
        for _ in range(40):
            c = random_cluster(rng, max_points=9)
            before = c.intersection_matrix().entries
            parent = rng.randrange(len(c))
            c.add_free_point(parent)
            after = c.intersection_matrix().entries
            n = len(before)
            for i in range(n):
                for j in range(n):
                    expected = before[i][j] - (1 if i == j == parent else 0)
                    assert after[i][j] == expected
            assert after[n][n] == -1
            assert after[parent][n] == 1


class TestNegativeDefiniteness:
    def test_reference_matrices(self):
        assert is_negative_definite([[-1, 1], [1, -2]])
        assert not is_negative_definite([[-1, 1], [1, -1]])

    def test_positive_definite_rejected(self):
        assert not is_negative_definite([[1]])

    def test_non_symmetric_raises(self):
        with pytest.raises(ValueError, match="symmetric"):
            is_negative_definite([[-1, 1], [0, -1]])

    def test_non_square_raises(self):
        with pytest.raises(ValueError, match="square"):
            is_negative_definite([[-1, 1]])

    def test_fraction_entries(self):
        assert is_negative_definite([[Fraction(-1), Fraction(1, 2)], [Fraction(1, 2), Fraction(-1)]])
        assert not is_negative_definite([[Fraction(-1), Fraction(1)], [Fraction(1), Fraction(-1)]])

    def test_agrees_with_fraction_elimination(self):
        # Cluster forms stay negative definite under D M D for a positive
        # rational diagonal D (denominators 7 and 11); raising their last
        # diagonal entry by -det_n/det_{n-1} makes them exactly semidefinite,
        # and by more makes them indefinite.  Random integer matrices give
        # every outcome.
        rng = random.Random(8)
        verdicts = []
        for _ in range(100):
            form = random_cluster(rng, max_points=8).intersection_matrix().entries
            scale = [Fraction(rng.randint(1, 30), rng.choice((1, 2, 7, 11, 77))) for _ in form]
            m = [[x * scale[i] * scale[j] for j, x in enumerate(row)] for i, row in enumerate(form)]
            minors = [Fraction(1), *fraction_leading_minors(m)]
            threshold = -minors[-1] / minors[-2]
            semidefinite = [row[:] for row in m]
            semidefinite[-1][-1] += threshold
            indefinite = [row[:] for row in m]
            indefinite[-1][-1] += threshold + Fraction(1, rng.choice((7, 11)))
            n = rng.randint(1, 5)
            ints = [[0] * n for _ in range(n)]
            for i in range(n):
                ints[i][i] = rng.randint(-9, 2)
                for j in range(i):
                    ints[i][j] = ints[j][i] = rng.randint(-3, 3)
            for mat in (m, semidefinite, indefinite, ints):
                verdict = is_negative_definite(mat)
                assert verdict == fraction_negative_definite(mat)
                verdicts.append(verdict)
            assert verdicts[-4] and not verdicts[-3] and not verdicts[-2]
        assert verdicts[3::4].count(True) >= 10 and verdicts[3::4].count(False) >= 10

    def test_all_cluster_forms_negative_definite(self):
        rng = random.Random(123)
        for _ in range(150):
            c = random_cluster(rng, max_points=12)
            assert is_negative_definite(c.intersection_matrix())

    def test_form_equals_minus_ptp(self):
        rng = random.Random(5)
        for _ in range(50):
            c = random_cluster(rng, max_points=10)
            p = proximity_matrix(c)
            m = c.intersection_matrix().entries
            n = len(p)
            for i in range(n):
                for j in range(n):
                    assert m[i][j] == -sum(p[k][i] * p[k][j] for k in range(n))


class TestValueMultiplicityDuality:
    def test_cusp_values(self):
        c = cusp_cluster()
        assert c.values_from_multiplicities((2, 1, 1)) == (2, 3, 6)
        assert c.multiplicities_from_values((2, 3, 6)) == (2, 1, 1)

    def test_zero_vector(self):
        c = cusp_cluster()
        assert c.values_from_multiplicities((0, 0, 0)) == (0, 0, 0)

    def test_star_unit_multiplicity(self):
        c = star_cluster(4)
        assert c.values_from_multiplicities((1, 0, 0, 0, 0)) == (1, 1, 1, 1, 1)

    def test_length_mismatch(self):
        c = cusp_cluster()
        with pytest.raises(ValueError):
            c.values_from_multiplicities((1, 2))
        with pytest.raises(ValueError):
            c.multiplicities_from_values((1, 2, 3, 4))

    @settings(max_examples=60)
    @given(seed=st.integers(0, 10**6), data=st.data())
    def test_round_trip(self, seed, data):
        c = random_cluster(random.Random(seed), max_points=10)
        vec = data.draw(
            st.lists(st.integers(-50, 50), min_size=len(c), max_size=len(c))
        )
        m = tuple(vec)
        assert c.multiplicities_from_values(c.values_from_multiplicities(m)) == m
        v = tuple(vec)
        assert c.values_from_multiplicities(c.multiplicities_from_values(v)) == v


def test_satellite_pair_enumeration_matches_form():
    # curves meet exactly when their form pairing is 1
    rng = random.Random(99)
    for _ in range(60):
        c = random_cluster(rng, max_points=10)
        m = c.intersection_matrix()
        pairs = set(valid_satellite_pairs(c))
        for a in range(len(c)):
            for b in range(a):
                assert ((a, b) in pairs) == (m[a, b] == 1)
