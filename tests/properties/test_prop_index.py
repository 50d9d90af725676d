"""Property-based tests for the grid index."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.spatial.distance import euclidean
from repro.spatial.index import GridIndex

coords = st.floats(-5.0, 5.0, allow_nan=False).map(lambda x: round(x, 4))
points = st.tuples(coords, coords)


class TestGridIndexProperties:
    @given(
        st.lists(points, min_size=1, max_size=40, unique=True),
        points,
        st.floats(0.05, 2.0, allow_nan=False),
    )
    @settings(max_examples=60, deadline=None)
    def test_nearest_matches_brute_force(self, pts, center, cell):
        index = GridIndex(cell_size=cell)
        index.insert_many(enumerate(pts))
        got = index.nearest(center)
        best = min(euclidean(p, center) for p in pts)
        assert euclidean(pts[got], center) <= best + 1e-9
