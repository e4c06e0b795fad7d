import pytest

from fishburn import InvalidObject
from fishburn.enumeration import (
    gen_factorial_posets,
    gen_inversion_tables,
    gen_matchings,
    gen_matrices,
    gen_permutations,
)
from fishburn.jsonio import MAX_DECODED_SIZE, SINGULAR, decode, encode


class TestRoundTrips:
    @pytest.mark.parametrize("class_name,generator", [
        ("matchings", gen_matchings),
        ("inversion_tables", gen_inversion_tables),
        ("permutations", gen_permutations),
        ("factorial_posets", gen_factorial_posets),
        ("matrices", gen_matrices),
    ])
    def test_encode_decode_identity(self, class_name, generator):
        singular = SINGULAR[class_name]
        for n in range(5):
            for obj in generator(n):
                assert decode(singular, encode(singular, obj)) == obj

    def test_matching_accepts_bare_arc_list(self):
        m = decode("matching", [[2, 7], [1, 3], [4, 6], [5, 8]])
        assert m.arcs == ((1, 3), (4, 6), (2, 7), (5, 8))

    def test_poset_input_is_closed(self):
        p = decode("poset", {"n": 3, "less": [[1, 2], [2, 3]]})
        assert p.less == frozenset({(1, 2), (2, 3), (1, 3)})

    def test_poset_output_sorted(self):
        p = decode("poset", {"n": 3, "less": [[2, 3], [1, 2]]})
        assert encode("poset", p) == {"n": 3, "less": [[1, 2], [1, 3], [2, 3]]}


class TestMalformedInput:
    @pytest.mark.parametrize("class_name,data", [
        ("matching", {"value": 3}),
        ("matching", 17),
        ("poset", {"n": 3}),
        ("poset", {"n": "three", "less": []}),
        ("poset", {"n": 2, "less": [[1]]}),
        ("poset", {"n": 3, "less": [5]}),
        ("poset", {"n": 3, "less": [[1, 2, 3]]}),
        ("matrix", {"k": 2}),
        ("inversion_table", 5),
    ])
    def test_raises_invalid_object(self, class_name, data):
        with pytest.raises(InvalidObject):
            decode(class_name, data)

    @pytest.mark.parametrize("class_name,data", [
        ("poset", {"n": 1001, "less": []}),
        ("matrix", {"k": 1, "rows": [[1001]]}),
        ("matrix", [[500, 1], [0, 500]]),
    ])
    def test_size_above_limit_rejected(self, class_name, data):
        with pytest.raises(InvalidObject, match="exceeds 1000"):
            decode(class_name, data)

    def test_matrix_at_limit_accepted(self):
        assert MAX_DECODED_SIZE == 1000
        assert decode("matrix", [[1000]]).total == MAX_DECODED_SIZE

    def test_unknown_class(self):
        with pytest.raises(ValueError):
            encode("widget", ())
        with pytest.raises(ValueError):
            decode("widget", [])
