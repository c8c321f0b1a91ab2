"""Document parsing, serialization and self-consistency checks."""

import warnings

import numpy as np
import pytest

from kmln.core import AssembleOverflowError, ParamSet, assemble, random_params
from kmln.documents import DocumentError, format_document, parse_document
from kmln.families import construct


def k3_params():
    return construct("K-3", {"D": 2 - 1j}, {"k": [1, 0.5, -0.25j, 3]})


class TestRoundTrip:
    def test_params_only(self):
        p = random_params(np.random.default_rng(1))
        doc = parse_document(format_document(params=p))
        assert np.allclose(doc.params.components(), p.components())
        assert np.allclose(doc.matrix, assemble(p))

    def test_matrix_only(self):
        rng = np.random.default_rng(2)
        g = rng.uniform(-1, 1, (4, 4)) + 1j * rng.uniform(-1, 1, (4, 4))
        doc = parse_document(format_document(matrix=g))
        assert np.allclose(doc.matrix, g)
        assert np.allclose(assemble(doc.params), g, atol=1e-13)

    def test_both_fields(self):
        p = k3_params()
        text = format_document(params=p, matrix=assemble(p))
        doc = parse_document(text)
        assert np.allclose(doc.params.components(), p.components())

    def test_meta_round_trip(self):
        p = k3_params()
        text = format_document(
            params=p, meta={"tag": "K-3", "constants": {"D": 2 - 1j}, "seed": 5}
        )
        doc = parse_document(text)
        assert doc.meta["tag"] == "K-3"
        assert doc.meta["seed"] == 5

    def test_serialization_is_deterministic(self):
        p = k3_params()
        meta = {"tag": "K-3", "constants": {"D": 2 - 1j}}
        assert format_document(params=p, meta=meta) == \
            format_document(params=p, meta=meta)


class TestErrors:
    def test_invalid_json_names_position(self):
        with pytest.raises(DocumentError, match="line 1"):
            parse_document("{nope")

    def test_not_an_object(self):
        with pytest.raises(DocumentError, match="JSON object"):
            parse_document("[1, 2]")

    def test_unknown_top_level_key(self):
        with pytest.raises(DocumentError, match="document.bogus"):
            parse_document('{"bogus": 1, "matrix": []}')

    def test_needs_payload(self):
        with pytest.raises(DocumentError, match="at least one"):
            parse_document('{"meta": {}}')

    def test_bad_pair_is_located(self):
        text = format_document(params=k3_params())
        broken = text.replace('"k": [', '"k": [[1],', 1)
        # the first k entry is now a 1-element list followed by 4 pairs
        with pytest.raises(DocumentError, match=r"params\.k"):
            parse_document(broken)

    def test_bad_pair_in_matrix_is_located(self):
        with pytest.raises(DocumentError, match=r"matrix\[0\]\[1\]"):
            parse_document(
                '{"matrix": [[[0, 0], [0], [0, 0], [0, 0]],'
                ' [[0, 0], [0, 0], [0, 0], [0, 0]],'
                ' [[0, 0], [0, 0], [0, 0], [0, 0]],'
                ' [[0, 0], [0, 0], [0, 0], [0, 0]]]}'
            )

    def test_missing_vector(self):
        with pytest.raises(DocumentError, match=r"params\.m: missing"):
            parse_document('{"params": {"k": [[0,0],[0,0],[0,0],[0,0]]}}')

    def test_non_finite_rejected(self):
        with pytest.raises(DocumentError, match="non-finite"):
            parse_document(
                '{"params": {"k": [[0,0],[0,0],[0,0],[1e999,0]],'
                ' "m": [[0,0],[0,0],[0,0],[0,0]],'
                ' "l": [[0,0],[0,0],[0,0],[0,0]],'
                ' "n": [[0,0],[0,0],[0,0],[0,0]]}}'
            )

    def test_matrix_params_disagreement(self):
        p = k3_params()
        wrong = assemble(p)
        wrong = wrong + np.eye(4)
        with pytest.raises(DocumentError, match="disagrees"):
            parse_document(format_document(params=p, matrix=wrong))

    @pytest.mark.parametrize("scale", [1e200, 1e300])
    def test_cross_check_near_the_float_limit(self, scale):
        p = random_params(np.random.default_rng(4))
        big = ParamSet(*(scale * p.components()).reshape(4, 4))
        g = assemble(big)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            doc = parse_document(format_document(params=big, matrix=g))
            assert doc.params == big
            wrong = g.copy()
            wrong[0, 0] *= 1 + 1e-6
            with pytest.raises(DocumentError, match="disagrees"):
                parse_document(format_document(params=big, matrix=wrong))
            with pytest.raises(DocumentError, match="disagrees"):
                parse_document(format_document(params=big, matrix=-g))

    def test_params_beyond_the_float_limit_are_a_named_error(self):
        text = format_document(params=ParamSet(k=[1e308] * 4, m=[0] * 4,
                                               l=[0] * 4, n=[0] * 4))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(AssembleOverflowError):
                parse_document(text)


class TestMetaCrossChecks:
    def test_lying_tag_rejected(self):
        p = random_params(np.random.default_rng(3))
        with pytest.raises(DocumentError, match="not a member of family K-3"):
            parse_document(format_document(params=p, meta={"tag": "K-3"}))

    def test_unknown_tag_rejected(self):
        p = k3_params()
        with pytest.raises(DocumentError, match="unknown tag"):
            parse_document(format_document(params=p, meta={"tag": "Q-1"}))

    def test_lying_constant_rejected(self):
        p = k3_params()
        text = format_document(
            params=p, meta={"tag": "K-3", "constants": {"D": 5 + 0j}}
        )
        with pytest.raises(DocumentError, match=r"meta\.constants\.D"):
            parse_document(text)

    def test_unknown_constant_rejected(self):
        p = k3_params()
        text = format_document(
            params=p, meta={"tag": "K-3", "constants": {"Z": 1 + 0j}}
        )
        with pytest.raises(DocumentError, match=r"meta\.constants\.Z"):
            parse_document(text)

    def test_variant_tag_checked(self):
        from kmln.variants import sample_variant

        rng = np.random.default_rng(4)
        p = sample_variant((0, 2), rng)
        doc = parse_document(format_document(params=p, meta={"tag": "02"}))
        assert doc.meta["tag"] == "02"
        q = random_params(rng)
        with pytest.raises(DocumentError, match="variant 02"):
            parse_document(format_document(params=q, meta={"tag": "02"}))

    def test_honest_meta_accepted(self):
        p = k3_params()
        doc = parse_document(format_document(
            params=p, meta={"tag": "K-3", "constants": {"D": 2 - 1j}}
        ))
        assert doc.meta["constants"] == {"D": [2.0, -1.0]}
