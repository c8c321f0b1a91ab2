"""Document parsing, serialization and self-consistency checks."""

import json
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


# a JSON integer literal beyond the float range
HUGE = "1" + "0" * 400
ZERO_VEC = "[[0, 0], [0, 0], [0, 0], [0, 0]]"
# (bad entry as JSON text, the error it gives after "<path>: ")
BAD_ENTRIES = [
    ("[true, 0]", "expected a [re, im] pair"),
    ("[0, false]", "expected a [re, im] pair"),
    ('"1"', "expected a [re, im] pair"),
    ('[0, "1"]', "expected a [re, im] pair"),
    ("[1, 2, 3]", "expected a [re, im] pair"),
    ("[1e400, 0]", "non-finite value"),
    ("[0, -1e400]", "non-finite value"),
    (f"[{HUGE}, 0]", "non-finite value"),
    (f"[0, -{HUGE}]", "non-finite value"),
]
BAD_IDS = ["bool-re", "bool-im", "string", "string-im", "three-elements",
           "1e400-re", "1e400-im", "huge-int-re", "huge-int-im"]


def matrix_text(entry="[0, 0]", short_row=False):
    """A matrix document with ``entry`` at [1][2]; row 2 has 3 entries
    with ``short_row``."""
    rows = [["[0, 0]"] * 4 for _ in range(4)]
    rows[1][2] = entry
    if short_row:
        rows[2] = rows[2][:3]
    return '{"matrix": [%s]}' % ", ".join(
        "[%s]" % ", ".join(row) for row in rows)


def params_text(entry="[0, 0]", short_vec=False):
    """A params document with ``entry`` as m[3]; l has 3 pairs with
    ``short_vec``."""
    m = "[[0, 0], [0, 0], [0, 0], %s]" % entry
    l = "[[0, 0], [0, 0], [0, 0]]" if short_vec else ZERO_VEC
    return ('{"params": {"k": %s, "m": %s, "l": %s, "n": %s}}'
            % (ZERO_VEC, m, l, ZERO_VEC))


class TestParseErrorTexts:
    """Every entry and row error of _parse_matrix and _parse_params, text
    for text."""

    @pytest.mark.parametrize("entry, message", BAD_ENTRIES, ids=BAD_IDS)
    def test_matrix_entry(self, entry, message):
        with pytest.raises(DocumentError) as err:
            parse_document(matrix_text(entry))
        assert str(err.value) == f"matrix[1][2]: {message}"

    @pytest.mark.parametrize("entry, message", BAD_ENTRIES, ids=BAD_IDS)
    def test_params_entry(self, entry, message):
        with pytest.raises(DocumentError) as err:
            parse_document(params_text(entry))
        assert str(err.value) == f"params.m[3]: {message}"

    def test_short_row(self):
        with pytest.raises(DocumentError) as err:
            parse_document(matrix_text(short_row=True))
        assert str(err.value) == "matrix[2]: expected 4 [re, im] pairs"
        with pytest.raises(DocumentError) as err:
            parse_document(params_text(short_vec=True))
        assert str(err.value) == "params.l: expected 4 [re, im] pairs"

    def test_the_first_error_in_reading_order_is_named(self):
        # row 1's bad entry comes before row 2's short length
        with pytest.raises(DocumentError) as err:
            parse_document(matrix_text("[true, 0]", short_row=True))
        assert str(err.value) == "matrix[1][2]: expected a [re, im] pair"

    def test_meta_constant(self):
        text = json.loads(format_document(params=k3_params()))
        text["meta"] = {"tag": "K-3", "constants": {"D": "HUGE"}}
        text = json.dumps(text).replace('"HUGE"', f"[{HUGE}, 0]")
        with pytest.raises(DocumentError) as err:
            parse_document(text)
        assert str(err.value) == "meta.constants.D: non-finite value"

    def test_integer_beyond_the_digit_limit(self):
        with pytest.raises(DocumentError, match="^document: invalid JSON: "):
            parse_document(matrix_text("[1%s, 0]" % ("0" * 5000)))

    def test_good_documents_still_parse(self):
        doc = parse_document(matrix_text("[1, -2.5]"))
        assert doc.matrix[1, 2] == 1 - 2.5j
        assert not doc.matrix.flags.writeable
        assert parse_document(params_text("[3, 4]")).params.m[3] == 3 + 4j


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
