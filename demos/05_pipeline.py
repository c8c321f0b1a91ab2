"""Documents, the verification suite, and the CLI pipeline.

Matrices travel as JSON documents carrying coordinates and/or the dense
matrix plus optional metadata; the two payloads are cross-checked on
parse.  The seeded suite re-derives every catalog claim and prints one
deterministic line per check.  The same operations are exposed as a CLI:

    kmln gen K-3 -c D=2 --seed 1 | kmln classify -
    kmln verify --family K-3 --samples 25
"""

import numpy as np

from kmln import (
    SuiteConfig,
    construct,
    format_document,
    parse_document,
    run_suite,
)
from kmln.variants import VARIANT_IDS, construct_variant, matching_variants
from kmln.core import assemble, random_params

# Round-trip a family member through the document format.
p = construct("K-3", {"D": 2.0}, base={"k": [3.0, 1.0, 2.0, 1.0]})
text = format_document(p, meta={"tag": "K-3", "constants": {"D": 2.0}})
print("document head:")
print("\n".join(text.splitlines()[:6]))
doc = parse_document(text)
back = doc.params
print("round trip max error:",
      np.abs(p.components() - back.components()).max())

# Rank-3 variants: zero row i and zero column j.
rng = np.random.default_rng(6)
member = construct_variant((1, 3), random_params(rng))
print("\nvariant ids:", len(VARIANT_IDS),
      " matches for this member:", matching_variants(assemble(member)))

# A filtered verification run: every check prints one line.
report = run_suite(SuiteConfig(seed=7, samples=20, families=("K-3", "KN-1"),
                               rank_instances=8))
print("\nsuite findings:")
print(report.to_text())
print("exit code (non-strict):", report.exit_code(strict=False))
print("exit code (strict):    ", report.exit_code(strict=True))
