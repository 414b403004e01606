"""Write the ground-truth table that the benchmark checks answers against.

Run once, from the repository root, at the commit the table is meant to
describe:

    python3 perfbench/make_truth.py

It counts every unordered pair of distinct length-3 patterns over at least
two values (66 pairs), plus the four catalogued pairs that contain 111, on
the cells n*m <= 12 with 2 <= m <= 6, using the package's oracle.  Before
writing, it cross-checks

* every cell with n*m <= 8 against the naive counter in tests/reference.py,
  which shares no code with the package, and
* every cell covered by a formula of trust "proved-here" against that
  formula,

and writes nothing if any of them disagree.  It refuses to overwrite an
existing table: the table is evidence about one commit and must never be
regenerated from the code a benchmark run is measuring.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = Path(__file__).resolve().parent / "truth.json"

sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "tests"))

from msetperm import classify_all_length3, closed_count, count_avoiders  # noqa: E402
from msetperm.classify import canonical_pair  # noqa: E402
from msetperm.formulas import REGISTRY  # noqa: E402
from msetperm.gentree import RULE_PATTERN_PAIRS  # noqa: E402
from reference import naive_count  # noqa: E402

PAIRS_WITH_111 = (("111", "112"), ("111", "121"), ("111", "123"), ("111", "132"))
REFERENCE_LENGTH = 8


def main() -> int:
    if OUT.exists():
        print(f"{OUT} exists; the table is never regenerated", file=sys.stderr)
        return 1
    grid = [(n, m) for m in range(2, 7) for n in range(1, 13) if n * m <= 12]
    classes = []
    for cls in classify_all_length3():
        rep = canonical_pair(cls.representative)
        entry = REGISTRY.get(rep)
        rule = next((name for name, pair in RULE_PATTERN_PAIRS.items()
                     if canonical_pair(pair) == rep), None)
        classes.append({
            "members": [f"{a},{b}" for a, b in cls.members],
            "trust": entry.trust if entry else None,
            "rule": rule,
        })
    for pair in PAIRS_WITH_111:
        classes.append({"members": [",".join(pair)],
                        "trust": REGISTRY[canonical_pair(pair)].trust,
                        "rule": None})
    counts = {}
    disagreements = []
    for cls in classes:
        proved = cls["trust"] == "proved-here"
        for text in cls["members"]:
            pair = tuple(text.split(","))
            row = []
            for n, m in grid:
                value = count_avoiders(n, m, pair)
                row.append(value)
                if n * m <= REFERENCE_LENGTH:
                    ref = naive_count(n, m, [tuple(map(int, p)) for p in pair])
                    if ref != value:
                        disagreements.append((text, n, m, "reference", ref, value))
                if proved and REGISTRY[canonical_pair(pair)].validity(n, m):
                    formula = closed_count(pair, n, m)
                    if formula != value:
                        disagreements.append((text, n, m, "formula", formula, value))
            counts[text] = row
        print(f"{cls['members'][0]}: done", file=sys.stderr)
    if disagreements:
        for d in disagreements:
            print("disagreement:", d, file=sys.stderr)
        return 1
    OUT.write_text(json.dumps({
        "grid": grid,
        "reference_checked_up_to_length": REFERENCE_LENGTH,
        "classes": classes,
        "counts": counts,
    }, indent=1) + "\n")
    print(f"wrote {len(counts)} pairs x {len(grid)} cells to {OUT}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
