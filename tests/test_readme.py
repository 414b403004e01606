"""The README's library tour runs as written and gives the values its
comments state, so a public name that is renamed or removed while the
README still shows it fails here."""

import ast
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def _tour_source() -> str:
    section = README.read_text(encoding="utf-8").split("## Library quick tour", 1)[1]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


def _run_tour() -> dict[str, object]:
    """Run the tour top to bottom: the value of each expression statement,
    keyed by its source text."""
    source = _tour_source()
    namespace: dict = {}
    values = {}
    for stmt in ast.parse(source).body:
        text = ast.get_source_segment(source, stmt)
        if isinstance(stmt, ast.Expr):
            values[text] = eval(compile(ast.Expression(stmt.value), "README.md", "eval"),
                                namespace)
        else:
            exec(compile(ast.Module([stmt], []), "README.md", "exec"), namespace)
    return values


def test_the_library_tour_gives_the_values_its_comments_state():
    values = _run_tour()
    assert values["find_occurrence(sigma, ps)"] == (1, 3, 5)
    assert values["find_occurrence((-5, 10**9, 7), ps)"] == (1, 2, 3)
    assert values['find_occurrence(MultisetPermutation.parse("2211"), ps)'] is None
    assert len(values['MultisetPermutation.parse("()")']) == 0
    assert values['count_avoiders(3, 2, PatternSet.of("112", "122"))'] == 5
    assert len(values['list_avoiders(3, 2, PatternSet.of("112", "122"))']) == 5
    assert values['proved_count(("112", "122"), 3, 2)'] == 5
    assert values['closed_count(("212", "132"), 4, 2)'] == 55
    assert values['count_at_height(builtin_rule("112-122@m2", 2), 3)'] == 5
    assert str(values['canonical_pair(("213", "122"))']) == "{112,132}"
    assert values['str(dyck_to_perm(DyckWord("XYXXYXYY")))'] == "44323121"
