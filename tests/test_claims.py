"""The claim ledger: each property the paper's abstract states, with the
``verify`` routes that check it.

A claim reads the checks of the full report whose ids start with one of
its prefixes (a ``module/kind``, narrowed to a family where a kind covers
both).  Its routes are the route names of those checks that MATCH: names
that re-run one computation count once (``ALIASES``), and constants such
as ``zero`` do not count.  Every claim needs two routes, or names the open
ROADMAP item that closes its gap; a marker that outlives its gap fails.

Values are not recomputed here: ``verify`` computes them,
``tests/test_verify.py::test_report_pinned`` pins them, and the unit tests
check each one on its own.  Run ``pytest -v -s tests/test_claims.py`` to
see one PASS line per claim.
"""

import re
from dataclasses import dataclass, replace
from pathlib import Path

import pytest

from fractree.verify import MATCH


@dataclass(frozen=True)
class Claim:
    name: str
    prefixes: tuple
    open_item: str = ""  # the ROADMAP item that gives the claim its second route


# route names that re-run one computation under another name
ALIASES = {
    "coupled-recurrence": "recurrence",  # both are size_sequences
    "last-step-delta": "limit",  # the limit iteration's own last step
    "offset/same": "limit",  # the ratio of the limit's two conventions
}
CONSTANTS = {"zero"}

CLAIMS = (
    Claim("spanning trees, cycle family", ("arith/tau-closed-fixture/cycle",
                                           "spanning/closed-vs-oracle/cycle",
                                           "spanning/oracle-vs-blocks/cycle")),
    Claim("spanning trees, wheel family", ("arith/tau-closed-fixture/wheel",
                                           "spanning/closed-vs-oracle/wheel",
                                           "spanning/oracle-vs-blocks/wheel")),
    Claim("vertex and edge counts", ("construct/size-law", "sequences/u-fixture",
                                     "sequences/e-fixture", "sequences/coupled-vs-decoupled",
                                     "sequences/binet-vs-recurrence",
                                     "sequences/binet-fixed-constants")),
    Claim("copy census", ("construct/block-census", "construct/census-unfold")),
    Claim("entropy, cycle family", ("sequences/entropy-closed/cycle",
                                    "sequences/entropy-published-offset/cycle",
                                    "sequences/entropy-published-same/cycle",
                                    "sequences/entropy-convention-ratio/cycle")),
    Claim("entropy, wheel family", ("sequences/entropy-closed/wheel",
                                    "sequences/entropy-convergence/wheel"), "K"),
    Claim("clustering, cycle family", ("clustering/direct-vs-closed/cycle",
                                       "clustering/direct-vs-expected/cycle",
                                       "clustering/example-arithmetic/cycle",
                                       "clustering/triangle-free-zero/cycle")),
    Claim("clustering, wheel family, n >= 4", ("clustering/direct-vs-closed/wheel",
                                               "clustering/direct-vs-expected/wheel",
                                               "clustering/published-average/wheel")),
    Claim("clustering, wheel family, n = 3", ("clustering/closed-form/wheel-3-",), "J"),
    Claim("degree census", ("clustering/degree-census",)),
    Claim("planar", (), "S"),
    Claim("self-similar", (), "T"),
    Claim("small-world", (), "R"),
)


def routes(claim: Claim, checks) -> list:
    """The distinct route names on the MATCH checks under claim's prefixes."""
    names = set()
    for c in checks:
        if c.verdict == MATCH and c.check_id.startswith(claim.prefixes):
            names |= {ALIASES.get(name, name) for name in (c.method_a, c.method_b)}
    return sorted(names - CONSTANTS)


def audit(claim: Claim, checks) -> list:
    """claim's routes, once it has two or names the open item that will
    give it two; a marker whose claim already has two fails."""
    found = routes(claim, checks)
    listed = ", ".join(found) or "none"
    if claim.open_item:
        assert len(found) < 2, (
            f"{claim.name}: item {claim.open_item}'s gap is closed (routes: {listed}); "
            f"drop its marker")
    else:
        assert len(found) >= 2, f"{claim.name}: {len(found)} route(s) ({listed}), needs two"
    return found


def _slug(claim: Claim) -> str:
    name = claim.name.replace(">=", "ge").replace("=", "eq")
    return re.sub(r"[^a-z0-9]+", "-", name).strip("-")


@pytest.mark.parametrize("claim", CLAIMS, ids=_slug)
def test_claim_has_two_routes_or_an_open_item(claim, full_report):
    found = audit(claim, full_report.checks)
    gap = f"; open item {claim.open_item}" if claim.open_item else ""
    print(f"PASS: {claim.name} - {len(found)} route(s): {', '.join(found) or 'none'}{gap}")


def test_a_claim_left_with_one_route_fails(full_report):
    # the degree census has exactly two routes, both on these five checks
    checks = [c for c in full_report.checks
              if not c.check_id.startswith("clustering/degree-census/")]
    with pytest.raises(AssertionError, match=r"^degree census: 0 route"):
        for claim in CLAIMS:
            audit(claim, checks)


def test_a_marker_outlives_its_gap(full_report):
    checks = [replace(c, verdict=MATCH) if c.check_id == "sequences/entropy-closed/wheel-4-2"
              else c for c in full_report.checks]
    with pytest.raises(AssertionError, match=r"^entropy, wheel family: item K's gap is closed"):
        for claim in CLAIMS:
            audit(claim, checks)


def test_readme_table_is_the_ledger(full_report):
    # README's claims table lists every claim in order, with its routes and
    # open item, so the document cannot drift from the ledger
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    section = readme.split("\n## Tests and claims\n", 1)[1].split("\n## ", 1)[0]
    rows = [[cell.strip().replace("`", "") for cell in line.strip("|").split("|")]
            for line in section.splitlines() if line.startswith("| ")][1:]
    assert rows == [[claim.name, ", ".join(routes(claim, full_report.checks)) or "none",
                     claim.open_item or "-"] for claim in CLAIMS]
