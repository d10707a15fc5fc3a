"""Expected answers for every benchmark request, computed without xqowl.

The two reasoning workloads use hand-written fixture answers (acceptance
criteria 05-07 and the socialnetwork.owl taxonomy) renamed per copy. The
SPARQL workload derives its rows from the generator's adjacency lists,
and the mapping check predicts its clash report from the generated
conference plan.
"""

from __future__ import annotations

import xml.etree.ElementTree as ET

from generators import (
    FOAF_NS, PAPERS_IRI, PEOPLE, SN_IRI, Conference, FoafGraph, copy_name,
    tbox_name,
)

SN = SN_IRI + "#"
PAPERS = PAPERS_IRI + "#"
NOTHING = "http://www.w3.org/2002/07/owl#Nothing"
RESULTS_NS = "{http://www.w3.org/2005/sparql-results#}"

# criterion 05: instance retrieval on the fixture
MEMBERS = {
    "activity": {"message1", "message2", "event1", "event2"},
    "user": {"jesus", "vicente", "luis"},
    "popular": {"event1", "message2"},
}

# criterion 07: property fillers of three fixture individuals
VALUES = {
    ("jesus", "recommended_friend_of"): {"jesus", "vicente"},
    ("event1", "confirmed_by"): {"vicente"},
    ("message1", "created_by"): {"jesus"},
}

# criterion 06 extended to every fixture class: its named superclasses,
# itself included (the TBox's told hierarchy plus the two definitions)
SUPERS = {
    "user": {"user"},
    "user_item": {"user_item"},
    "wall": {"wall", "user_item"},
    "album": {"album", "user_item"},
    "activity": {"activity"},
    "event": {"event", "activity"},
    "message": {"message", "activity"},
    "popular": {"popular"},
    "popular_event": {"popular_event", "event", "activity", "popular"},
    "popular_message": {"popular_message", "message", "activity", "popular"},
}


def direct_subclasses(cls: str) -> set[str]:
    """Direct named subclasses by transitive reduction of SUPERS; a class
    with none has owl:Nothing as its only direct subclass."""
    below = {sub for sub, sups in SUPERS.items() if cls in sups and sub != cls}
    direct = {sub for sub in below
              if not any(mid != sub and mid in SUPERS[sub] for mid in below)}
    return direct or {"Nothing"}


def sn_individual(name: str, copy: int) -> str:
    return SN + copy_name(name, copy)


def sn_class(name: str, copy: int) -> str:
    return NOTHING if name == "Nothing" else SN + tbox_name(name, copy)


def instances_lines(cls: str, copies: int) -> list[str]:
    return sorted(sn_individual(name, copy)
                  for copy in range(copies) for name in MEMBERS[cls])


def bool_line(value: bool) -> list[str]:
    return ["true" if value else "false"]


# -- SPARQL ------------------------------------------------------------------

def person(index: int) -> str:
    return f"{PEOPLE}p{index}"


def read_results(markup: str) -> tuple[list[str], list[tuple[str, ...]]]:
    """(variables, rows) of a SPARQL-results document; an unbound
    variable reads as ""."""
    root = ET.fromstring(markup)
    variables = [v.get("name") for v in root.iter(RESULTS_NS + "variable")]
    rows = []
    for result in root.iter(RESULTS_NS + "result"):
        bound = {b.get("name"): b[0].text or "" for b in result}
        rows.append(tuple(bound.get(v, "") for v in variables))
    return variables, rows


def sort_rows(rows, order_by: list[tuple[int, str]]) -> list[tuple[str, ...]]:
    """Rows deduplicated and sorted as the engine specifies: by every
    projected term, then stably by each ORDER BY key, last key first."""
    ordered = sorted(set(rows))
    for column, direction in reversed(order_by):
        ordered.sort(key=lambda row: row[column], reverse=direction == "desc")
    return ordered


def fof(graph: FoafGraph, start: int) -> list[tuple[str]]:
    """Friends of friends of one person, as ?c rows."""
    return [(person(c),) for b in graph.knows[start] for c in graph.knows[b]]


FOAF_PREFIX = f"PREFIX foaf: <{FOAF_NS}> "


# -- mapping check -------------------------------------------------------------

def check_lines(conf: Conference) -> list[str]:
    """The stdout of `xqowl check mapping.xq` over the generated document.

    Every researcher has a referee and so is a Reviewer (the domain of
    referee); a student who referees clashes with Student disjointWith
    Reviewer. A researcher whose manuscript is the refereed paper
    clashes with manuscript propertyDisjointWith referee.
    """
    clashes = []
    for r in conf.researchers:
        if r.student:
            clashes.append(("disjoint-classes", (PAPERS + r.ident, PAPERS + "Student",
                                                 PAPERS + "Reviewer")))
        if r.manuscript == r.referee:
            clashes.append(("disjoint-roles", (PAPERS + r.ident, PAPERS + "manuscript",
                                               PAPERS + "referee", PAPERS + r.referee)))
    lines = [f"consistent: {'false' if clashes else 'true'}"]
    lines += [f"{kind}: {', '.join(culprits)}" for kind, culprits in sorted(clashes)]
    return lines
