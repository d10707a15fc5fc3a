"""Seeded input generators for the four benchmark workloads.

Every generator is a pure function of (fixture text, seed, scale): the
same arguments give byte-identical output. None of them imports xqowl;
the two ontology generators rewrite the shipped socialnetwork.owl
fixture textually, the other two write their documents directly and
also return the plan they were written from, which the oracles use.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass

SN_IRI = "http://www.semanticweb.org/socialnetwork.owl"
PAPERS_IRI = "http://www.semanticweb.org/ontology_papers.owl"
FOAF_NS = "http://xmlns.com/foaf/0.1/"
PEOPLE = "http://example.org/people#"
# conference(): shares of student researchers and of self-refereed manuscripts
STUDENT_SHARE = 0.4
SELF_REVIEW_SHARE = 0.1

_REF_RE = re.compile(r'"#(\w+)"')
_CLASSES_MARK = "<!-- classes -->"
_INDIVIDUALS_MARK = "<!-- individuals -->"
_CLOSE = "</rdf:RDF>"


def _split_fixture(text: str) -> tuple[str, str, str]:
    """(header, TBox block, ABox block) of socialnetwork.owl."""
    head, rest = text.split(_CLASSES_MARK, 1)
    tbox, abox = rest.split(_INDIVIDUALS_MARK, 1)
    return head, tbox, abox.split(_CLOSE, 1)[0]


def _blocks(section: str) -> list[str]:
    """Top-level entity elements of a fixture section, one string each."""
    return [block.rstrip() + "\n" for block in
            re.findall(r"^  <owl:.*?(?=^  <(?!/)|\Z)", section, re.S | re.M)]


def individual_names(fixture: str) -> list[str]:
    return re.findall(r'<owl:NamedIndividual rdf:about="#(\w+)"', fixture)


def copy_name(name: str, copy: int) -> str:
    return f"{name}_k{copy}"


def replicate_abox(fixture: str, copies: int, seed: int) -> str:
    """The fixture TBox plus `copies` renamed copies of its ABox.

    Copy k renames individual x to x_k<k>; the copies are disjoint, so
    every fixture answer holds per copy. The seed orders the individual
    blocks in the file.
    """
    head, tbox, abox = _split_fixture(fixture)
    names = set(individual_names(fixture))
    blocks = []
    for copy in range(copies):
        for block in _blocks(abox):
            blocks.append(_REF_RE.sub(
                lambda m: f'"#{copy_name(m[1], copy)}"' if m[1] in names else m[0],
                block))
    random.Random(seed).shuffle(blocks)
    return (head + _CLASSES_MARK + tbox + _INDIVIDUALS_MARK + "\n\n"
            + "".join(blocks) + _CLOSE + "\n")


def tbox_name(name: str, copy: int) -> str:
    return f"{name}_t{copy}"


def replicate_tbox(fixture: str, copies: int, seed: int) -> str:
    """`copies` renamed copies of the fixture TBox and no ABox.

    Copy k renames every class and property x to x_t<k>. The seed orders
    the entity declarations in the file.
    """
    head, tbox, _ = _split_fixture(fixture)
    blocks = [_REF_RE.sub(lambda m: f'"#{tbox_name(m[1], copy)}"', entity)
              for copy in range(copies) for entity in _blocks(tbox)]
    random.Random(seed).shuffle(blocks)
    return head + _CLASSES_MARK + "\n" + "".join(blocks) + _CLOSE + "\n"


@dataclass(frozen=True)
class FoafGraph:
    names: list[str]          # person i is PEOPLE + f"p{i}" named names[i]
    knows: list[list[int]]    # knows[i]: the persons i knows, in file order
    markup: str


def foaf_graph(persons: int, degree: int, seed: int) -> FoafGraph:
    """persons x (type + name + degree knows) triples as RDF/XML."""
    rng = random.Random(seed)
    names = [f"n{v}" for v in rng.sample(range(persons * 10), persons)]
    knows = [rng.sample([j for j in range(persons) if j != i], degree)
             for i in range(persons)]
    out = ['<?xml version="1.0"?>\n',
           f'<rdf:RDF xmlns:rdf="http://www.w3.org/1999/02/22-rdf-syntax-ns#"'
           f' xmlns:foaf="{FOAF_NS}">\n']
    for i in range(persons):
        out.append(f'  <foaf:Person rdf:about="{PEOPLE}p{i}">\n'
                   f"    <foaf:name>{names[i]}</foaf:name>\n")
        out.extend(f'    <foaf:knows rdf:resource="{PEOPLE}p{j}"/>\n'
                   for j in knows[i])
        out.append("  </foaf:Person>\n")
    out.append("</rdf:RDF>\n")
    return FoafGraph(names, knows, "".join(out))


@dataclass(frozen=True)
class Researcher:
    ident: str
    student: bool
    manuscript: str
    referee: str


@dataclass(frozen=True)
class Conference:
    researchers: list[Researcher]
    markup: str


def conference(papers: int, researchers: int, seed: int | str) -> Conference:
    """A conference.xml in the shape of the shipped fixture.

    A researcher is a student with probability STUDENT_SHARE and
    referees their own manuscript with probability SELF_REVIEW_SHARE;
    otherwise the refereed paper is another one.
    """
    rng = random.Random(seed)
    paper_ids = [str(i + 1) for i in range(papers)]
    out = ["<?xml version='1.0'?>\n<conference>\n<papers>\n"]
    for pid in paper_ids:
        student = "true" if rng.random() < 0.5 else "false"
        out.append(f'<paper id="{pid}" studentPaper="{student}">\n'
                   f"<title> Paper {pid} on topic {rng.randrange(1000)} </title>\n"
                   f"<wordCount> {rng.randrange(1000, 15000)} </wordCount>\n"
                   f"</paper>\n")
    out.append("</papers>\n<researchers>\n")
    people = []
    for i in range(researchers):
        ident = f"r{i + 1}"
        student = rng.random() < STUDENT_SHARE
        manuscript = rng.choice(paper_ids)
        if rng.random() < SELF_REVIEW_SHARE:
            referee = manuscript
        else:
            referee = rng.choice([p for p in paper_ids if p != manuscript])
        people.append(Researcher(ident, student, manuscript, referee))
        out.append(f'<researcher id="{ident}" isStudent="{str(student).lower()}"'
                   f' manuscript="{manuscript}" referee="{referee}">\n'
                   f"<name>Name{i + 1} </name>\n</researcher>\n")
    out.append("</researchers>\n</conference>\n")
    return Conference(people, "".join(out))
