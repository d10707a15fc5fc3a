"""Forward-chaining reasoner over the supported ontology fragment.

The ABox is saturated to a least fixpoint under Horn rules compiled from
the TBox (subclass/equivalence, role hierarchy, inverse/symmetric flips,
length-2 chains, domain/range, data-property domains).  Right-hand-side
existentials are materialized with fresh witness individuals, one per
(context, conjunct position); witnesses never trigger further witness
creation, which bounds the saturation.  Every role fact is also indexed
by (individual, role, inverse?), so rules, membership tests and clash
checks look up an individual's neighbours instead of scanning all role
facts.  Contradictions are collected as ClashReport values after the
fixpoint, never raised:

* disjoint-classes   culprits (individual, class, class)
* disjoint-roles     culprits (subject, role, role, object)
* irreflexive        culprits (individual, role)
* max-cardinality    culprits (individual, role, filler, filler, ...)
* nothing-membership culprits (individual,)

Named individuals are assumed pairwise distinct, so an over-full
cardinality restriction is a clash rather than a merge.  Subsumption is
decided on a canonical model: seed one fresh individual into the candidate
subclass, saturate the TBox over it, and test membership in the candidate
superclass (an inconsistent seed subsumes vacuously).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import InconsistentOntologyError, UnsupportedFeatureError
from .owl import (
    And, Assertion, ClassAssertion, ClassExpr, DataDomain, DataRange,
    DisjointClasses, DisjointRoles, Domain, EquivalentClasses, Exists,
    ExistsSelf, Forall, Inverse, InverseRoles, MaxCard, Named, Nothing,
    NOTHING_IRI, Ontology, Range, Role, RoleAssertion, RoleChain, RoleExpr,
    SubClassOf, SubRoleOf, THING_IRI, Thing,
)
from .rdf import Literal

CANONICAL_INDIVIDUAL = "urn:canonical:x"


@dataclass(frozen=True)
class ClashReport:
    kind: str
    culprits: tuple[str, ...]


class _Facts:
    """Membership tests over class_facts, role_facts, fresh and _index.

    _index maps (individual, role, inverse?) to the individual's neighbours
    over that role, or over its inverse, so no test scans role_facts.
    """

    def neighbours(self, individual: str, role: str,
                   inverse: bool) -> set[str] | tuple[()]:
        return self._index.get((individual, role, inverse), ())

    def named_fillers(self, individual: str, role: str,
                      filler: ClassExpr) -> set[str]:
        """Named role successors in filler (witnesses are unconstrained)."""
        return {o for o in self.neighbours(individual, role, False)
                if o not in self.fresh and self.check(o, filler)}

    def check(self, individual: str, expr: ClassExpr) -> bool:
        """Structural membership test against the saturated facts."""
        if isinstance(expr, Thing):
            return True
        if isinstance(expr, Nothing):
            return (individual, NOTHING_IRI) in self.class_facts
        if isinstance(expr, Named):
            return (individual, expr.iri) in self.class_facts
        if isinstance(expr, And):
            return all(self.check(individual, p) for p in expr.parts)
        if isinstance(expr, ExistsSelf):
            return (individual, expr.role.iri, individual) in self.role_facts
        if isinstance(expr, (Exists, Forall)):
            successors = self.neighbours(individual, expr.role.iri,
                                         isinstance(expr.role, Inverse))
            test = any if isinstance(expr, Exists) else all
            return test(self.check(b, expr.filler) for b in successors)
        if not isinstance(expr.role, Role):
            raise UnsupportedFeatureError(
                "cardinality over an inverse role is not supported")
        return len(self.named_fillers(individual, expr.role.iri,
                                      expr.filler)) <= expr.n


@dataclass
class SaturatedAbox(_Facts):
    class_facts: set[tuple[str, str]]
    role_facts: set[tuple[str, str, str]]
    data_facts: set[tuple[str, str, Literal]]
    fresh: frozenset[str]
    clashes: tuple[ClashReport, ...]
    _index: dict[tuple[str, str, bool], set[str]] = field(repr=False,
                                                          compare=False)

    @property
    def clash(self) -> ClashReport | None:
        return self.clashes[0] if self.clashes else None


def display_class(expr: ClassExpr) -> str:
    """Compact rendering of a class expression for clash reports."""
    if isinstance(expr, Named):
        return expr.iri
    if isinstance(expr, Thing):
        return THING_IRI
    if isinstance(expr, Nothing):
        return NOTHING_IRI
    if isinstance(expr, And):
        return "(" + " and ".join(display_class(p) for p in expr.parts) + ")"
    if isinstance(expr, Exists):
        return f"({display_role(expr.role)} some {display_class(expr.filler)})"
    if isinstance(expr, ExistsSelf):
        return f"({display_role(expr.role)} some Self)"
    if isinstance(expr, Forall):
        return f"({display_role(expr.role)} only {display_class(expr.filler)})"
    return f"(max {expr.n} {display_role(expr.role)} {display_class(expr.filler)})"


def display_role(role: RoleExpr) -> str:
    return role.iri if isinstance(role, Role) else f"inverse({role.iri})"


def satisfies(sat: SaturatedAbox, individual: str, expr: ClassExpr) -> bool:
    return sat.check(individual, expr)


class _Engine(_Facts):
    def __init__(self, ont: Ontology):
        self.class_facts: set[tuple[str, str]] = set()
        self.role_facts: set[tuple[str, str, str]] = set()
        self._index: dict[tuple[str, str, bool], set[str]] = {}
        self.data_facts: set[tuple[str, str, Literal]] = set()
        self.fresh: set[str] = set()
        self.named = set(ont.all_individuals())
        self._witnesses: dict[tuple, str] = {}
        # compiled rules
        self.class_rules: list[tuple[ClassExpr, ClassExpr]] = []
        self.subroles: dict[str, set[str]] = {}
        self.flips: dict[str, set[str]] = {}
        self.chains: list[tuple[str, str, str]] = []
        self.domains: list[tuple[str, ClassExpr]] = []
        self.ranges: list[tuple[str, ClassExpr]] = []
        self.data_domains: list[tuple[str, ClassExpr]] = []
        self.irreflexive: set[str] = set()
        self.disjoint_classes: list[tuple[ClassExpr, ClassExpr]] = []
        self.disjoint_roles: list[tuple[str, str]] = []
        self.static_limits: list[tuple[ClassExpr, int, str, ClassExpr]] = []
        self.dynamic_limits: set[tuple[str, int, str, ClassExpr]] = set()
        for axiom in sorted(ont.tbox, key=repr):
            self._compile(axiom)
        for index, assertion in enumerate(sorted(ont.abox, key=repr)):
            self._seed(index, assertion)

    # -- compilation -----------------------------------------------------------

    @staticmethod
    def _named_role_iri(role: RoleExpr, where: str) -> str:
        if not isinstance(role, Role):
            raise UnsupportedFeatureError(f"an inverse role in {where} is not supported")
        return role.iri

    def _compile(self, axiom) -> None:
        if isinstance(axiom, SubClassOf):
            if isinstance(axiom.sub, ExistsSelf) and isinstance(axiom.sub.role, Role) \
                    and isinstance(axiom.sup, Nothing):
                self.irreflexive.add(axiom.sub.role.iri)
            elif isinstance(axiom.sup, MaxCard):
                iri = self._named_role_iri(axiom.sup.role, "a cardinality restriction")
                self.static_limits.append((axiom.sub, axiom.sup.n, iri,
                                           axiom.sup.filler))
            else:
                self._class_rule(axiom.sub, axiom.sup)
        elif isinstance(axiom, EquivalentClasses):
            self._class_rule(axiom.left, axiom.right)
            self._class_rule(axiom.right, axiom.left)
        elif isinstance(axiom, SubRoleOf):
            sub_inv = isinstance(axiom.sub, Inverse)
            sup_inv = isinstance(axiom.sup, Inverse)
            if sub_inv == sup_inv:  # inverse(r) into inverse(s) collapses to r into s
                self.subroles.setdefault(axiom.sub.iri, set()).add(axiom.sup.iri)
            else:
                self.flips.setdefault(axiom.sub.iri, set()).add(axiom.sup.iri)
        elif isinstance(axiom, RoleChain):
            self.chains.append((self._named_role_iri(axiom.first, "a role chain"),
                                self._named_role_iri(axiom.second, "a role chain"),
                                self._named_role_iri(axiom.implied, "a role chain")))
        elif isinstance(axiom, InverseRoles):
            self.flips.setdefault(axiom.left, set()).add(axiom.right)
            self.flips.setdefault(axiom.right, set()).add(axiom.left)
        elif isinstance(axiom, DisjointClasses):
            self.disjoint_classes.append((axiom.left, axiom.right))
        elif isinstance(axiom, DisjointRoles):
            self.disjoint_roles.append((axiom.left, axiom.right))
        elif isinstance(axiom, Domain):
            target = self.domains if isinstance(axiom.role, Role) else self.ranges
            target.append((axiom.role.iri, axiom.cls))
        elif isinstance(axiom, Range):
            target = self.ranges if isinstance(axiom.role, Role) else self.domains
            target.append((axiom.role.iri, axiom.cls))
        elif isinstance(axiom, DataDomain):
            self.data_domains.append((axiom.prop, axiom.cls))
        elif not isinstance(axiom, DataRange):  # datatype ranges carry no rule
            raise UnsupportedFeatureError(f"axiom {axiom!r} is not supported")

    def _class_rule(self, lhs: ClassExpr, rhs: ClassExpr) -> None:
        if self._mentions_forall(lhs) or self._mentions_forall(rhs):
            raise UnsupportedFeatureError(
                "universal restrictions in class axioms are not supported")
        self.class_rules.append((lhs, rhs))

    @staticmethod
    def _mentions_forall(expr: ClassExpr) -> bool:
        if isinstance(expr, Forall):
            return True
        if isinstance(expr, And):
            return any(_Engine._mentions_forall(p) for p in expr.parts)
        if isinstance(expr, (Exists, MaxCard)):
            return _Engine._mentions_forall(expr.filler)
        return False

    def _seed(self, index: int, assertion: Assertion) -> None:
        if isinstance(assertion, ClassAssertion):
            self.assert_expr(assertion.individual, assertion.cls,
                             ("abox", index), materialize=True)
        elif isinstance(assertion, RoleAssertion):
            self.add_role(assertion.subject, assertion.role, assertion.object)
        else:
            self.data_facts.add((assertion.subject, assertion.prop,
                                 assertion.value))

    # -- rule application --------------------------------------------------------

    def add_role(self, subject: str, role: str, obj: str) -> None:
        """The one writer of role_facts, which keeps _index in step."""
        if (subject, role, obj) not in self.role_facts:
            self.role_facts.add((subject, role, obj))
            self._index.setdefault((subject, role, False), set()).add(obj)
            self._index.setdefault((obj, role, True), set()).add(subject)

    def assert_expr(self, individual: str, expr: ClassExpr, key: tuple,
                    materialize: bool) -> None:
        """Record that individual belongs to expr, materializing existentials.

        key identifies the asserting context so each existential position
        gets exactly one witness no matter how often the rule re-fires.
        """
        if isinstance(expr, Thing):
            return
        if isinstance(expr, Nothing):
            self.class_facts.add((individual, NOTHING_IRI))
        elif isinstance(expr, Named):
            self.class_facts.add((individual, expr.iri))
        elif isinstance(expr, And):
            for position, part in enumerate(expr.parts):
                self.assert_expr(individual, part, key + (position,), materialize)
        elif isinstance(expr, ExistsSelf):
            self.add_role(individual, expr.role.iri, individual)
        elif isinstance(expr, Exists):
            if self.check(individual, expr) or not materialize:
                return
            witness = self._witnesses.get(key)
            if witness is None:
                witness = f"urn:witness:w{len(self._witnesses) + 1}"
                self._witnesses[key] = witness
                self.fresh.add(witness)
            if isinstance(expr.role, Role):
                self.add_role(individual, expr.role.iri, witness)
            else:
                self.add_role(witness, expr.role.iri, individual)
            self.assert_expr(witness, expr.filler, key + ("filler",), True)
        elif isinstance(expr, MaxCard):
            iri = self._named_role_iri(expr.role, "a cardinality restriction")
            self.dynamic_limits.add((individual, expr.n, iri, expr.filler))
        else:
            raise UnsupportedFeatureError(
                "universal restrictions cannot be asserted")

    def _pool(self) -> list[str]:
        return sorted(self.named) + sorted(self.fresh)

    def saturate(self) -> None:
        while True:
            size = (len(self.class_facts), len(self.role_facts), len(self.fresh))
            for subject, role, obj in sorted(self.role_facts):
                for sup in self.subroles.get(role, ()):
                    self.add_role(subject, sup, obj)
                for flipped in self.flips.get(role, ()):
                    self.add_role(obj, flipped, subject)
            for first, second, implied in self.chains:
                # both hops read the facts as they were before this chain
                derived = [(a, c) for (a, r, b) in self.role_facts if r == first
                           for c in self.neighbours(b, second, False)]
                for a, c in derived:
                    self.add_role(a, implied, c)
            for subject, role, obj in sorted(self.role_facts):
                for prop, cls in self.domains:
                    if prop == role:
                        self.assert_expr(subject, cls, ("domain", prop, subject),
                                         materialize=subject not in self.fresh)
                for prop, cls in self.ranges:
                    if prop == role:
                        self.assert_expr(obj, cls, ("range", prop, obj),
                                         materialize=obj not in self.fresh)
            for subject, prop, _value in sorted(self.data_facts,
                                                key=lambda f: f[:2]):
                for dprop, cls in self.data_domains:
                    if dprop == prop:
                        self.assert_expr(subject, cls, ("data-domain", dprop, subject),
                                         materialize=subject not in self.fresh)
            for index, (lhs, rhs) in enumerate(self.class_rules):
                for individual in self._pool():
                    if self.check(individual, lhs):
                        self.assert_expr(individual, rhs, ("rule", index, individual),
                                         materialize=individual not in self.fresh)
            if (len(self.class_facts), len(self.role_facts),
                    len(self.fresh)) == size:
                return

    # -- clash detection ---------------------------------------------------------

    def collect_clashes(self) -> tuple[ClashReport, ...]:
        found: set[tuple[str, tuple[str, ...]]] = set()
        for individual, cls in self.class_facts:
            if cls == NOTHING_IRI:
                found.add(("nothing-membership", (individual,)))
        for subject, role, obj in self.role_facts:
            if subject == obj and role in self.irreflexive:
                found.add(("irreflexive", (subject, role)))
        pool = self._pool()
        for left, right in self.disjoint_classes:
            for individual in pool:
                if self.check(individual, left) and self.check(individual, right):
                    found.add(("disjoint-classes",
                               (individual, display_class(left),
                                display_class(right))))
        for role_a, role_b in self.disjoint_roles:
            for subject, role, obj in self.role_facts:
                if role == role_a and (subject, role_b, obj) in self.role_facts:
                    found.add(("disjoint-roles", (subject, role_a, role_b, obj)))
        limits = [(individual, bound, role, filler)
                  for context, bound, role, filler in self.static_limits
                  for individual in pool if self.check(individual, context)]
        limits += sorted(self.dynamic_limits, key=lambda l: (l[0], l[2], l[1]))
        for individual, bound, role, filler in limits:
            fillers = sorted(self.named_fillers(individual, role, filler))
            if len(fillers) > bound:
                found.add(("max-cardinality",
                           (individual, role) + tuple(fillers)))
        return tuple(ClashReport(kind, culprits)
                     for kind, culprits in sorted(found))

    def result(self) -> SaturatedAbox:
        self.saturate()
        return SaturatedAbox(class_facts=self.class_facts,
                             role_facts=self.role_facts,
                             data_facts=self.data_facts,
                             fresh=frozenset(self.fresh),
                             clashes=self.collect_clashes(),
                             _index=self._index)


def saturate(ont: Ontology) -> SaturatedAbox:
    """Close the ABox under the compiled rule set and collect all clashes."""
    return _Engine(ont).result()


class Reasoner:
    """Reasoning facade over one immutable ontology.

    The saturation and subsumption answers are memoized per instance; the
    accepted backend profile names are interchangeable labels kept only
    for reporting.
    """

    PROFILES = ("hermit", "pellet", "fact")

    def __init__(self, ont: Ontology, profile: str = "hermit"):
        if profile not in self.PROFILES:
            raise ValueError(f"unknown reasoner profile {profile!r}; "
                             f"expected one of {', '.join(self.PROFILES)}")
        self.ontology = ont
        self.profile = profile
        self._saturation: SaturatedAbox | None = None
        self._subsumptions: dict[tuple[ClassExpr, ClassExpr], bool] = {}

    @property
    def saturation(self) -> SaturatedAbox:
        if self._saturation is None:
            self._saturation = saturate(self.ontology)
        return self._saturation

    def _require_consistent(self, task: str) -> SaturatedAbox:
        sat = self.saturation
        if sat.clashes:
            clash = sat.clashes[0]
            raise InconsistentOntologyError(
                f"{task} is undefined on an inconsistent ontology "
                f"({clash.kind}: {', '.join(clash.culprits)})")
        return sat

    def is_consistent(self) -> bool:
        return not self.saturation.clashes

    def instances(self, expr: ClassExpr) -> set[str]:
        sat = self._require_consistent("instance retrieval")
        return {a for a in self.ontology.all_individuals()
                if satisfies(sat, a, expr)}

    def is_instance_of(self, individual: str, expr: ClassExpr) -> bool:
        sat = self._require_consistent("instance checking")
        return satisfies(sat, individual, expr)

    def holds(self, subject: str, role: str, obj: str) -> bool:
        return (subject, role, obj) in self.saturation.role_facts

    def property_values(self, subject: str, role: str) -> set[str]:
        return self.saturation.named_fillers(subject, role, Thing())

    def is_subsumed(self, sub: ClassExpr, sup: ClassExpr) -> bool:
        key = (sub, sup)
        if key not in self._subsumptions:
            canonical = Ontology(
                iri=self.ontology.iri, tbox=self.ontology.tbox,
                abox=frozenset({ClassAssertion(CANONICAL_INDIVIDUAL, sub)}))
            sat = saturate(canonical)
            self._subsumptions[key] = bool(sat.clashes) or \
                satisfies(sat, CANONICAL_INDIVIDUAL, sup)
        return self._subsumptions[key]

    def subclasses(self, expr: ClassExpr, direct: bool = False) -> set[str]:
        skip = expr.iri if isinstance(expr, Named) else \
            NOTHING_IRI if isinstance(expr, Nothing) else None
        candidates = sorted(self.ontology.named_classes() | {NOTHING_IRI})
        subs = {iri for iri in candidates
                if iri != skip and self.is_subsumed(self._as_expr(iri), expr)}
        if not direct:
            return subs
        out = set()
        for iri in subs:
            strictly_below = any(
                other != iri
                and self.is_subsumed(self._as_expr(iri), self._as_expr(other))
                and not self.is_subsumed(self._as_expr(other), self._as_expr(iri))
                and not self.is_subsumed(expr, self._as_expr(other))
                for other in subs)
            if not strictly_below:
                out.add(iri)
        return out

    @staticmethod
    def _as_expr(iri: str) -> ClassExpr:
        if iri == NOTHING_IRI:
            return Nothing()
        if iri == THING_IRI:
            return Thing()
        return Named(iri)
