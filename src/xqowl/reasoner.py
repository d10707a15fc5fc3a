"""Forward-chaining reasoner over the supported ontology fragment.

The ABox is saturated to a least fixpoint under Horn rules compiled, once
per Reasoner, from the TBox (subclass/equivalence, role hierarchy,
inverse-of flips, of which a symmetric role r has InverseRoles(r, r),
length-2 chains, domain/range, data-property domains), where every role
is named.  Saturation is semi-naive: a role rule reads only the role facts
added since it last ran, and a class rule, indexed by the names its
left-hand side reads, checks an individual only when such a fact is new,
from the first round on; rules fire in the naive order, on which witness
creation depends.  Right-hand-side existentials get fresh witnesses, one per
(context, conjunct position) and named by a digest of it; witnesses never
create further witnesses, which bounds the saturation.  Role facts are
indexed by (individual, role, inverse?).  After the fixpoint, clashes are
looked up there and in the members of the classes clash axioms name, never
raised: disjoint-classes (individual, class, class), disjoint-roles (subject,
role, role, object), irreflexive (individual, role), max-cardinality
(individual, role, filler, ...), nothing-membership (individual,).

Named individuals are assumed pairwise distinct, so an over-full
cardinality restriction is a clash rather than a merge.  Subsumption is
decided on a canonical model: seed a fresh individual into the subclass,
saturate, and test its membership in the superclass (a seed with a clash
subsumes vacuously); subclass retrieval saturates one seed per class at once.
"""

from __future__ import annotations

import hashlib
from collections import defaultdict
from dataclasses import dataclass, field
from functools import cached_property

from .errors import InconsistentOntologyError, UnsupportedFeatureError
from .owl import (
    And, ClassAssertion, ClassExpr, DataDomain, DataRange, DisjointClasses,
    DisjointRoles, Domain, EquivalentClasses, Exists, ExistsSelf, InverseRoles,
    MaxCard, Named, Nothing, NOTHING_IRI, Ontology, Range, RoleAssertion, RoleChain,
    SubClassOf, SubRoleOf, Thing, class_of_iri,
)
from .rdf import Literal


@dataclass(frozen=True)
class ClashReport:
    kind: str
    culprits: tuple[str, ...]


class _Facts:
    """Membership tests over class_facts, role_facts, fresh and _index, which
    maps (individual, role, inverse?) to the individual's neighbours over that
    role, or over its inverse, so no test scans role_facts."""

    def neighbours(self, individual: str, role: str,
                   inverse: bool) -> set[str] | tuple[()]:
        return self._index.get((individual, role, inverse), ())

    def named_fillers(self, individual: str, role: str, filler: ClassExpr) -> set[str]:
        """Named role successors in filler (witnesses are unconstrained)."""
        return {o for o in self.neighbours(individual, role, False)
                if o not in self.fresh and self.check(o, filler)}

    def check(self, individual: str, expr: ClassExpr) -> bool:
        """Structural membership test against the saturated facts."""
        if isinstance(expr, Thing):
            return True
        if isinstance(expr, (Named, Nothing)):
            return (individual, expr.iri) in self.class_facts
        if isinstance(expr, And):
            return all(self.check(individual, p) for p in expr.parts)
        if isinstance(expr, ExistsSelf):
            return (individual, expr.role.iri, individual) in self.role_facts
        if isinstance(expr, Exists):
            return any(self.check(b, expr.filler)
                       for b in self.neighbours(individual, expr.role.iri, False))
        return len(self.named_fillers(individual, expr.role.iri, expr.filler)) <= expr.n


@dataclass
class SaturatedAbox(_Facts):
    class_facts: set[tuple[str, str]]
    role_facts: set[tuple[str, str, str]]
    data_facts: set[tuple[str, str, Literal]]
    fresh: frozenset[str]
    clashes: tuple[ClashReport, ...]
    _index: dict[tuple[str, str, bool], set[str]] = field(repr=False, compare=False)

    @property
    def clash(self) -> ClashReport | None:
        return self.clashes[0] if self.clashes else None


def display_class(expr: ClassExpr) -> str:
    """Compact rendering of a class expression for clash reports."""
    if isinstance(expr, (Named, Nothing, Thing)):
        return expr.iri
    if isinstance(expr, And):
        return "(" + " and ".join(display_class(p) for p in expr.parts) + ")"
    if isinstance(expr, ExistsSelf):
        return f"({expr.role.iri} some Self)"
    if isinstance(expr, Exists):
        return f"({expr.role.iri} some {display_class(expr.filler)})"
    return f"(max {expr.n} {expr.role.iri} {display_class(expr.filler)})"


def _mentions(expr: ClassExpr, kind: type) -> bool:
    if isinstance(expr, And):
        return any(_mentions(p, kind) for p in expr.parts)
    return isinstance(expr, kind) or isinstance(expr, (Exists, MaxCard)) \
        and _mentions(expr.filler, kind)


def witness_name(key: tuple) -> str:
    """The witness of an existential position, named by a digest of its key."""
    return "urn:witness:" + hashlib.sha256(repr(key).encode()).hexdigest()[:16]


class _Rules:
    """A TBox sorted once by repr and compiled once.

    typing maps (property, "domain"/"range"/"data-domain") to classes.
    triggers maps a class IRI, or (role IRI, False/None for a fact read at
    its subject/as a self-loop), to (rule, path): the class rules reading it
    and the roles stepped along from their individual to it.
    bare: the class rules whose left-hand side holds where no fact is known.
    unstable: an asserted class has a cardinality bound, so asserting it
    twice can add facts (an existential's filler may stop holding).
    """

    def __init__(self, tbox) -> None:
        self.class_rules, self.chains, self.disjoint_classes = [], [], []
        self.subroles, self.flips, self.irreflexive = defaultdict(list), defaultdict(list), []
        self.static_limits, self.disjoint_roles = defaultdict(list), defaultdict(list)
        self.typing, self.triggers = defaultdict(list), defaultdict(list)
        for axiom in sorted(tbox, key=repr):
            self._compile(axiom)
        asserted = [rhs for _, rhs in self.class_rules] + [
            cls for classes in self.typing.values() for cls in classes]
        self.unstable = any(_mentions(cls, MaxCard) for cls in asserted)
        self.clash_roles = {*self.irreflexive, *self.static_limits, *self.disjoint_roles}
        self.clash_classes = {NOTHING_IRI}.union(*(c[2] for c in self.disjoint_classes))
        empty = SaturatedAbox(set(), set(), set(), frozenset(), (), {})  # no fact known
        self.bare = {rule for rule, (lhs, _) in enumerate(self.class_rules)
                     if empty.check("", lhs)}

    def _compile(self, axiom) -> None:
        if isinstance(axiom, SubClassOf):
            if isinstance(axiom.sub, ExistsSelf) and isinstance(axiom.sup, Nothing):
                self.irreflexive.append(axiom.sub.role.iri)
            elif isinstance(axiom.sup, MaxCard):
                self.static_limits[axiom.sup.role.iri].append((axiom.sub, axiom.sup.n,
                                                               axiom.sup.filler))
            else:
                self._class_rule(axiom.sub, axiom.sup)
        elif isinstance(axiom, EquivalentClasses):
            self._class_rule(axiom.left, axiom.right)
            self._class_rule(axiom.right, axiom.left)
        elif isinstance(axiom, SubRoleOf):
            self.subroles[axiom.sub.iri].append(axiom.sup.iri)
        elif isinstance(axiom, RoleChain):
            self.chains.append((axiom.first.iri, axiom.second.iri, axiom.implied.iri))
        elif isinstance(axiom, InverseRoles):
            self.flips[axiom.left].append(axiom.right)
            if axiom.right != axiom.left:  # a symmetric role flips once
                self.flips[axiom.right].append(axiom.left)
        elif isinstance(axiom, DisjointClasses):
            self.disjoint_classes.append((axiom.left, axiom.right, [side.iri for side in (
                axiom.left, axiom.right) if isinstance(side, (Named, Nothing))]))
        elif isinstance(axiom, DisjointRoles):
            self.disjoint_roles[axiom.left].append(axiom.right)
        elif isinstance(axiom, (Domain, Range)):
            side = "domain" if isinstance(axiom, Domain) else "range"
            self.typing[axiom.role.iri, side].append(axiom.cls)
        elif isinstance(axiom, DataDomain):
            self.typing[axiom.prop, "data-domain"].append(axiom.cls)
        elif not isinstance(axiom, DataRange):  # datatype ranges carry no rule
            raise UnsupportedFeatureError(f"axiom {axiom!r} is not supported")

    def _class_rule(self, lhs: ClassExpr, rhs: ClassExpr) -> None:
        self._triggers(len(self.class_rules), lhs, ())
        self.class_rules.append((lhs, rhs))

    def _triggers(self, rule: int, expr: ClassExpr, path: tuple) -> None:
        if isinstance(expr, (Named, Nothing)):
            self.triggers[expr.iri].append((rule, path))
        elif isinstance(expr, And):
            for part in expr.parts:
                self._triggers(rule, part, path)
        elif isinstance(expr, ExistsSelf):
            self.triggers[expr.role.iri, None].append((rule, path))
        elif isinstance(expr, (Exists, MaxCard)):
            self.triggers[expr.role.iri, False].append((rule, path))
            self._triggers(rule, expr.filler, path + (expr.role.iri,))


class _Engine(_Facts):
    """One saturation of an ontology's ABox under compiled rules.

    _dirty holds per class rule the individuals to check, where a fact its
    left-hand side reads is new (only such a fact makes it true, bar bare
    rules, which check each individual once); unstable rules check every
    individual every round: only their firing twice on one can add facts.
    """

    def __init__(self, rules: _Rules, ont: Ontology):
        self.rules, self.named = rules, set(ont.all_individuals())
        self.class_facts, self.role_facts, self.data_facts = set(), set(), set()
        self.fresh, self.dynamic_limits, self._index = set(), set(), defaultdict(set)
        self._log: list[tuple[str, str, str]] = []  # role facts in the order added
        self._read = [0] * (len(rules.chains) + 2)  # read of _log: flips, chains, typing
        self._dirty = [set(self.named) if rule in rules.bare else set()
                       for rule in range(len(rules.class_rules))]
        # class assertions first, in repr order, as witnesses depend on it
        classes = sorted((a for a in ont.abox if isinstance(a, ClassAssertion)), key=repr)
        for index, fact in enumerate(classes):
            self.assert_expr(fact.individual, fact.cls, ("abox", index), True)
        for fact in ont.abox:
            if isinstance(fact, RoleAssertion):
                self.add_role(fact.subject, fact.role, fact.object)
            elif not isinstance(fact, ClassAssertion):
                self.data_facts.add((fact.subject, fact.prop, fact.value))

    def add_role(self, subject: str, role: str, obj: str) -> None:
        """The one writer of role_facts, which keeps _index and _log in step."""
        fact = (subject, role, obj)
        if fact not in self.role_facts:
            self.role_facts.add(fact)
            self._log.append(fact)
            self._index[subject, role, False].add(obj)
            self._index[obj, role, True].add(subject)
            self._touch((role, False), subject)
            if subject == obj:
                self._touch((role, None), subject)

    def _touch(self, trigger, node: str) -> None:
        """Mark trigger's class rules to check what reaches node along its path."""
        for rule, path in self.rules.triggers.get(trigger, ()):
            nodes = (node,)
            for role in reversed(path):
                nodes = {p for n in nodes for p in self.neighbours(n, role, True)}
            self._dirty[rule].update(nodes)

    def assert_expr(self, individual: str, expr: ClassExpr, key: tuple,
                    materialize: bool) -> None:
        """Record that individual belongs to expr, materializing existentials.

        key identifies the asserting context, so each existential position
        has one witness, named by key, however often the rule fires."""
        if isinstance(expr, (Named, Nothing)):
            if (individual, expr.iri) not in self.class_facts:
                self.class_facts.add((individual, expr.iri))
                self._touch(expr.iri, individual)
        elif isinstance(expr, And):
            for position, part in enumerate(expr.parts):
                self.assert_expr(individual, part, key + (position,), materialize)
        elif isinstance(expr, ExistsSelf):
            self.add_role(individual, expr.role.iri, individual)
        elif isinstance(expr, Exists):
            if self.check(individual, expr) or not materialize:
                return
            witness = witness_name(key)
            if witness not in self.fresh:
                self.fresh.add(witness)
                for rule in self.rules.bare:
                    self._dirty[rule].add(witness)
            self.add_role(individual, expr.role.iri, witness)
            self.assert_expr(witness, expr.filler, key + ("filler",), True)
        elif isinstance(expr, MaxCard):
            self.dynamic_limits.add((individual, expr.n, expr.role.iri, expr.filler))

    def _type(self, individual: str, prop: str, side: str) -> None:
        for cls in self.rules.typing.get((prop, side), ()):
            self.assert_expr(individual, cls, (side, prop, individual),
                             materialize=individual not in self.fresh)

    def _unread(self, reader: int) -> list[tuple[str, str, str]]:
        """The role facts added since reader last read _log."""
        start, self._read[reader] = self._read[reader], len(self._log)
        return self._log[start:]

    def saturate(self) -> None:
        rules, first_round, pool = self.rules, True, []
        while True:
            size = (len(self.class_facts), len(self.role_facts), len(self.fresh))
            for subject, role, obj in self._unread(0):
                for sup in rules.subroles.get(role, ()):
                    self.add_role(subject, sup, obj)
                for flipped in rules.flips.get(role, ()):
                    self.add_role(obj, flipped, subject)
            for reader, (first, second, implied) in enumerate(rules.chains, 1):
                new = self._unread(reader)  # both hops read facts from before it
                derived = [(a, c) for (a, r, b) in new if r == first
                           for c in self.neighbours(b, second, False)]
                derived += [(a, c) for (b, r, c) in new if r == second
                            for a in self.neighbours(b, first, True)]
                for a, c in derived:
                    self.add_role(a, implied, c)
            new = self._unread(len(rules.chains) + 1)
            for subject, role, obj in sorted(self.role_facts if rules.unstable else new):
                self._type(subject, role, "domain")
                self._type(obj, role, "range")
            for subject, prop, _value in sorted(self.data_facts, key=lambda f: f[:2]) \
                    if first_round or rules.unstable else ():
                self._type(subject, prop, "data-domain")
            for index, (lhs, rhs) in enumerate(rules.class_rules):
                dirty, every = self._dirty[index], rules.unstable
                if (dirty or every) and len(pool) < len(self.named) + len(self.fresh):
                    pool = sorted(self.named) + sorted(self.fresh)
                # what firing adds for an individual later in the pool is seen now
                for individual in pool if dirty or every else ():
                    if every or individual in dirty:
                        dirty.discard(individual)
                        if self.check(individual, lhs):
                            self.assert_expr(individual, rhs, ("rule", index, individual),
                                             materialize=individual not in self.fresh)
            first_round = False
            if (len(self.class_facts), len(self.role_facts), len(self.fresh)) == size:
                return

    def collect_clashes(self) -> tuple[ClashReport, ...]:
        rules, by_role, members = self.rules, defaultdict(dict), defaultdict(list)
        for (s, r, inverse), objects in self._index.items():
            if not inverse and r in rules.clash_roles:
                by_role[r][s] = objects  # s's neighbours over r
        for a, c in self.class_facts:
            if c in rules.clash_classes:
                members[c].append(a)
        found = {("nothing-membership", (a,)) for a in members[NOTHING_IRI]}
        found |= {("irreflexive", (s, r)) for r in rules.irreflexive
                  for s, objects in by_role[r].items() if s in objects}
        for left, right, sides in rules.disjoint_classes:  # a named side's members, or all
            pool = min([members[c] for c in sides] or [self.named | self.fresh], key=len)
            found |= {("disjoint-classes", (a, display_class(left), display_class(right)))
                      for a in pool if self.check(a, left) and self.check(a, right)}
        found |= {("disjoint-roles", (s, p, q, o)) for p, qs in rules.disjoint_roles.items()
                  for q in qs for s, objects in by_role[p].items()
                  for o in objects if (s, q, o) in self.role_facts}
        limits = [(a, bound, role, filler) for role, bounds in rules.static_limits.items()
                  for context, bound, filler in bounds for a, objects in by_role[role].items()
                  if len(objects) > bound and self.check(a, context)]  # fillers ⊆ objects
        for a, bound, role, filler in limits + list(self.dynamic_limits):
            fillers = sorted(self.named_fillers(a, role, filler))
            if len(fillers) > bound:
                found.add(("max-cardinality", (a, role) + tuple(fillers)))
        return tuple(ClashReport(kind, culprits) for kind, culprits in sorted(found))

    def result(self) -> SaturatedAbox:
        self.saturate()
        return SaturatedAbox(self.class_facts, self.role_facts, self.data_facts,
                             frozenset(self.fresh), self.collect_clashes(),
                             self._index)


def saturate(ont: Ontology, rules: _Rules | None = None) -> SaturatedAbox:
    """Close the ABox under ont.tbox, or rules compiled from it, and collect clashes."""
    return _Engine(_Rules(ont.tbox) if rules is None else rules, ont).result()


class Reasoner:
    """Reasoning facade over one immutable ontology.

    The compiled TBox, the saturation and each class expression's canonical
    model (all named classes' from one saturation) are memoized per instance;
    the backend profile names are interchangeable labels kept for reporting.
    """

    PROFILES = ("hermit", "pellet", "fact")

    def __init__(self, ont: Ontology, profile: str = "hermit"):
        if profile not in self.PROFILES:
            raise ValueError(f"unknown reasoner profile {profile!r}; "
                             f"expected one of {', '.join(self.PROFILES)}")
        self.ontology, self.profile = ont, profile
        self._models: dict[ClassExpr, tuple[SaturatedAbox, str, bool]] = {}

    @cached_property
    def _rules(self) -> _Rules:
        return _Rules(self.ontology.tbox)

    @cached_property
    def saturation(self) -> SaturatedAbox:
        return saturate(self.ontology, self._rules)

    def _require_consistent(self, task: str) -> SaturatedAbox:
        sat = self.saturation
        if sat.clash:
            raise InconsistentOntologyError(
                f"{task} is undefined on an inconsistent ontology "
                f"({sat.clash.kind}: {', '.join(sat.clash.culprits)})")
        return sat

    def is_consistent(self) -> bool:
        return not self.saturation.clashes

    def instances(self, expr: ClassExpr) -> set[str]:
        sat = self._require_consistent("instance retrieval")
        return {a for a in self.ontology.all_individuals() if sat.check(a, expr)}

    def is_instance_of(self, individual: str, expr: ClassExpr) -> bool:
        return self._require_consistent("instance checking").check(individual, expr)

    def holds(self, subject: str, role: str, obj: str) -> bool:
        return (subject, role, obj) in self.saturation.role_facts

    def property_values(self, subject: str, role: str) -> set[str]:
        return self.saturation.named_fillers(subject, role, Thing())

    def _saturate_seeds(self, exprs: list[ClassExpr]) -> None:
        """Saturate one seed per class expression together; keep each one's model."""
        seeds = [f"urn:canonical:{index}" for index in range(len(exprs))]
        abox = frozenset(map(ClassAssertion, seeds, exprs))
        model = saturate(Ontology(self.ontology.iri, self.ontology.tbox, abox), self._rules)
        # Seeds share no role fact or witness (a witness's key holds the individual
        # it serves; ROADMAP direction 6b's shared witnesses would break this), so a
        # clash belongs to the seed whose role-connected component holds its first culprit.
        parent: dict[str, str] = {}

        def root(node: str) -> str:
            while parent.get(node, node) != node:
                node = parent[node]
            return node
        for subject, _, obj in model.role_facts:
            parent[root(subject)] = root(obj)
        clashed = {root(clash.culprits[0]) for clash in model.clashes}
        for expr, seed in zip(exprs, seeds):
            self._models.setdefault(expr, (model, seed, root(seed) in clashed))

    def is_subsumed(self, sub: ClassExpr, sup: ClassExpr) -> bool:
        if sub not in self._models:
            self._saturate_seeds([sub])
        model, seed, clashed = self._models[sub]
        return clashed or model.check(seed, sup)

    @cached_property
    def _classes(self) -> dict[str, ClassExpr]:
        """Named classes and owl:Nothing, given canonical models by one saturation."""
        classes = {iri: class_of_iri(iri)
                   for iri in sorted(self.ontology.named_classes() | {NOTHING_IRI})}
        self._saturate_seeds([*classes.values(), Thing()])  # Thing's for the direct filter
        return classes

    def subclasses(self, expr: ClassExpr, direct: bool = False) -> set[str]:
        classes = self._classes
        skip = expr.iri if isinstance(expr, (Named, Nothing)) else None
        subs = {iri for iri, cls in classes.items()
                if iri != skip and self.is_subsumed(cls, expr)}
        if not direct:
            return subs
        return {iri for iri in subs if not any(  # strictly below another
            other != iri and self.is_subsumed(classes[iri], classes[other])
            and not self.is_subsumed(classes[other], classes[iri])
            and not self.is_subsumed(expr, classes[other])
            for other in subs)}
