"""Saturation, clash detection, and canonical-model subsumption."""

from __future__ import annotations

import random
from dataclasses import replace

import pytest

from conftest import fixture_text
from xqowl.errors import InconsistentOntologyError, UnsupportedFeatureError
from xqowl.owl import (
    And, ClassAssertion, ClassExpr, DisjointClasses, DisjointRoles, Domain,
    EquivalentClasses, Exists, ExistsSelf, Forall, Inverse, InverseRoles,
    MaxCard, Named, Nothing, NOTHING_IRI, Ontology, Range, Role, RoleAssertion,
    RoleChain, SubClassOf, SubRoleOf, Thing, functional_axiom,
    irreflexive_axiom, load_ontology, symmetric_axiom,
)
from xqowl.rdf import parse_rdfxml
from xqowl.reasoner import (
    ClashReport, Reasoner, display_class, saturate, satisfies,
)

SN = "http://www.semanticweb.org/socialnetwork.owl#"


def sn(name: str) -> str:
    return SN + name


def ex(name: str) -> str:
    return "urn:ex:" + name


def ont_of(tbox=(), abox=()) -> Ontology:
    return Ontology(iri="", tbox=frozenset(tbox), abox=frozenset(abox))


def role_pairs(sat, role: str) -> set[tuple[str, str]]:
    return {(s, o) for (s, r, o) in sat.role_facts if r == role}


@pytest.fixture(scope="module")
def social() -> Ontology:
    return load_ontology(parse_rdfxml(fixture_text("socialnetwork.owl")))


@pytest.fixture(scope="module")
def social_reasoner(social) -> Reasoner:
    return Reasoner(social)


class TestSaturation:
    def test_fixture_has_no_clash_and_no_witnesses(self, social):
        sat = saturate(social)
        assert sat.clashes == ()
        assert sat.clash is None
        assert sat.fresh == frozenset()

    def test_input_assertions_are_preserved(self, social):
        sat = saturate(social)
        for assertion in social.abox:
            if isinstance(assertion, RoleAssertion):
                assert (assertion.subject, assertion.role,
                        assertion.object) in sat.role_facts
            elif isinstance(assertion, ClassAssertion):
                assert satisfies(sat, assertion.individual, assertion.cls)
            else:
                assert (assertion.subject, assertion.prop,
                        assertion.value) in sat.data_facts

    def test_subrole_rule_derives_creators(self, social):
        assert role_pairs(saturate(social), sn("created_by")) == {
            (sn("message1"), sn("jesus")),
            (sn("message2"), sn("luis")),
            (sn("event1"), sn("luis")),
        }

    def test_symmetry_closes_friendship(self, social):
        assert role_pairs(saturate(social), sn("friend_of")) == {
            (sn("jesus"), sn("luis")), (sn("luis"), sn("jesus")),
            (sn("vicente"), sn("luis")), (sn("luis"), sn("vicente")),
        }

    def test_inverse_rule_derives_confirmation(self, social):
        sat = saturate(social)
        assert (sn("event1"), sn("confirmed_by"), sn("vicente")) in sat.role_facts
        assert (sn("message2"), sn("liked_by"), sn("vicente")) in sat.role_facts

    def test_chain_derives_recommended_friends(self, social):
        assert role_pairs(saturate(social), sn("recommended_friend_of")) == {
            (sn("jesus"), sn("jesus")), (sn("jesus"), sn("vicente")),
            (sn("luis"), sn("luis")),
            (sn("vicente"), sn("jesus")), (sn("vicente"), sn("vicente")),
        }

    def test_popularity_is_derived_for_the_right_individuals(self, social):
        sat = saturate(social)
        assert (sn("event1"), sn("popular")) in sat.class_facts
        assert (sn("message2"), sn("popular")) in sat.class_facts
        assert (sn("jesus"), sn("popular")) not in sat.class_facts
        assert (sn("message1"), sn("popular")) not in sat.class_facts

    def test_domain_and_range_type_the_endpoints(self, social):
        sat = saturate(social)
        assert (sn("message1"), sn("activity")) in sat.class_facts
        assert (sn("event1"), sn("activity")) in sat.class_facts
        assert (sn("vicente"), sn("user")) in sat.class_facts

    def test_saturation_is_deterministic(self, social):
        assert saturate(social) == saturate(social)

    def test_empty_ontology_saturates_to_nothing(self):
        sat = saturate(ont_of())
        assert sat.class_facts == set() and sat.role_facts == set()
        assert sat.data_facts == set() and sat.fresh == frozenset()
        assert sat.clashes == ()


class TestConsistency:
    def test_fixture_is_consistent(self, social_reasoner):
        assert social_reasoner.is_consistent()

    def test_missing_creator_is_not_a_violation(self, social_reasoner):
        # at-most-one constraints tolerate zero fillers
        assert social_reasoner.property_values(sn("event2"), sn("created_by")) == set()
        assert social_reasoner.is_consistent()

    @pytest.mark.parametrize("extra,kind,culprits", [
        (RoleAssertion(sn("jesus"), sn("friend_of"), sn("jesus")),
         "irreflexive", (sn("jesus"), sn("friend_of"))),
        (RoleAssertion(sn("message1"), sn("sent_by"), sn("luis")),
         "max-cardinality",
         (sn("message1"), sn("created_by"), sn("jesus"), sn("luis"))),
        (RoleAssertion(sn("message1"), sn("replies_to"), sn("message1")),
         "irreflexive", (sn("message1"), sn("replies_to"))),
    ])
    def test_single_bad_assertion_yields_one_clash(self, social, extra, kind,
                                                   culprits):
        sat = saturate(replace(social, abox=social.abox | {extra}))
        assert sat.clashes == (ClashReport(kind, culprits),)
        assert sat.clash == ClashReport(kind, culprits)
        assert not Reasoner(replace(social, abox=social.abox | {extra})).is_consistent()


class TestClashKinds:
    def test_disjoint_classes(self):
        ont = ont_of(
            tbox={DisjointClasses(Named(ex("A")), Named(ex("B")))},
            abox={ClassAssertion(ex("i"), Named(ex("A"))),
                  ClassAssertion(ex("i"), Named(ex("B")))})
        assert saturate(ont).clashes == (
            ClashReport("disjoint-classes", (ex("i"), ex("A"), ex("B"))),)

    def test_disjoint_classes_through_inference(self):
        ont = ont_of(
            tbox={DisjointClasses(Named(ex("A")), Named(ex("B"))),
                  SubClassOf(Named(ex("C")), Named(ex("B")))},
            abox={ClassAssertion(ex("i"), Named(ex("A"))),
                  ClassAssertion(ex("i"), Named(ex("C")))})
        assert saturate(ont).clash.kind == "disjoint-classes"

    def test_disjoint_roles(self):
        ont = ont_of(
            tbox={DisjointRoles(ex("p"), ex("q"))},
            abox={RoleAssertion(ex("a"), ex("p"), ex("b")),
                  RoleAssertion(ex("a"), ex("q"), ex("b"))})
        assert saturate(ont).clashes == (
            ClashReport("disjoint-roles", (ex("a"), ex("p"), ex("q"), ex("b"))),)

    def test_disjoint_roles_need_the_same_pair(self):
        ont = ont_of(
            tbox={DisjointRoles(ex("p"), ex("q"))},
            abox={RoleAssertion(ex("a"), ex("p"), ex("b")),
                  RoleAssertion(ex("a"), ex("q"), ex("c"))})
        assert saturate(ont).clashes == ()

    def test_nothing_membership(self):
        ont = ont_of(tbox={SubClassOf(Named(ex("A")), Nothing())},
                     abox={ClassAssertion(ex("i"), Named(ex("A")))})
        assert saturate(ont).clashes == (
            ClashReport("nothing-membership", (ex("i"),)),)

    def test_irreflexive_requires_a_self_loop(self):
        ont = ont_of(tbox={irreflexive_axiom(ex("p"))},
                     abox={RoleAssertion(ex("a"), ex("p"), ex("b"))})
        assert saturate(ont).clashes == ()

    def test_cardinality_counts_only_qualified_fillers(self):
        tbox = {SubClassOf(Thing(), MaxCard(1, Role(ex("p")), Named(ex("B"))))}
        abox = {RoleAssertion(ex("a"), ex("p"), ex("b1")),
                RoleAssertion(ex("a"), ex("p"), ex("b2")),
                ClassAssertion(ex("b1"), Named(ex("B")))}
        assert saturate(ont_of(tbox, abox)).clashes == ()
        abox.add(ClassAssertion(ex("b2"), Named(ex("B"))))
        assert saturate(ont_of(tbox, abox)).clashes == (
            ClashReport("max-cardinality",
                        (ex("a"), ex("p"), ex("b1"), ex("b2"))),)

    def test_cardinality_applies_only_inside_its_context(self):
        tbox = {SubClassOf(Named(ex("C")), MaxCard(1, Role(ex("p")), Thing()))}
        abox = {RoleAssertion(ex("a"), ex("p"), ex("b1")),
                RoleAssertion(ex("a"), ex("p"), ex("b2"))}
        assert saturate(ont_of(tbox, abox)).clashes == ()
        abox.add(ClassAssertion(ex("a"), Named(ex("C"))))
        assert saturate(ont_of(tbox, abox)).clash.kind == "max-cardinality"

    def test_all_clashes_are_collected(self, social):
        extras = {RoleAssertion(sn("jesus"), sn("friend_of"), sn("jesus")),
                  RoleAssertion(sn("message1"), sn("replies_to"), sn("message1"))}
        sat = saturate(replace(social, abox=social.abox | extras))
        assert {c.kind for c in sat.clashes} == {"irreflexive"}
        assert len(sat.clashes) == 2
        assert sat.clash == sat.clashes[0]


class TestWitnesses:
    def test_unsatisfied_existential_introduces_one_witness(self):
        ont = ont_of(
            tbox={SubClassOf(Named(ex("A")), Exists(Role(ex("p")), Named(ex("B"))))},
            abox={ClassAssertion(ex("a"), Named(ex("A")))})
        sat = saturate(ont)
        assert len(sat.fresh) == 1
        witness = next(iter(sat.fresh))
        assert (ex("a"), ex("p"), witness) in sat.role_facts
        assert (witness, ex("B")) in sat.class_facts
        assert satisfies(sat, ex("a"), Exists(Role(ex("p")), Named(ex("B"))))

    def test_satisfied_existential_introduces_no_witness(self):
        ont = ont_of(
            tbox={SubClassOf(Named(ex("A")), Exists(Role(ex("p")), Named(ex("B"))))},
            abox={ClassAssertion(ex("a"), Named(ex("A"))),
                  RoleAssertion(ex("a"), ex("p"), ex("b")),
                  ClassAssertion(ex("b"), Named(ex("B")))})
        assert saturate(ont).fresh == frozenset()

    def test_witnesses_never_spawn_further_witnesses(self):
        ont = ont_of(
            tbox={SubClassOf(Named(ex("A")), Exists(Role(ex("p")), Named(ex("B")))),
                  SubClassOf(Named(ex("B")), Exists(Role(ex("p")), Named(ex("B"))))},
            abox={ClassAssertion(ex("a"), Named(ex("A")))})
        sat = saturate(ont)
        assert len(sat.fresh) == 1

    def test_witnesses_still_receive_atomic_superclasses(self):
        ont = ont_of(
            tbox={SubClassOf(Named(ex("A")), Exists(Role(ex("p")), Named(ex("B")))),
                  SubClassOf(Named(ex("B")), Named(ex("C")))},
            abox={ClassAssertion(ex("a"), Named(ex("A")))})
        sat = saturate(ont)
        witness = next(iter(sat.fresh))
        assert (witness, ex("C")) in sat.class_facts

    def test_witness_fillers_do_not_trip_cardinality(self):
        ont = ont_of(
            tbox={SubClassOf(Named(ex("A")), Exists(Role(ex("p")), Thing())),
                  functional_axiom(ex("p"))},
            abox={ClassAssertion(ex("a"), Named(ex("A")))})
        sat = saturate(ont)
        assert len(sat.fresh) == 1
        assert sat.clashes == ()

    def test_inverse_existential_points_at_the_individual(self):
        ont = ont_of(
            tbox={SubClassOf(Named(ex("A")),
                             Exists(Inverse(ex("p")), Named(ex("B"))))},
            abox={ClassAssertion(ex("a"), Named(ex("A")))})
        sat = saturate(ont)
        witness = next(iter(sat.fresh))
        assert (witness, ex("p"), ex("a")) in sat.role_facts

    def test_chain_pass_reads_the_facts_from_before_it(self):
        # Ten paths x0 -r-> x1 -r-> x2 -r-> x3 with A(x0) and B(x3). The first
        # round's chain pass reads only the facts from before it, so x0
        # reaches x2 but not x3 when the existential fires, and every x0
        # gets a witness, named in pool order.
        r = ex("r")
        paths = [[ex(f"k{k}x{i}") for i in range(4)] for k in range(10)]
        abox = set()
        for path in paths:
            abox |= {RoleAssertion(a, r, b) for a, b in zip(path, path[1:])}
            abox |= {ClassAssertion(path[0], Named(ex("A"))),
                     ClassAssertion(path[3], Named(ex("B")))}
        sat = saturate(ont_of(
            tbox={RoleChain(Role(r), Role(r), Role(r)),
                  SubClassOf(Named(ex("A")), Exists(Role(r), Named(ex("B"))))},
            abox=abox))
        witnesses = [f"urn:witness:w{k + 1}" for k in range(10)]
        assert sat.fresh == frozenset(witnesses)
        assert sat.role_facts == {
            (path[i], r, path[j]) for path in paths
            for i in range(4) for j in range(i + 1, 4)} | {
            (path[0], r, w) for path, w in zip(paths, witnesses)}


class TestInstanceRetrieval:
    def test_activity_instances(self, social_reasoner):
        assert social_reasoner.instances(Named(sn("activity"))) == {
            sn("message1"), sn("message2"), sn("event1"), sn("event2")}

    def test_user_instances(self, social_reasoner):
        assert social_reasoner.instances(Named(sn("user"))) == {
            sn("jesus"), sn("vicente"), sn("luis")}

    def test_popular_instances(self, social_reasoner):
        assert social_reasoner.instances(Named(sn("popular"))) == {
            sn("event1"), sn("message2")}

    def test_complex_expression_instances(self, social_reasoner):
        confirmed_events = And((Named(sn("event")),
                                Exists(Role(sn("confirmed_by")), Named(sn("user")))))
        assert social_reasoner.instances(confirmed_events) == {sn("event1")}

    def test_membership_checks(self, social_reasoner):
        assert social_reasoner.is_instance_of(sn("wall_jesus"), Named(sn("user_item")))
        assert not social_reasoner.is_instance_of(sn("event1"), Named(sn("message")))
        assert social_reasoner.is_instance_of(sn("jesus"), Thing())

    def test_retrieval_refuses_inconsistent_input(self, social):
        bad = replace(social, abox=social.abox | {
            RoleAssertion(sn("jesus"), sn("friend_of"), sn("jesus"))})
        reasoner = Reasoner(bad)
        with pytest.raises(InconsistentOntologyError):
            reasoner.instances(Named(sn("user")))
        with pytest.raises(InconsistentOntologyError):
            reasoner.is_instance_of(sn("jesus"), Named(sn("user")))
        # role queries stay answerable: they report derived facts, not models
        assert reasoner.holds(sn("jesus"), sn("friend_of"), sn("jesus"))
        assert sn("jesus") in reasoner.property_values(sn("jesus"), sn("friend_of"))


class TestRoleQueries:
    def test_holds(self, social_reasoner):
        assert social_reasoner.holds(sn("event1"), sn("confirmed_by"), sn("vicente"))
        assert social_reasoner.holds(sn("luis"), sn("friend_of"), sn("jesus"))
        assert not social_reasoner.holds(sn("jesus"), sn("friend_of"), sn("jesus"))

    def test_property_values(self, social_reasoner):
        assert social_reasoner.property_values(
            sn("jesus"), sn("recommended_friend_of")) == {sn("jesus"), sn("vicente")}
        assert social_reasoner.property_values(
            sn("message1"), sn("created_by")) == {sn("jesus")}
        assert social_reasoner.property_values(
            sn("event2"), sn("created_by")) == set()

    def test_property_values_exclude_witnesses(self):
        ont = ont_of(
            tbox={SubClassOf(Named(ex("A")), Exists(Role(ex("p")), Named(ex("B"))))},
            abox={ClassAssertion(ex("a"), Named(ex("A")))})
        assert Reasoner(ont).property_values(ex("a"), ex("p")) == set()


class TestSubsumption:
    def test_named_subsumptions(self, social_reasoner):
        assert social_reasoner.is_subsumed(Named(sn("message")), Named(sn("activity")))
        assert social_reasoner.is_subsumed(Named(sn("popular_event")), Named(sn("activity")))
        assert social_reasoner.is_subsumed(Named(sn("popular_event")), Named(sn("popular")))
        assert social_reasoner.is_subsumed(Named(sn("wall")), Named(sn("user_item")))
        assert not social_reasoner.is_subsumed(Named(sn("message")), Named(sn("event")))
        assert not social_reasoner.is_subsumed(Named(sn("event")), Named(sn("message")))
        assert not social_reasoner.is_subsumed(Named(sn("user")), Named(sn("user_item")))

    def test_complex_subsumption_through_equivalence(self, social_reasoner):
        confirmed_events = And((Named(sn("event")),
                                Exists(Role(sn("confirmed_by")), Named(sn("user")))))
        assert social_reasoner.is_subsumed(confirmed_events, Named(sn("popular")))

    def test_nothing_and_thing_are_the_extremes(self, social_reasoner, social):
        for iri in social.named_classes():
            assert social_reasoner.is_subsumed(Nothing(), Named(iri))
            assert social_reasoner.is_subsumed(Named(iri), Thing())

    def test_subsumption_is_a_preorder(self, social_reasoner, social):
        names = sorted(social.named_classes())
        held = {(c, d) for c in names for d in names
                if social_reasoner.is_subsumed(Named(c), Named(d))}
        for c in names:
            assert (c, c) in held
        for c, d in held:
            for d2, e in held:
                if d == d2:
                    assert (c, e) in held

    def test_subsumption_implies_instance_containment(self, social_reasoner, social):
        names = sorted(social.named_classes())
        for c in names:
            for d in names:
                if social_reasoner.is_subsumed(Named(c), Named(d)):
                    assert social_reasoner.instances(Named(c)) <= \
                        social_reasoner.instances(Named(d))


class TestSubclasses:
    def test_all_subclasses_of_activity(self, social_reasoner):
        assert social_reasoner.subclasses(Named(sn("activity"))) == {
            sn("popular_message"), sn("event"), NOTHING_IRI,
            sn("popular_event"), sn("message")}

    def test_direct_subclasses_of_activity(self, social_reasoner):
        assert social_reasoner.subclasses(Named(sn("activity")), direct=True) == {
            sn("event"), sn("message")}

    def test_everything_is_below_thing(self, social_reasoner, social):
        assert social_reasoner.subclasses(Thing()) >= set(social.named_classes())

    def test_nothing_has_no_subclasses(self, social_reasoner):
        assert social_reasoner.subclasses(Nothing()) == set()

    def test_a_class_is_not_its_own_subclass(self, social_reasoner, social):
        for iri in social.named_classes():
            assert iri not in social_reasoner.subclasses(Named(iri))


class TestReasonerFacade:
    def test_profiles_are_interchangeable_labels(self, social):
        for profile in Reasoner.PROFILES:
            assert Reasoner(social, profile).is_consistent()
        with pytest.raises(ValueError):
            Reasoner(social, "tableau9000")

    def test_saturation_is_cached(self, social):
        reasoner = Reasoner(social)
        assert reasoner.saturation is reasoner.saturation


class TestUnsupported:
    def test_universal_restrictions_are_rejected(self):
        ont = ont_of(tbox={SubClassOf(Named(ex("A")),
                                      Forall(Role(ex("p")), Named(ex("B"))))})
        with pytest.raises(UnsupportedFeatureError):
            saturate(ont)

    def test_inverse_links_in_chains_are_rejected(self):
        ont = ont_of(tbox={RoleChain(Role(ex("p")), Inverse(ex("q")), Role(ex("t")))})
        with pytest.raises(UnsupportedFeatureError):
            saturate(ont)

    def test_cardinality_over_inverse_roles_is_rejected(self):
        ont = ont_of(tbox={SubClassOf(Thing(),
                                      MaxCard(1, Inverse(ex("p")), Thing()))})
        with pytest.raises(UnsupportedFeatureError):
            saturate(ont)


class TestDisplay:
    def test_class_expressions_render_compactly(self):
        expr = And((Named(ex("A")), Exists(Role(ex("p")), Thing())))
        assert display_class(expr) == \
            "(urn:ex:A and (urn:ex:p some http://www.w3.org/2002/07/owl#Thing))"
        assert display_class(MaxCard(1, Inverse(ex("p")), Named(ex("B")))) == \
            "(max 1 inverse(urn:ex:p) urn:ex:B)"


# -- randomized invariants -------------------------------------------------------

INDIVIDUALS = tuple(ex(f"i{k}") for k in range(6))
CLASS_NAMES = tuple(ex(f"C{k}") for k in range(4))


def random_ontology(rng: random.Random) -> Ontology:
    """Small ontology exercising every rule family, sized for brute force."""
    sym, p, q, r, t = (ex(n) for n in ("sym", "p", "q", "r", "t"))
    tbox = {
        SubClassOf(Named(CLASS_NAMES[0]), Named(CLASS_NAMES[1])),
        SubClassOf(Named(CLASS_NAMES[1]), Named(CLASS_NAMES[2])),
        EquivalentClasses(Named(CLASS_NAMES[3]),
                          And((Named(CLASS_NAMES[2]),
                               Exists(Role(p), Named(CLASS_NAMES[1]))))),
        symmetric_axiom(sym),
        InverseRoles(p, q),
        RoleChain(Role(r), Role(r), Role(t)),
        SubRoleOf(Role(r), Role(p)),
        Domain(Role(p), Named(CLASS_NAMES[0])),
        Range(Role(p), Named(CLASS_NAMES[2])),
    }
    abox = set()
    for _ in range(rng.randint(2, 8)):
        abox.add(RoleAssertion(rng.choice(INDIVIDUALS),
                               rng.choice((sym, p, q, r)),
                               rng.choice(INDIVIDUALS)))
    for _ in range(rng.randint(1, 4)):
        abox.add(ClassAssertion(rng.choice(INDIVIDUALS),
                                Named(rng.choice(CLASS_NAMES))))
    return ont_of(tbox, abox)


def named_projection(sat):
    classes = {(a, c) for (a, c) in sat.class_facts if a not in sat.fresh}
    roles = {(s, r, o) for (s, r, o) in sat.role_facts
             if s not in sat.fresh and o not in sat.fresh}
    return classes, roles


def assertions_for(classes, roles):
    facts = {ClassAssertion(a, Nothing() if c == NOTHING_IRI else Named(c))
             for (a, c) in classes}
    facts |= {RoleAssertion(s, r, o) for (s, r, o) in roles}
    return facts


def check_fixpoint(ont: Ontology) -> None:
    sat = saturate(ont)
    classes, roles = named_projection(sat)
    again = saturate(replace(ont, abox=ont.abox | assertions_for(classes, roles)))
    assert named_projection(again) == (classes, roles)


def check_symmetry_and_inverse(rng: random.Random) -> None:
    sym, p, q = ex("sym"), ex("p"), ex("q")
    tbox = {symmetric_axiom(sym), InverseRoles(p, q)}
    abox = {RoleAssertion(rng.choice(INDIVIDUALS), rng.choice((sym, p, q)),
                          rng.choice(INDIVIDUALS))
            for _ in range(rng.randint(2, 9))}
    sat = saturate(ont_of(tbox, abox))
    sym_pairs = role_pairs(sat, sym)
    assert sym_pairs == {(b, a) for (a, b) in sym_pairs}
    assert role_pairs(sat, p) == {(b, a) for (a, b) in role_pairs(sat, q)}


def check_chain_composition(rng: random.Random) -> None:
    r, t = ex("r"), ex("t")
    abox = {RoleAssertion(rng.choice(INDIVIDUALS), r, rng.choice(INDIVIDUALS))
            for _ in range(rng.randint(2, 9))}
    sat = saturate(ont_of({RoleChain(Role(r), Role(r), Role(t))}, abox))
    hops = role_pairs(sat, r)
    composed = {(a, c) for (a, b) in hops for (b2, c) in hops if b == b2}
    assert role_pairs(sat, t) == composed


def check_monotonicity(rng: random.Random) -> None:
    ont = random_ontology(rng)
    extra = {RoleAssertion(rng.choice(INDIVIDUALS), ex("p"),
                           rng.choice(INDIVIDUALS))
             for _ in range(rng.randint(1, 3))}
    small_classes, small_roles = named_projection(saturate(ont))
    big_classes, big_roles = named_projection(
        saturate(replace(ont, abox=ont.abox | extra)))
    assert small_classes <= big_classes
    assert small_roles <= big_roles


def exists_positions(ont: Ontology) -> int:
    def count(expr) -> int:
        if isinstance(expr, Exists):
            return 1 + count(expr.filler)
        if isinstance(expr, And):
            return sum(count(p) for p in expr.parts)
        if isinstance(expr, MaxCard):
            return count(expr.filler)
        return 0

    total = 0
    for axiom in ont.tbox:
        if isinstance(axiom, SubClassOf):
            total += count(axiom.sup)
        elif isinstance(axiom, EquivalentClasses):
            total += count(axiom.left) + count(axiom.right)
        elif isinstance(axiom, (Domain, Range)):
            total += count(axiom.cls)
    return total


class TestRandomizedInvariants:
    def test_fixture_is_a_fixpoint(self, social):
        check_fixpoint(social)

    @pytest.mark.parametrize("seed", range(20))
    def test_saturation_fixpoint(self, seed):
        check_fixpoint(random_ontology(random.Random(seed)))

    @pytest.mark.parametrize("seed", range(20))
    def test_symmetry_and_inverse_closure(self, seed):
        check_symmetry_and_inverse(random.Random(seed))

    @pytest.mark.parametrize("seed", range(20))
    def test_chain_matches_brute_force_composition(self, seed):
        check_chain_composition(random.Random(seed))

    @pytest.mark.parametrize("seed", range(20))
    def test_saturation_is_monotone(self, seed):
        check_monotonicity(random.Random(seed))

    @pytest.mark.parametrize("seed", range(20))
    def test_witness_count_is_bounded(self, seed):
        ont = random_ontology(random.Random(seed))
        sat = saturate(ont)
        bound = len(ont.all_individuals()) * exists_positions(ont)
        assert len(sat.fresh) <= bound


# -- the role index against the scans it replaced ---------------------------------

def scan_check(sat, individual: str, expr: ClassExpr) -> bool:
    """Membership by scanning every role fact, as before the role index."""
    if isinstance(expr, Thing):
        return True
    if isinstance(expr, Nothing):
        return (individual, NOTHING_IRI) in sat.class_facts
    if isinstance(expr, Named):
        return (individual, expr.iri) in sat.class_facts
    if isinstance(expr, And):
        return all(scan_check(sat, individual, p) for p in expr.parts)
    if isinstance(expr, Exists):
        if isinstance(expr.role, Role):
            successors = (o for (s, r, o) in sat.role_facts
                          if s == individual and r == expr.role.iri)
        else:
            successors = (s for (s, r, o) in sat.role_facts
                          if o == individual and r == expr.role.iri)
        return any(scan_check(sat, b, expr.filler) for b in successors)
    if isinstance(expr, ExistsSelf):
        return (individual, expr.role.iri, individual) in sat.role_facts
    if isinstance(expr, Forall):
        if isinstance(expr.role, Role):
            successors = (o for (s, r, o) in sat.role_facts
                          if s == individual and r == expr.role.iri)
        else:
            successors = (s for (s, r, o) in sat.role_facts
                          if o == individual and r == expr.role.iri)
        return all(scan_check(sat, b, expr.filler) for b in successors)
    return len(scan_fillers(sat, individual, expr.role.iri, expr.filler)) <= expr.n


def scan_fillers(sat, individual: str, role: str, filler: ClassExpr) -> set[str]:
    return {o for (s, r, o) in sat.role_facts
            if s == individual and r == role and o not in sat.fresh
            and scan_check(sat, o, filler)}


def check_index_against_scan(ont: Ontology) -> None:
    reasoner = Reasoner(ont)
    sat = reasoner.saturation
    individuals = sorted(ont.all_individuals() | sat.fresh)
    roles = sorted({r for (_, r, _) in sat.role_facts})
    fillers = [Thing()] + [Named(c) for c in sorted({c for (_, c) in sat.class_facts})]
    for role in roles:
        exprs = [kind(r, filler) for filler in fillers
                 for kind in (Exists, Forall) for r in (Role(role), Inverse(role))]
        exprs += [MaxCard(1, Role(role), filler) for filler in fillers]
        for individual in individuals:
            for expr in exprs:
                assert satisfies(sat, individual, expr) == \
                    scan_check(sat, individual, expr), (individual, expr)
            assert reasoner.property_values(individual, role) == \
                scan_fillers(sat, individual, role, Thing())


class TestRoleIndex:
    def test_fixture_matches_the_scans(self, social):
        check_index_against_scan(social)

    @pytest.mark.parametrize("seed", range(20))
    def test_random_ontology_matches_the_scans(self, seed):
        check_index_against_scan(random_ontology(random.Random(seed)))
