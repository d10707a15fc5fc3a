"""Saturation, clash detection, and canonical-model subsumption."""

from __future__ import annotations

import copy
import random
from collections import defaultdict
from dataclasses import replace

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from conftest import fixture_text, run_cli
from corpus import (
    CLASS_NAMES, INDIVIDUALS, ex, generated_ontology, ont_of, random_ontology,
)
from xqowl.errors import InconsistentOntologyError, UnsupportedFeatureError
from xqowl.owl import (
    And, Assertion, ClassAssertion, ClassExpr, DataAssertion, DataDomain,
    DataRange, DisjointClasses, DisjointRoles, Domain, EquivalentClasses,
    Exists, ExistsSelf, InverseRoles, MaxCard, Named, Nothing,
    NOTHING_IRI, Ontology, Range, RoleAssertion, RoleChain,
    SubClassOf, SubRoleOf, Thing, class_of_iri, functional_axiom,
    irreflexive_axiom, load_ontology, symmetric_axiom,
)
from xqowl import reasoner as reasoner_module
from xqowl.rdf import Literal, parse_rdfxml
from xqowl.reasoner import (
    ClashReport, Reasoner, SaturatedAbox, _Facts, display_class, saturate,
    witness_name,
)

SN = "http://www.semanticweb.org/socialnetwork.owl#"


def sn(name: str) -> str:
    return SN + name


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
                assert sat.check(assertion.individual, assertion.cls)
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
        tbox = {SubClassOf(Thing(), MaxCard(1, ex("p"), Named(ex("B"))))}
        abox = {RoleAssertion(ex("a"), ex("p"), ex("b1")),
                RoleAssertion(ex("a"), ex("p"), ex("b2")),
                ClassAssertion(ex("b1"), Named(ex("B")))}
        assert saturate(ont_of(tbox, abox)).clashes == ()
        abox.add(ClassAssertion(ex("b2"), Named(ex("B"))))
        assert saturate(ont_of(tbox, abox)).clashes == (
            ClashReport("max-cardinality",
                        (ex("a"), ex("p"), ex("b1"), ex("b2"))),)

    def test_cardinality_applies_only_inside_its_context(self):
        tbox = {SubClassOf(Named(ex("C")), MaxCard(1, ex("p"), Thing()))}
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

    def test_functional_role_without_facts_is_no_clash(self):
        ont = ont_of(tbox={functional_axiom(ex("p"))},
                     abox={ClassAssertion(ex("a"), Named(ex("A"))),
                           RoleAssertion(ex("b"), ex("p"), ex("c"))})
        assert saturate(ont).clashes == ()

    def test_cardinality_clashes_only_past_its_bound(self):
        tbox = {SubClassOf(Named(ex("C")), MaxCard(2, ex("p"), Thing()))}
        abox = {ClassAssertion(ex("a"), Named(ex("C"))),
                RoleAssertion(ex("a"), ex("p"), ex("b1")),
                RoleAssertion(ex("a"), ex("p"), ex("b2"))}
        assert saturate(ont_of(tbox, abox)).clashes == ()
        abox.add(RoleAssertion(ex("a"), ex("p"), ex("b3")))
        assert saturate(ont_of(tbox, abox)).clashes == (
            ClashReport("max-cardinality",
                        (ex("a"), ex("p"), ex("b1"), ex("b2"), ex("b3"))),)

    def test_a_witness_neighbour_is_not_a_filler(self):
        ont = ont_of(
            tbox={SubClassOf(Named(ex("A")), Exists(ex("p"), Named(ex("B")))),
                  functional_axiom(ex("p"))},
            abox={ClassAssertion(ex("a"), Named(ex("A"))),
                  RoleAssertion(ex("a"), ex("p"), ex("b"))})
        sat = saturate(ont)
        assert len(sat.neighbours(ex("a"), ex("p"), False)) == 2
        assert sat.clashes == ()

    def test_disjoint_classes_with_no_named_side(self):
        left = Exists(ex("r"), Named(ex("A")))
        right = Exists(ex("s"), Named(ex("B")))
        ont = ont_of(
            tbox={DisjointClasses(left, right)},
            abox={RoleAssertion(ex("a"), ex("r"), ex("b")),
                  ClassAssertion(ex("b"), Named(ex("A"))),
                  RoleAssertion(ex("a"), ex("s"), ex("c")),
                  ClassAssertion(ex("c"), Named(ex("B"))),
                  RoleAssertion(ex("d"), ex("r"), ex("b"))})
        assert saturate(ont).clashes == (
            ClashReport("disjoint-classes",
                        (ex("a"), display_class(left), display_class(right))),)

    def test_a_witness_in_nothing(self):
        ont = ont_of(
            tbox={SubClassOf(Named(ex("A")), Exists(ex("p"), Named(ex("B")))),
                  SubClassOf(Named(ex("B")), Nothing())},
            abox={ClassAssertion(ex("a"), Named(ex("A")))})
        sat = saturate(ont)
        (witness,) = sat.fresh
        assert sat.clashes == (ClashReport("nothing-membership", (witness,)),)

    def test_disjoint_roles_through_a_sub_role(self):
        ont = ont_of(
            tbox={DisjointRoles(ex("p"), ex("q")), SubRoleOf(ex("s"), ex("q"))},
            abox={RoleAssertion(ex("a"), ex("p"), ex("b")),
                  RoleAssertion(ex("a"), ex("s"), ex("b"))})
        assert saturate(ont).clashes == (
            ClashReport("disjoint-roles", (ex("a"), ex("p"), ex("q"), ex("b"))),)


class TestWitnesses:
    def test_unsatisfied_existential_introduces_one_witness(self):
        ont = ont_of(
            tbox={SubClassOf(Named(ex("A")), Exists(ex("p"), Named(ex("B"))))},
            abox={ClassAssertion(ex("a"), Named(ex("A")))})
        sat = saturate(ont)
        assert len(sat.fresh) == 1
        witness = next(iter(sat.fresh))
        assert (ex("a"), ex("p"), witness) in sat.role_facts
        assert (witness, ex("B")) in sat.class_facts
        assert sat.check(ex("a"), Exists(ex("p"), Named(ex("B"))))

    def test_satisfied_existential_introduces_no_witness(self):
        ont = ont_of(
            tbox={SubClassOf(Named(ex("A")), Exists(ex("p"), Named(ex("B"))))},
            abox={ClassAssertion(ex("a"), Named(ex("A"))),
                  RoleAssertion(ex("a"), ex("p"), ex("b")),
                  ClassAssertion(ex("b"), Named(ex("B")))})
        assert saturate(ont).fresh == frozenset()

    def test_witnesses_never_spawn_further_witnesses(self):
        ont = ont_of(
            tbox={SubClassOf(Named(ex("A")), Exists(ex("p"), Named(ex("B")))),
                  SubClassOf(Named(ex("B")), Exists(ex("p"), Named(ex("B"))))},
            abox={ClassAssertion(ex("a"), Named(ex("A")))})
        sat = saturate(ont)
        assert len(sat.fresh) == 1

    def test_witnesses_still_receive_atomic_superclasses(self):
        ont = ont_of(
            tbox={SubClassOf(Named(ex("A")), Exists(ex("p"), Named(ex("B")))),
                  SubClassOf(Named(ex("B")), Named(ex("C")))},
            abox={ClassAssertion(ex("a"), Named(ex("A")))})
        sat = saturate(ont)
        witness = next(iter(sat.fresh))
        assert (witness, ex("C")) in sat.class_facts

    def test_witness_fillers_do_not_trip_cardinality(self):
        ont = ont_of(
            tbox={SubClassOf(Named(ex("A")), Exists(ex("p"), Thing())),
                  functional_axiom(ex("p"))},
            abox={ClassAssertion(ex("a"), Named(ex("A")))})
        sat = saturate(ont)
        assert len(sat.fresh) == 1
        assert sat.clashes == ()

    def test_inverse_existential_points_at_the_individual(self):
        ont = ont_of(
            tbox={InverseRoles(ex("p"), ex("q")),
                  SubClassOf(Named(ex("A")), Exists(ex("q"), Named(ex("B"))))},
            abox={ClassAssertion(ex("a"), Named(ex("A")))})
        sat = saturate(ont)
        witness = next(iter(sat.fresh))
        assert (witness, ex("p"), ex("a")) in sat.role_facts

    def test_chain_pass_reads_the_facts_from_before_it(self):
        # Ten paths x0 -r-> x1 -r-> x2 -r-> x3 with A(x0) and B(x3). The first
        # round's chain pass reads only the facts from before it, so x0
        # reaches x2 but not x3 when the existential fires, and every x0
        # gets a witness, named by its key: class rule 0 fired on x0.
        r = ex("r")
        paths = [[ex(f"k{k}x{i}") for i in range(4)] for k in range(10)]
        abox = set()
        for path in paths:
            abox |= {RoleAssertion(a, r, b) for a, b in zip(path, path[1:])}
            abox |= {ClassAssertion(path[0], Named(ex("A"))),
                     ClassAssertion(path[3], Named(ex("B")))}
        sat = saturate(ont_of(
            tbox={RoleChain(r, r, r),
                  SubClassOf(Named(ex("A")), Exists(r, Named(ex("B"))))},
            abox=abox))
        witnesses = [witness_name(("rule", 0, path[0])) for path in paths]
        assert sat.fresh == frozenset(witnesses)
        assert sat.role_facts == {
            (path[i], r, path[j]) for path in paths
            for i in range(4) for j in range(i + 1, 4)} | {
            (path[0], r, w) for path, w in zip(paths, witnesses)}

    def test_firing_order_decides_the_witnesses(self):
        # Rules fire by index, then by individual: A <= r some C fires on a
        # before B <= C fires on the witness of A <= r some B, so a gets a
        # second witness for C.
        r = ex("r")
        A, B, C = Named(ex("A")), Named(ex("B")), Named(ex("C"))
        sat = saturate(ont_of(
            tbox={SubClassOf(A, Exists(r, B)), SubClassOf(A, Exists(r, C)),
                  SubClassOf(B, C)},
            abox={ClassAssertion(ex("a"), A)}))
        for_b, for_c = (witness_name(("rule", k, ex("a"))) for k in (0, 1))
        assert sat.fresh == {for_b, for_c}
        assert sat.class_facts == {(ex("a"), ex("A")), (for_b, ex("B")),
                                   (for_b, ex("C")), (for_c, ex("C"))}
        assert sat.role_facts == {(ex("a"), ex("r"), for_b), (ex("a"), ex("r"), for_c)}

    def test_chain_composes_an_old_first_hop_with_a_new_second(self):
        # a -r-> x is asserted; x -s-> w appears only when A <= s some B fires
        r, s, t = (ex(n) for n in "rst")
        ont = ont_of(tbox={RoleChain(r, s, t),
                           SubClassOf(Named(ex("A")), Exists(s, Named(ex("B"))))},
                     abox={RoleAssertion(ex("a"), ex("r"), ex("x")),
                           ClassAssertion(ex("x"), Named(ex("A")))})
        witness = witness_name(("rule", 0, ex("x")))
        assert role_pairs(saturate(ont), ex("t")) == {(ex("a"), witness)}
        check_against_naive(ont)

    def test_a_sweep_sees_what_it_adds_further_along_the_pool(self):
        # Round 2: some p.D <= D fires on a, then on b (b -p-> a) in the same
        # pass, so D <= q some E fires on b before F <= E gives e its E, and
        # b gets a witness although e would satisfy it one round later.
        p, q = ex("p"), ex("q")
        D, E, F, G, H = (Named(ex(n)) for n in "DEFGH")
        ont = ont_of(
            tbox={SubClassOf(Exists(p, D), D), SubClassOf(D, Exists(q, E)),
                  SubClassOf(F, E), SubClassOf(G, F), SubClassOf(H, D)},
            abox={RoleAssertion(ex("b"), ex("p"), ex("a")),
                  RoleAssertion(ex("a"), ex("p"), ex("c")),
                  RoleAssertion(ex("b"), ex("q"), ex("e")),
                  ClassAssertion(ex("c"), H), ClassAssertion(ex("e"), G)})
        assert saturate(ont).fresh == {witness_name(("rule", 1, ex(n))) for n in "abc"}
        check_against_naive(ont)

    def test_an_existential_is_asserted_again_once_its_filler_fails(self):
        # y satisfies max 0 s.B until C <= B types z, then x needs a witness
        r, s = ex("r"), ex("s")
        A, B, C = (Named(ex(n)) for n in "ABC")
        ont = ont_of(
            tbox={SubClassOf(A, Exists(r, MaxCard(0, s, B))), SubClassOf(C, B)},
            abox={ClassAssertion(ex("x"), A), RoleAssertion(ex("x"), ex("r"), ex("y")),
                  RoleAssertion(ex("y"), ex("s"), ex("z")), ClassAssertion(ex("z"), C)})
        assert saturate(ont).fresh == {witness_name(("rule", 0, ex("x")))}
        check_against_naive(ont)

    def test_a_witness_born_after_a_rule_ran_is_checked_by_it_next_round(self):
        # Thing <= C (from the equivalence, rule 1) reads no fact, so only
        # the witness's birth makes rule 1 check the witness of rule 2
        C = Named(ex("C"))
        ont = ont_of(tbox={EquivalentClasses(C, Thing()),
                           SubClassOf(Named(ex("A")), Exists(ex("r"), Named(ex("B"))))},
                     abox={ClassAssertion(ex("a"), Named(ex("A")))})
        witness = witness_name(("rule", 2, ex("a")))
        assert (witness, ex("C")) in saturate(ont).class_facts
        check_against_naive(ont)

    def test_witness_names_do_not_depend_on_the_hash_seed(self):
        program = (
            "from xqowl.owl import *\n"
            "from xqowl.reasoner import saturate\n"
            "r, q, A = 'urn:ex:r', 'urn:ex:q', Named('urn:ex:A')\n"
            "tbox = {InverseRoles('urn:ex:r', 'urn:ex:q'),\n"
            "        SubClassOf(A, And((Exists(r, A), Exists(q, A))))}\n"
            "abox = {ClassAssertion(f'urn:ex:i{k}', A) for k in range(20)}\n"
            "sat = saturate(Ontology('', frozenset(tbox), frozenset(abox)))\n"
            "print(sorted(sat.fresh))\n"
            "print(sum(s in sat.fresh and o not in sat.fresh and p == r\n"
            "          for s, p, o in sat.role_facts))\n")
        outputs = {run_cli(["-c", program], hashseed=seed).stdout for seed in (1, 2, 3)}
        assert len(outputs) == 1
        witnesses, back = outputs.pop().splitlines()
        assert witnesses.count("urn:witness:") == 40 and back == "20"


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
                                Exists(sn("confirmed_by"), Named(sn("user")))))
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
            tbox={SubClassOf(Named(ex("A")), Exists(ex("p"), Named(ex("B"))))},
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
                                Exists(sn("confirmed_by"), Named(sn("user")))))
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


def oracle_subclasses(ont: Ontology, expr: ClassExpr, direct: bool) -> set[str]:
    """Subclass retrieval as it was before one saturation classified the
    TBox: each candidate decided by is_subsumed on its own canonical model,
    then the strictly-below filter."""
    subsumed = Reasoner(ont).is_subsumed  # never classifies: one model per subclass
    skip = expr.iri if isinstance(expr, (Named, Nothing)) else None
    subs = {iri for iri in sorted(ont.named_classes() | {NOTHING_IRI})
            if iri != skip and subsumed(class_of_iri(iri), expr)}
    if not direct:
        return subs
    return {iri for iri in subs if not any(
        other != iri
        and subsumed(class_of_iri(iri), class_of_iri(other))
        and not subsumed(class_of_iri(other), class_of_iri(iri))
        and not subsumed(expr, class_of_iri(other))
        for other in subs)}


def check_taxonomy_against_oracle(ont: Ontology) -> None:
    names = sorted(ont.named_classes())
    taxonomy = Reasoner(ont)
    for expr in [Named(c) for c in names] + [Nothing(), Thing()]:
        for direct in (False, True):
            assert taxonomy.subclasses(expr, direct=direct) == \
                oracle_subclasses(ont, expr, direct), (expr, direct)
    per_class = Reasoner(ont)
    for sup in names:
        below = taxonomy.subclasses(Named(sup))
        for sub in names:
            if sub != sup:
                assert (sub in below) == per_class.is_subsumed(Named(sub), Named(sup))


class TestTaxonomyAgainstPerClassModels:
    @pytest.mark.parametrize("source", ["socialnetwork.owl", "ontology_papers.owl"])
    def test_fixture(self, source):
        check_taxonomy_against_oracle(load_ontology(parse_rdfxml(fixture_text(source))))

    @pytest.mark.parametrize("seed", range(200))
    def test_random_ontology(self, seed):
        check_taxonomy_against_oracle(random_ontology(random.Random(seed)))

    @pytest.mark.parametrize("seed", range(200))
    def test_generated_ontology(self, seed):
        check_taxonomy_against_oracle(generated_ontology(random.Random(seed)))


class TestClashAttribution:
    """In one saturation of every class, a clash condemns only the seed
    whose role-connected part holds it."""

    A, B, C, D, E, F, G, H = (ex(n) for n in "ABCDEFGH")
    r = ex("r")
    ONT = ont_of([
        SubClassOf(Named(A), Exists(r, Named(B))),  # A's witness is in Nothing
        SubClassOf(Named(B), Nothing()),
        SubClassOf(Named(C), Named(A)),
        SubClassOf(Named(D), Exists(r, Named(E))),  # D's witness is satisfiable
        SubClassOf(Named(F), Exists(r, And((Named(G), Named(H))))),  # disjoint witness
        DisjointClasses(Named(G), Named(H)),
    ])

    def test_unsatisfiable_classes_fall_under_every_class(self):
        reasoner = Reasoner(self.ONT)
        unsatisfiable = {self.A, self.B, self.C, self.F}
        assert reasoner.subclasses(Nothing()) == unsatisfiable
        for sup in sorted(self.ONT.named_classes()):
            assert unsatisfiable - {sup} <= reasoner.subclasses(Named(sup))

    def test_no_other_seed_is_condemned(self):
        reasoner = Reasoner(self.ONT)
        for sup in (self.D, self.E, self.G, self.H):
            assert reasoner.subclasses(Named(sup)) == \
                {NOTHING_IRI, self.A, self.B, self.C, self.F}
            assert not reasoner.is_subsumed(Named(sup), Nothing())


class TestSharedCanonicalModels:
    @pytest.mark.parametrize("source", ["socialnetwork.owl", "ontology_papers.owl", "random"])
    def test_one_reasoner_answers_as_fresh_ones(self, source, monkeypatch):
        """One saturation classifies the TBox, for a shared Reasoner and for
        each fresh one, however many subsumption tests read it."""
        onts = [load_ontology(parse_rdfxml(fixture_text(source)))] \
            if source.endswith(".owl") else \
            [random_ontology(random.Random(seed)) for seed in range(50)]
        calls = []
        counted = lambda *args: calls.append(args) or saturate(*args)
        monkeypatch.setattr(reasoner_module, "saturate", counted)
        for ont in onts:
            classes = sorted(ont.named_classes())
            shared, before = Reasoner(ont), len(calls)
            answers = {(c, direct): shared.subclasses(Named(c), direct=direct)
                       for c in classes for direct in (False, True)}
            assert len(calls) - before <= 1
            for (c, direct), answer in answers.items():
                fresh, before = Reasoner(ont), len(calls)
                assert answer == fresh.subclasses(Named(c), direct=direct)
                assert len(calls) - before <= 1
            fresh, before = Reasoner(ont), len(calls)
            assert fresh.subclasses(Thing(), direct=True) == \
                shared.subclasses(Thing(), direct=True)
            assert len(calls) - before == 1


class TestCompiledRules:
    def test_rules_are_read_only(self, social):
        """Saturating two ABoxes under one TBox through one compiled copy of it,
        as a Reasoner does for its saturation and its canonical models, leaves
        the rules as compiled, and no table of theirs adds a key on lookup."""
        rules = reasoner_module._Rules(social.tbox)
        snapshot = copy.deepcopy(vars(rules))
        seeded = replace(social, abox=frozenset(
            ClassAssertion(f"urn:seed:{iri}", Named(iri)) for iri in social.named_classes()))
        for ont in (social, seeded):
            assert saturate(ont, rules) == saturate(ont, reasoner_module._Rules(ont.tbox))
        assert vars(rules) == snapshot
        assert not any(isinstance(table, defaultdict) for table in vars(rules).values())


class TestReasonerFacade:
    def test_profiles_are_interchangeable_labels(self, social):
        for profile in Reasoner.PROFILES:
            assert Reasoner(social, profile).is_consistent()
        with pytest.raises(ValueError):
            Reasoner(social, "tableau9000")

    def test_saturation_is_cached(self, social):
        reasoner = Reasoner(social)
        assert reasoner.saturation is reasoner.saturation


class TestDisplay:
    def test_class_expressions_render_compactly(self):
        expr = And((Named(ex("A")), Exists(ex("p"), Thing())))
        assert display_class(expr) == \
            "(urn:ex:A and (urn:ex:p some http://www.w3.org/2002/07/owl#Thing))"


# -- randomized invariants -------------------------------------------------------

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
    sat = saturate(ont_of({RoleChain(r, r, t)}, abox))
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
        successors = (o for (s, r, o) in sat.role_facts
                      if s == individual and r == expr.role)
        return any(scan_check(sat, b, expr.filler) for b in successors)
    if isinstance(expr, ExistsSelf):
        return (individual, expr.role, individual) in sat.role_facts
    return len(scan_fillers(sat, individual, expr.role, expr.filler)) <= expr.n


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
        exprs = [Exists(role, filler) for filler in fillers]
        exprs += [MaxCard(1, role, filler) for filler in fillers]
        for individual in individuals:
            for expr in exprs:
                assert sat.check(individual, expr) == \
                    scan_check(sat, individual, expr), (individual, expr)
            assert set(sat.neighbours(individual, role, True)) == {
                s for (s, r, o) in sat.role_facts if o == individual and r == role}
            assert reasoner.property_values(individual, role) == \
                scan_fillers(sat, individual, role, Thing())


class TestRoleIndex:
    def test_fixture_matches_the_scans(self, social):
        check_index_against_scan(social)

    @pytest.mark.parametrize("seed", range(20))
    def test_random_ontology_matches_the_scans(self, seed):
        check_index_against_scan(random_ontology(random.Random(seed)))


def check_one_store(ont: Ontology, rng: random.Random) -> None:
    """role_facts, the forward index and the inverse index hold the same
    facts, no index entry is empty, and holds answers from the index alike."""
    reasoner = Reasoner(ont)
    sat = reasoner.saturation
    forward = {(s, r, o) for (s, r, inverse), objects in sat._index.items()
               if not inverse for o in objects}
    backward = {(s, r, o) for (o, r, inverse), subjects in sat._index.items()
                if inverse for s in subjects}
    assert sat.role_facts == forward == backward
    assert all(sat._index.values())
    assert all(reasoner.holds(*fact) for fact in sat.role_facts)
    individuals = sorted(ont.all_individuals() | sat.fresh) or [ex("a")]
    roles = sorted({r for (_, r, _) in sat.role_facts} | {ex("r")})
    candidates = {(o, r, s) for (s, r, o) in sat.role_facts}  # converses, often not facts
    candidates |= {(rng.choice(individuals), rng.choice(roles), rng.choice(individuals))
                   for _ in range(50)}
    for fact in sorted(candidates):
        assert reasoner.holds(*fact) == (fact in sat.role_facts), fact


class TestOneRoleStore:
    @pytest.mark.parametrize("source", ["socialnetwork.owl", "ontology_papers.owl"])
    def test_fixture(self, source):
        check_one_store(load_ontology(parse_rdfxml(fixture_text(source))),
                        random.Random(source))

    @pytest.mark.parametrize("seed", range(200))
    def test_generated_ontology(self, seed):
        check_one_store(generated_ontology(random.Random(seed)), random.Random(seed))

    @pytest.mark.parametrize("seed", range(200))
    def test_random_ontology(self, seed):
        check_one_store(random_ontology(random.Random(seed)), random.Random(seed))


# -- the semi-naive engine against the naive loop it replaced --------------------

class NaiveEngine(_Facts):
    """The naive saturation loop, before compile-once and firing by trigger:
    every round re-sorts the role facts and tries every class rule on every
    individual. Its one change is the witness names: it numbered them in
    creation order, but it sweeps witnesses in name order, which decides
    some results (a left-hand side's cardinality bound read across
    witnesses), so both loops must name them alike to agree."""

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

    def _compile(self, axiom) -> None:
        if isinstance(axiom, SubClassOf):
            if isinstance(axiom.sub, ExistsSelf) and isinstance(axiom.sup, Nothing):
                self.irreflexive.add(axiom.sub.role)
            elif isinstance(axiom.sup, MaxCard):
                self.static_limits.append((axiom.sub, axiom.sup.n, axiom.sup.role,
                                           axiom.sup.filler))
            else:
                self._class_rule(axiom.sub, axiom.sup)
        elif isinstance(axiom, EquivalentClasses):
            self._class_rule(axiom.left, axiom.right)
            self._class_rule(axiom.right, axiom.left)
        elif isinstance(axiom, SubRoleOf):
            self.subroles.setdefault(axiom.sub, set()).add(axiom.sup)
        elif isinstance(axiom, RoleChain):
            self.chains.append((axiom.first, axiom.second, axiom.implied))
        elif isinstance(axiom, InverseRoles):
            self.flips.setdefault(axiom.left, set()).add(axiom.right)
            self.flips.setdefault(axiom.right, set()).add(axiom.left)
        elif isinstance(axiom, DisjointClasses):
            self.disjoint_classes.append((axiom.left, axiom.right))
        elif isinstance(axiom, DisjointRoles):
            self.disjoint_roles.append((axiom.left, axiom.right))
        elif isinstance(axiom, Domain):
            self.domains.append((axiom.role, axiom.cls))
        elif isinstance(axiom, Range):
            self.ranges.append((axiom.role, axiom.cls))
        elif isinstance(axiom, DataDomain):
            self.data_domains.append((axiom.prop, axiom.cls))
        elif not isinstance(axiom, DataRange):  # datatype ranges carry no rule
            raise UnsupportedFeatureError(f"axiom {axiom!r} is not supported")

    def _class_rule(self, lhs: ClassExpr, rhs: ClassExpr) -> None:
        self.class_rules.append((lhs, rhs))

    def _seed(self, index: int, assertion: Assertion) -> None:
        if isinstance(assertion, ClassAssertion):
            self.assert_expr(assertion.individual, assertion.cls,
                             ("abox", index), materialize=True)
        elif isinstance(assertion, RoleAssertion):
            self.add_role(assertion.subject, assertion.role, assertion.object)
        else:
            self.data_facts.add((assertion.subject, assertion.prop,
                                 assertion.value))


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
            self.add_role(individual, expr.role, individual)
        elif isinstance(expr, Exists):
            if self.check(individual, expr) or not materialize:
                return
            witness = self._witnesses.get(key)
            if witness is None:
                witness = witness_name(key)
                self._witnesses[key] = witness
                self.fresh.add(witness)
            self.add_role(individual, expr.role, witness)
            self.assert_expr(witness, expr.filler, key + ("filler",), True)
        elif isinstance(expr, MaxCard):
            self.dynamic_limits.add((individual, expr.n, expr.role, expr.filler))
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



def check_against_naive(ont: Ontology) -> None:
    """Equal facts, witnesses and clashes from the naive loop and from the
    engine, whether it compiles the TBox itself or reuses a Reasoner's."""
    expected = NaiveEngine(ont).result()
    assert saturate(ont) == expected
    reasoner = Reasoner(ont)
    assert reasoner.saturation == expected
    assert saturate(ont, reasoner._rules) == expected


ROLE_NAMES = (ex("r"), ex("s"))
role_names = st.sampled_from(ROLE_NAMES)
named_classes = st.sampled_from(CLASS_NAMES[:3]).map(Named)
class_exprs = st.recursive(
    named_classes | st.just(Thing()),
    lambda inner: st.builds(Exists, role_names, inner)
    | st.lists(inner, min_size=2, max_size=3).map(lambda parts: And(tuple(parts)))
    | st.builds(MaxCard, st.integers(0, 1), role_names, inner)
    | role_names.map(ExistsSelf),
    max_leaves=4)
several_existentials = st.lists(st.builds(Exists, role_names, class_exprs),
                                min_size=2, max_size=3).map(lambda ps: And(tuple(ps)))
axioms = st.one_of(
    st.builds(SubClassOf, class_exprs, class_exprs),
    st.builds(SubClassOf, named_classes, several_existentials),
    st.builds(EquivalentClasses, named_classes, class_exprs),
    st.builds(RoleChain, role_names, role_names, role_names),
    st.builds(SubRoleOf, role_names, role_names),
    st.builds(InverseRoles, role_names, role_names),
    role_names.map(symmetric_axiom),
    st.builds(Domain, role_names, class_exprs),
    st.builds(Range, role_names, class_exprs),
    st.builds(DataDomain, st.just(ex("d")), class_exprs),
    st.builds(DisjointClasses, class_exprs, class_exprs),
    st.builds(DisjointRoles, role_names, role_names),
    role_names.map(irreflexive_axiom),
    role_names.map(functional_axiom),
    st.builds(SubClassOf, class_exprs,
              st.builds(MaxCard, st.integers(0, 2), role_names, named_classes)))
individuals = st.sampled_from(INDIVIDUALS[:4])
assertions = st.one_of(
    st.builds(ClassAssertion, individuals, class_exprs),
    st.builds(RoleAssertion, individuals, role_names, individuals),
    st.builds(DataAssertion, individuals, st.just(ex("d")), st.just(Literal("v"))))


class TestAgainstNaiveLoop:
    @settings(max_examples=300, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.too_slow])
    @given(st.sets(axioms, max_size=10), st.sets(assertions, max_size=10))
    def test_generated_ontologies(self, tbox, abox):
        check_against_naive(ont_of(tbox, abox))

    def test_fixture(self, social):
        check_against_naive(social)

    @pytest.mark.parametrize("seed", range(20))
    def test_random_ontology(self, seed):
        check_against_naive(random_ontology(random.Random(seed)))

    @pytest.mark.parametrize("seed", range(200))
    def test_generated_ontology(self, seed):
        check_against_naive(generated_ontology(random.Random(seed)))


class TestBareLeftSides:
    """A left-hand side that holds where no fact is known has no fact to
    announce it, so its rule still checks every named individual, one with
    no assertion among them, and every witness."""

    r, s = ex("r"), ex("s")
    A, B, C, D = (Named(ex(n)) for n in "ABCD")
    LONELY = ex("lonely")

    def ontology(self, axiom) -> Ontology:
        ont = ont_of([axiom, SubClassOf(self.C, Exists(self.s, self.D))],
                     [ClassAssertion(INDIVIDUALS[0], self.C),
                      RoleAssertion(INDIVIDUALS[1], self.r, INDIVIDUALS[2])])
        return replace(ont, individuals=frozenset({self.LONELY}))

    @pytest.mark.parametrize("lhs", [Thing(), MaxCard(0, r, A),
                                     And((Thing(), MaxCard(1, r, A)))])
    def test_fires_on_named_individuals_and_witnesses(self, lhs):
        ont = self.ontology(SubClassOf(lhs, self.B))
        sat = saturate(ont)
        assert sat == NaiveEngine(ont).result()
        assert self.LONELY in ont.all_individuals() and sat.fresh
        for individual in ont.all_individuals() | sat.fresh:
            assert (individual, self.B.iri) in sat.class_facts

    def test_an_existential_on_thing_serves_every_named_individual(self):
        ont = self.ontology(SubClassOf(Thing(), Exists(self.r, self.B)))
        sat = saturate(ont)
        assert sat == NaiveEngine(ont).result()
        for individual in ont.all_individuals():
            assert any(sat.check(w, self.B)
                       for w in sat.neighbours(individual, self.r, False))
