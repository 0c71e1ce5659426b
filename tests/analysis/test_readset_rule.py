"""The component-readset rule: locality of ``component_value``."""

from __future__ import annotations

from repro.analysis.rules import ComponentReadSetRule

from .util import findings_of, make_module


def measure_module(body: str):
    return make_module(
        "repro.measures.custom",
        f"""
        from repro.measures.base import ComponentwiseMeasure

        class CustomMeasure(ComponentwiseMeasure):
            def component_value(self, constraints, database, component):
        {body}
        """,
    )


class TestAllowedReads:
    def test_accessor_reads_are_clean(self):
        module = measure_module(
            "        return float(len(component.mi_sets) + "
            "len(component.problematic))"
        )
        assert not findings_of(ComponentReadSetRule(), module)

    def test_database_subscript_is_clean(self):
        module = measure_module(
            "        return sum(database[m].weight for m in "
            "sorted(component.problematic))"
        )
        assert not findings_of(ComponentReadSetRule(), module)

    def test_audited_helper_call_is_clean(self):
        module = make_module(
            "repro.measures.custom",
            """
            from repro.measures.base import ComponentwiseMeasure
            from repro.solvers import anytime

            class CustomMeasure(ComponentwiseMeasure):
                def component_value(self, constraints, database, component):
                    return anytime.solve_component(
                        self, constraints, database, component, lambda: 0.0
                    )
            """,
        )
        assert not findings_of(ComponentReadSetRule(), module)

    def test_same_class_method_propagation_clean_case(self):
        module = make_module(
            "repro.measures.custom",
            """
            from repro.measures.base import ComponentwiseMeasure

            class CustomMeasure(ComponentwiseMeasure):
                def component_value(self, constraints, database, component):
                    return self._count(component)

                def _count(self, component):
                    return float(len(component.mi_sets))
            """,
        )
        assert not findings_of(ComponentReadSetRule(), module)


class TestViolations:
    def test_off_contract_component_attribute_fires(self):
        module = measure_module("        return len(component.per_constraint)")
        (finding,) = findings_of(ComponentReadSetRule(), module)
        assert "per_constraint" in finding.message

    def test_database_attribute_read_fires(self):
        module = measure_module("        return float(len(database.facts))")
        (finding,) = findings_of(ComponentReadSetRule(), module)
        assert ".facts" in finding.message

    def test_unaudited_callee_fires(self):
        module = make_module(
            "repro.measures.custom",
            """
            from repro.measures.base import ComponentwiseMeasure
            from repro.util import sneak

            class CustomMeasure(ComponentwiseMeasure):
                def component_value(self, constraints, database, component):
                    return sneak(database)
            """,
        )
        (finding,) = findings_of(ComponentReadSetRule(), module)
        assert "unaudited callee 'sneak()'" in finding.message

    def test_aliasing_fires(self):
        module = measure_module(
            "        db = database\n        return 0.0"
        )
        (finding,) = findings_of(ComponentReadSetRule(), module)
        assert "aliasing" in finding.message

    def test_violation_through_propagated_method_fires(self):
        module = make_module(
            "repro.measures.custom",
            """
            from repro.measures.base import ComponentwiseMeasure

            class CustomMeasure(ComponentwiseMeasure):
                def component_value(self, constraints, database, component):
                    return self._peek(database)

                def _peek(self, database):
                    return float(len(database.facts))
            """,
        )
        (finding,) = findings_of(ComponentReadSetRule(), module)
        assert "_peek" in finding.symbol

    def test_transitive_subclass_is_checked(self):
        module = make_module(
            "repro.measures.custom",
            """
            from repro.measures.base import ComponentwiseMeasure

            class Parent(ComponentwiseMeasure):
                pass

            class Child(Parent):
                def component_value(self, constraints, database, component):
                    return float(len(database.facts))
            """,
        )
        assert findings_of(ComponentReadSetRule(), module)

    def test_budgeted_hooks_are_checked(self):
        """``bounded_value`` and ``component_bounds`` answer in
        ``component_value``'s place under a budget: same contract."""
        module = make_module(
            "repro.measures.custom",
            """
            from repro.measures.base import ComponentwiseMeasure

            class CustomMeasure(ComponentwiseMeasure):
                def component_value(self, constraints, database, component):
                    return float(len(component.mi_sets))

                def bounded_value(self, constraints, database, component, deadline):
                    return float(len(database.facts) + len(component.per_constraint))

                def component_bounds(self, constraints, database, component):
                    return 0.0, 0.0, float(len(database.facts))
            """,
        )
        findings = findings_of(ComponentReadSetRule(), module)
        assert {finding.symbol for finding in findings} == {
            "CustomMeasure.bounded_value",
            "CustomMeasure.component_bounds",
        }
        messages = " ".join(finding.message for finding in findings)
        assert ".facts" in messages and "per_constraint" in messages

    def test_non_componentwise_class_not_checked(self):
        module = make_module(
            "repro.measures.custom",
            """
            class Unrelated:
                def component_value(self, constraints, database, component):
                    return float(len(database.facts))
            """,
        )
        assert not findings_of(ComponentReadSetRule(), module)

    def test_constraints_parameter_unrestricted(self):
        module = measure_module(
            "        return float(len([c.lowered for c in constraints]))"
        )
        assert not findings_of(ComponentReadSetRule(), module)
