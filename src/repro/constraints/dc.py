"""Denial constraints.

A denial constraint (DC) has the form::

    forall x̄  ¬[ φ1(x̄) ∧ ... ∧ φk(x̄) ∧ ψ(x̄) ]

where each ``φj`` is a relational atom and ``ψ`` is a conjunction of
comparisons.  We represent a DC as a list of *tuple variables*, each bound to
a relation symbol, plus a list of predicates comparing ``var[attr]`` terms to
each other or to constants.  Atom join conditions (repeated variables inside
EGD atoms) are expressed as equality predicates, so this single class covers
FDs, conditional FDs, EGDs and the paper's mined DCs uniformly.

A *witness* is an assignment of facts to tuple variables satisfying every
predicate; the set of distinct facts in a witness is inconsistent.  Two tuple
variables may be assigned the *same* fact (the paper: "it may be the case
that t = t'"), which is how single-tuple DCs such as
``forall t ¬(t[High] < t[Low])`` arise as a special case.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from ..relational.database import Fact
from ..relational.schema import Schema
from .base import ComparisonOp, Constraint


@dataclass(frozen=True)
class Term:
    """One side of a predicate: ``var[attr]`` or a constant."""

    variable: str | None
    attribute: str | None = None
    constant: object = None

    @classmethod
    def col(cls, variable: str, attribute: str) -> "Term":
        """A column reference ``variable[attribute]``."""
        return cls(variable=variable, attribute=attribute)

    @classmethod
    def const(cls, value) -> "Term":
        """A literal constant."""
        return cls(variable=None, attribute=None, constant=value)

    @property
    def is_constant(self) -> bool:
        return self.variable is None

    def __str__(self) -> str:
        if self.is_constant:
            return repr(self.constant)
        return f"{self.variable}[{self.attribute}]"


@dataclass(frozen=True)
class Predicate:
    """A comparison ``left op right`` between two terms."""

    left: Term
    op: ComparisonOp
    right: Term

    def evaluate(self, assignment: dict[str, Fact], schema: Schema) -> bool:
        """Truth of the predicate under a tuple-variable assignment."""
        return self.op.evaluate(
            self._resolve(self.left, assignment, schema),
            self._resolve(self.right, assignment, schema),
        )

    @staticmethod
    def _resolve(term: Term, assignment: dict[str, Fact], schema: Schema):
        if term.is_constant:
            return term.constant
        fact = assignment[term.variable]
        signature = schema.signature(fact.relation)
        return fact.get(signature, term.attribute)

    def variables(self) -> set[str]:
        """Tuple variables mentioned by this predicate."""
        result = set()
        if not self.left.is_constant:
            result.add(self.left.variable)
        if not self.right.is_constant:
            result.add(self.right.variable)
        return result

    def is_equality_join(self) -> bool:
        """True for ``t[A] = t'[B]`` predicates linking two distinct variables."""
        return (
            self.op is ComparisonOp.EQ
            and not self.left.is_constant
            and not self.right.is_constant
            and self.left.variable != self.right.variable
        )

    def __str__(self) -> str:
        return f"{self.left} {self.op.value} {self.right}"


class DenialConstraint(Constraint):
    """A denial constraint over one or more tuple variables."""

    def __init__(
        self,
        variables: Sequence[tuple[str, str]],
        predicates: Sequence[Predicate],
        name: str | None = None,
    ) -> None:
        """*variables* is a sequence of ``(variable_name, relation)`` pairs."""
        if not variables:
            raise ValueError("a denial constraint needs at least one tuple variable")
        names = [variable for variable, _ in variables]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate tuple variables: {names}")
        self.variables: tuple[tuple[str, str], ...] = tuple(variables)
        self.predicates: tuple[Predicate, ...] = tuple(predicates)
        self.name = name or self._default_name()
        self._var_relation = dict(self.variables)
        for predicate in self.predicates:
            for variable in predicate.variables():
                if variable not in self._var_relation:
                    raise ValueError(
                        f"predicate {predicate} references unbound variable "
                        f"{variable!r}"
                    )

    # ------------------------------------------------------------------
    # Constraint interface
    # ------------------------------------------------------------------
    def to_dc(self) -> "DenialConstraint":
        return self

    def attributes_involved(self) -> set[tuple[str, str]]:
        involved = set()
        for predicate in self.predicates:
            for term in (predicate.left, predicate.right):
                if not term.is_constant:
                    relation = self._var_relation[term.variable]
                    involved.add((relation, term.attribute))
        return involved

    # ------------------------------------------------------------------
    # Evaluation
    # ------------------------------------------------------------------
    @property
    def width(self) -> int:
        """Number of tuple variables (max witness size)."""
        return len(self.variables)

    def relation_of(self, variable: str) -> str:
        """Relation symbol a tuple variable ranges over."""
        return self._var_relation[variable]

    def body_holds(self, assignment: dict[str, Fact], schema: Schema) -> bool:
        """True when the (negated) body is satisfied — i.e. a violation."""
        for variable, relation in self.variables:
            fact = assignment.get(variable)
            if fact is None or fact.relation != relation:
                return False
        return all(
            predicate.evaluate(assignment, schema) for predicate in self.predicates
        )

    def __str__(self) -> str:
        binder = ", ".join(
            f"{variable}:{relation}" for variable, relation in self.variables
        )
        body = ", ".join(str(predicate) for predicate in self.predicates)
        return f"forall {binder} . not({body})"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"DenialConstraint({self.name!r})"

    def _default_name(self) -> str:
        return f"dc_{abs(hash((self.variables, self.predicates))) % 10**8:08d}"

    def __eq__(self, other) -> bool:
        if not isinstance(other, DenialConstraint):
            return NotImplemented
        return (
            self.variables == other.variables and self.predicates == other.predicates
        )

    def __hash__(self) -> int:
        return hash((self.variables, self.predicates))


def binary_dc(
    relation: str,
    predicates: Iterable[tuple[str, str, str, str]],
    name: str | None = None,
) -> DenialConstraint:
    """Shorthand for two-variable DCs in the paper's ``t, t'`` notation.

    Each predicate is ``(attr_of_t, op, attr_of_t', side_flags)`` —
    simplified here to 4-tuples ``(left_attr, op, right_attr, mode)`` where
    ``mode`` is ``"tt'"`` (compare across tuples, default) or ``"tt"`` /
    ``"t't'"`` for within-tuple comparisons.
    """
    built = []
    for left_attr, op_token, right_attr, mode in predicates:
        if mode == "tt'":
            left, right = Term.col("t", left_attr), Term.col("t2", right_attr)
        elif mode == "tt":
            left, right = Term.col("t", left_attr), Term.col("t", right_attr)
        elif mode == "t't'":
            left, right = Term.col("t2", left_attr), Term.col("t2", right_attr)
        else:
            raise ValueError(f"unknown predicate mode {mode!r}")
        built.append(Predicate(left, ComparisonOp.parse(op_token), right))
    return DenialConstraint(
        [("t", relation), ("t2", relation)], built, name=name
    )


def unary_dc(
    relation: str,
    predicates: Iterable[tuple[str, str, object]],
    name: str | None = None,
) -> DenialConstraint:
    """Shorthand for single-tuple DCs: predicates ``(attr, op, attr_or_const)``.

    The third element is interpreted as an attribute name when it is a string
    naming an attribute of *relation*... which is ambiguous for string
    constants; pass a :class:`Term` explicitly in that case.
    """
    built = []
    for left_attr, op_token, right_spec in predicates:
        left = Term.col("t", left_attr)
        if isinstance(right_spec, Term):
            right = right_spec
        elif isinstance(right_spec, str):
            right = Term.col("t", right_spec)
        else:
            right = Term.const(right_spec)
        built.append(Predicate(left, ComparisonOp.parse(op_token), right))
    return DenialConstraint([("t", relation)], built, name=name)
