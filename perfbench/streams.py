"""Seeded inputs and the plain-operator reference that checks every answer.

Every input comes from :mod:`repro.logic.random_formulas`, drawn from a
``random.Random`` keyed by the run's seed.  Served and replayed sessions
follow :class:`ClientStream`: a closed loop in which the next formula is
drawn from a generator keyed by the previous answer, so a client's next
change depends on its session's previous answer.

The reference recomputes each answer on plain operators (no session, no
context registry, no engine) and compares model sets, never text.
"""

from __future__ import annotations

import hashlib
import json
import random

from repro.core.arbitration import ArbitrationOperator
from repro.core.fitting import ReveszFitting
from repro.logic.enumeration import models
from repro.logic.parser import parse
from repro.logic.random_formulas import random_formula, random_kcnf
from repro.logic.syntax import Not
from repro.operators.revision import DalalRevision
from repro.operators.update import ForbusUpdate, WinslettUpdate

#: Queries a session answers before its client replaces it with a fresh
#: one, so history (and with it snapshot size) stays bounded.
ROTATE_QUERIES = 40

#: Connective depth of generated change formulas (ask probes use depth 1).
FORMULA_DEPTH = 3

SERVE_VERBS = ("revise", "update", "arbitrate", "fit")
REPLAY_VERBS = ("revise", "arbitrate", "fit")

#: Served ``ask`` probes ride every 5th query.
SERVE_ASK_EVERY = 5

#: Update operators that successive sessions alternate between.
UPDATE_OPERATORS = ("winslett", "forbus")


class ClientStream:
    """One client's closed-loop stream of session requests.

    Per session: ``create``, :data:`ROTATE_QUERIES` queries (verbs in
    rotation, an ``ask`` every ``ask_every``-th query when set), ``delete``.
    Sessions alternate their ``update`` operator between Winslett and
    Forbus (:attr:`operators`), so both update operators are exercised.
    Call :meth:`next` for the request, then :meth:`observe` with its answer
    (the model count, or the ``ask`` verdict).
    """

    def __init__(self, seed, tag, vocabulary, verbs, ask_every=None):
        self.seed = seed
        self.tag = tag
        self.vocabulary = vocabulary
        self.verbs = verbs
        self.ask_every = ask_every
        self.session_no = 0
        self.step = -1
        self.mutations = 0
        self.last = None
        self._request = None

    @property
    def session_id(self) -> str:
        return f"{self.tag}-{self.session_no}"

    @property
    def operators(self) -> dict:
        """The current session's operator configuration."""
        return {"update": UPDATE_OPERATORS[self.session_no % len(UPDATE_OPERATORS)]}

    def _formula(self, depth) -> str:
        rng = random.Random(
            f"{self.seed}/{self.tag}/{self.session_no}/{self.step}/{self.last}"
        )
        return str(random_formula(self.vocabulary, depth, rng))

    def next(self):
        """``(kind, verb, formula)`` of the next request."""
        if self._request is None:
            if self.step < 0:
                self._request = ("create", None, self._formula(FORMULA_DEPTH))
            elif self.step >= ROTATE_QUERIES:
                self._request = ("delete", None, None)
            elif self.ask_every and (self.step + 1) % self.ask_every == 0:
                self._request = ("query", "ask", self._formula(1))
            else:
                verb = self.verbs[self.mutations % len(self.verbs)]
                self._request = ("query", verb, self._formula(FORMULA_DEPTH))
        return self._request

    def observe(self, answer) -> None:
        kind, verb, _ = self.next()
        self._request = None
        self.last = answer
        if kind == "delete":
            self.session_no += 1
            self.step = -1
            self.last = None
            return
        if kind == "query" and verb != "ask":
            self.mutations += 1
        self.step += 1


def update_inputs(seed, phase, index, vocabulary):
    """``(operator name, ψ, μ)`` of update-heavy op ``index``.

    ψ is broad (two 3-clauses: about 3/4 of all interpretations); μ is the
    negation of a 3-clause, a conjunction of three literals with exactly
    1/8 of the interpretations, so op costs stay even across seeds.  The
    operator alternates Winslett / Forbus.
    """
    rng = random.Random(f"{seed}/update/{phase}/{index}")
    psi = random_kcnf(vocabulary, 2, 3, rng)
    mu = Not(random_kcnf(vocabulary, 1, 3, rng))
    return ("winslett" if index % 2 == 0 else "forbus"), str(psi), str(mu)


_REFERENCE_OPERATORS = {
    "revise": DalalRevision(),
    "fit": ReveszFitting(),
    "arbitrate": ArbitrationOperator(ReveszFitting()),
    "winslett": WinslettUpdate(),
    "forbus": ForbusUpdate(),
}


def reference_apply(verb, psi_models, formula, vocabulary):
    """Model set of applying ``verb`` (an update operator's name for an
    update) with ``formula`` on plain operators."""
    incoming = models(parse(formula), vocabulary)
    return _REFERENCE_OPERATORS[verb].apply_models(psi_models, incoming)


def reference_ask(psi_models, formula, vocabulary) -> str:
    query = models(parse(formula), vocabulary)
    if psi_models.issubset(query):
        return "yes"
    if psi_models.intersection(query).is_empty:
        return "no"
    return "unknown"


def model_bits(model_set) -> int:
    """A model set as one integer (bit m set iff mask m is a model)."""
    bits = 0
    for mask in model_set.masks:
        bits |= 1 << mask
    return bits


def _formula_models(text, vocabulary):
    return models(parse(text), vocabulary)


def check_stream(stream, records):
    """Replay ``records`` of one client against the reference.

    Each record is ``[kind, verb, formula, ok, answer]``; ``answer`` is
    ``[formula, model count]`` for create and change answers (in-process
    replays append the knowledge base's :func:`model_bits`), the verdict
    for ``ask`` and ``None`` for ``delete``.  Records of failed requests
    (``ok`` false) end the comparison: the closed loop stops there.
    Returns ``(checked, error message or None)``.
    """
    vocabulary = stream.vocabulary
    state = None
    checked = 0
    for index, (kind, verb, formula, ok, answer) in enumerate(records):
        expected = stream.next()
        if [kind, verb, formula] != list(expected):
            return checked, f"request {index} diverged: {expected} vs {[kind, verb, formula]}"
        if not ok:
            break
        if kind == "create":
            state = _formula_models(formula, vocabulary)
            truth = len(state)
        elif kind == "delete":
            truth = None
        elif verb == "ask":
            truth = reference_ask(state, formula, vocabulary)
            if answer != truth:
                return checked, f"ask {index}: served {answer!r}, reference {truth!r}"
        else:
            operator = stream.operators["update"] if verb == "update" else verb
            state = reference_apply(operator, state, formula, vocabulary)
            truth = len(state)
        if kind == "create" or (kind == "query" and verb != "ask"):
            rendered, count, *held = answer
            if (
                count != truth
                or _formula_models(rendered, vocabulary) != state
                or (held and held[0] != model_bits(state))
            ):
                return checked, (
                    f"{verb or kind} {index}: answer {rendered!r} ({count} models) "
                    f"differs from the reference ({truth} models)"
                )
        stream.observe(truth)
        checked += 1
    return checked, None


def check_updates(seed, phase, vocabulary, bits_per_op):
    """Compare update-heavy results (:func:`model_bits` per op) with the reference."""
    for index, bits in enumerate(bits_per_op):
        operator, psi, mu = update_inputs(seed, phase, index, vocabulary)
        truth = reference_apply(operator, _formula_models(psi, vocabulary), mu, vocabulary)
        if model_bits(truth) != bits:
            return index, f"update {index} ({operator}) differs from the reference"
    return len(bits_per_op), None


def audit_checksum(boolean_results, weighted_results) -> str:
    """Digest of every verdict of one audit pass (boolean and weighted)."""

    def masks(model_sets):
        return sorted((name, sorted(value.masks)) for name, value in model_sets.items())

    cells = []
    for operator, row in sorted(boolean_results.items()):
        for axiom, result in sorted(row.items()):
            witness = result.counterexample
            cells.append([
                operator,
                axiom,
                result.holds,
                result.scenarios_checked,
                result.exhaustive,
                None if witness is None else [masks(witness.roles), masks(witness.observed)],
            ])
    for axiom, witness in sorted(weighted_results.items()):
        cells.append([
            axiom,
            None if witness is None else [
                witness.operator,
                sorted((name, repr(kb)) for name, kb in witness.roles.items()),
                sorted((name, repr(kb)) for name, kb in witness.observed.items()),
            ],
        ])
    canonical = json.dumps(cells, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()
