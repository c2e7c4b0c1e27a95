"""The shape cache: an op's text compiles once per shape, not once per call.

An LFTJ plan depends on where a rule's constants sit, not on their
values (PAPER.md §3.2), yet every op embeds its constants
(``inventory["sku00042"]``, ``E(17, b)``).  So the per-op verbs —
queries (:func:`repro.runtime.workspace.run_query`, hence
``Workspace.query``, the service's readers and ``explain``), every exec
(:class:`~repro.txn.repair.PreparedTransaction`) and the shard
coordinator's ``query`` / ``exec`` — compile through
:func:`compile_shape`:

* **Shape key.** One regular-expression pass lifts every string and
  number literal out of the text, left to right.  The key is the
  remaining text plus the literals' kinds (string / int / float); the
  values, in order, are the call's parameters.  ``true`` / ``false``
  stay in the key.
* **Miss.** The text is tokenized as a cold compile would, and its
  literal tokens must equal the lifted ones in count, kind, value and
  position.  They differ when a literal sits in a comment, an escaped
  newline shifts the lines, or a non-ASCII digit forms a number; then
  the key is marked *uncacheable* and every text of that key compiles
  cold.  Otherwise each literal token becomes ``Param(i)`` and the
  block compiles once: rules, rule sets and their plan memos are the
  cached :class:`Shape`.  Should that compile fail, the literal text is
  compiled cold, so an error names values, never slots.
* **Hit.** No parse, no compile, no plan: the caller evaluates the
  shared rules with the call's parameters, and every plan binds them
  (:meth:`~repro.engine.planner.Plan.bind`).

A shape holds nothing a transaction mutates; its rules' plan memos fill
idempotently (two threads planning one rule store equal plans).  The
cache keeps the :data:`CACHE_SIZE` most recently used keys.  Hits and
misses count as ``plan_cache.hits`` / ``plan_cache.misses``, and the
``compile`` span says ``cache=hit|miss|uncacheable``.
"""

import collections
import re
import threading

from repro import obs
from repro import stats
from repro.engine.evaluator import RuleSet
from repro.engine.ir import Param
from repro.logiql.compiler import compile_program
from repro.logiql.lexer import tokenize, unescape
from repro.logiql.parser import _Parser

#: Shapes kept (least recently used go first).  Every workload has a
#: handful; the bound keeps an ad-hoc stream from growing the heap.
CACHE_SIZE = 256

#: A string literal (its body), or a number not inside an identifier —
#: the lexer's own literal grammar.
_LITERAL = re.compile(
    r'"((?:[^"\\]|\\.)*)"|(?<!\w)([0-9]+(?:\.[0-9]+)?(?:[eE][+-]?[0-9]+)?)',
    re.DOTALL,
)

_UNCACHEABLE = object()

_SHAPES = collections.OrderedDict()  # key -> Shape | _UNCACHEABLE
_LOCK = threading.Lock()


class Shape:
    """One compiled shape: the block (with :class:`Param` slots for a
    cached key, plain constants otherwise) and its rule sets, built on
    first use and shared by every call.  ``placement`` holds a shard
    coordinator's ``(installed analysis, query analysis)`` pair."""

    __slots__ = ("block", "_ruleset", "_reactive", "placement")

    def __init__(self, block):
        self.block = block
        self._ruleset = None
        self._reactive = None  # (installed rules, RuleSet)
        self.placement = None

    def ruleset(self):
        """The :class:`RuleSet` of the block's derivation rules."""
        if self._ruleset is None:
            self._ruleset = RuleSet(self.block.rules)
        return self._ruleset

    def reactive_ruleset(self, installed):
        """The :class:`RuleSet` of the block's reactive rules plus the
        ones a program ``installed`` (its
        ``ProgramArtifacts.reactive_rules``), built once per installed
        list; every program installing none shares one."""
        memo = self._reactive
        if memo is None or (memo[0] is not installed and (memo[0] or installed)):
            memo = self._reactive = (
                installed, RuleSet(self.block.reactive_rules + installed))
        return memo[1]


def shape_key(source):
    """``(key, params)`` of ``source``: the text with its literals
    lifted, and their values in order.  The key is ``None`` for text
    holding a NUL (the separator the key joins on)."""
    if "\x00" in source:
        return None, ()
    parts = _LITERAL.split(source)
    kinds = []
    params = []
    for index in range(1, len(parts), 3):
        string = parts[index]
        if string is not None:
            kinds.append("s")
            params.append(unescape(string))
            continue
        number = parts[index + 1]
        if number.isdigit():
            kinds.append("i")
            params.append(int(number))
        else:
            kinds.append("f")
            params.append(float(number))
    return ("\x00".join(parts[0::3]), "".join(kinds)), tuple(params)


def compile_shape(source):
    """``(shape, params)`` for one op's text, inside a ``compile`` span.

    Raises what a cold :func:`compile_program` of ``source`` raises,
    with the same text."""
    with obs.span("compile", chars=len(source)) as span_:
        key, params = shape_key(source)
        shape = _SHAPES.get(key) if key is not None else None
        if shape is not None and shape is not _UNCACHEABLE:
            try:
                _SHAPES.move_to_end(key)
            except KeyError:  # evicted meanwhile by another thread
                pass
            stats.bump("plan_cache.hits")
            outcome = "hit"
        else:
            stats.bump("plan_cache.misses")
            if shape is _UNCACHEABLE or key is None:
                shape, params, outcome = _cold(source), (), "uncacheable"
            else:
                shape, params, outcome = _miss(source, key, params)
        if span_ is not None:
            span_.attrs["cache"] = outcome
        return shape, params


def _cold(source):
    return Shape(compile_program(source))


def _miss(source, key, params):
    tokens = tokenize(source)
    literals = [token for token in tokens if token.kind in ("STRING", "NUMBER")]
    if not _same_literals(source, literals, params):
        _remember(key, _UNCACHEABLE)
        return Shape(compile_program(_Parser(tokens).parse_program())), (), "uncacheable"
    for index, token in enumerate(literals):
        token.value = Param(index)
    try:
        shape = Shape(compile_program(_Parser(tokens).parse_program()))
    except Exception:
        # the slotted text failed: the literal text raises its own error
        # (or, should it compile, runs uncached)
        return _cold(source), (), "uncacheable"
    _remember(key, shape)
    return shape, params, "miss"


def _same_literals(source, tokens, params):
    """Do the lexer's literal tokens sit where the lifted literals do,
    with the same kinds and values?"""
    if len(tokens) != len(params):
        return False
    for match, token, value in zip(_LITERAL.finditer(source), tokens, params):
        start = match.start()
        line = source.count("\n", 0, start) + 1
        column = start - source.rfind("\n", 0, start)
        if (token.line, token.column) != (line, column):
            return False
        if type(token.value) is not type(value) or token.value != value:
            return False
    return True


def _remember(key, entry):
    with _LOCK:
        _SHAPES[key] = entry
        while len(_SHAPES) > CACHE_SIZE:
            _SHAPES.popitem(last=False)
