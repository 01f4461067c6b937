"""Abstract syntax tree node definitions for the Verilog/SVA subset.

All nodes are plain dataclasses.  Expression nodes form one hierarchy
(:class:`Expression`), procedural statements another (:class:`Statement`),
and module items a third (:class:`ModuleItem`).  Concurrent assertion /
property constructs are part of the same AST because they live inside
module bodies in SystemVerilog source.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Optional, Sequence, Union


# --------------------------------------------------------------------------- #
# Expressions
# --------------------------------------------------------------------------- #


@dataclass
class Expression:
    """Base class for all expression nodes."""

    def children(self) -> Sequence["Expression"]:
        """Direct sub-expressions, left to right (default: none)."""
        return ()

    def walk(self) -> Iterator["Expression"]:
        """Yield this node and every descendant expression, in pre-order."""
        stack: list[Expression] = [self]
        while stack:
            node = stack.pop()
            yield node
            children = node.children()
            if children:
                stack.extend(reversed(children))

    def identifiers(self) -> set[str]:
        """Return the set of signal/parameter names referenced by the expression.

        Names are added in pre-order, as :meth:`walk` visits them, so the
        set's iteration order is a function of the expression alone.
        """
        names: set[str] = set()
        stack: list[Expression] = [self]
        while stack:
            node = stack.pop()
            if type(node) is Identifier:
                names.add(node.name)
            else:
                children = node.children()
                if children:
                    stack.extend(reversed(children))
        return names


@dataclass
class Identifier(Expression):
    """A reference to a signal, parameter or genvar by name."""

    name: str

    def __str__(self) -> str:
        return self.name


@dataclass
class Number(Expression):
    """An integer literal, optionally sized/based (e.g. ``4'b1010``).

    Attributes:
        value: the numeric value with ``x``/``z`` digits treated as 0.
        width: declared width in bits, or ``None`` for unsized literals.
        base: one of ``"b"``, ``"d"``, ``"h"``, ``"o"`` or ``""`` for plain decimals.
        xz_mask: bitmask of positions holding ``x`` or ``z`` digits.
        text: the original literal text, preserved for re-emission.
    """

    value: int
    width: Optional[int] = None
    base: str = ""
    xz_mask: int = 0
    text: str = ""

    def __str__(self) -> str:
        return self.text if self.text else str(self.value)


@dataclass
class Unary(Expression):
    """A unary operation such as ``~a``, ``!a``, ``-a``, ``&a`` (reduction)."""

    op: str
    operand: Expression

    def children(self) -> Sequence[Expression]:
        return (self.operand,)

    def __str__(self) -> str:
        return f"{self.op}{_paren(self.operand)}"


@dataclass
class Binary(Expression):
    """A binary operation such as ``a + b`` or ``a && b``."""

    op: str
    left: Expression
    right: Expression

    def children(self) -> Sequence[Expression]:
        return (self.left, self.right)

    def __str__(self) -> str:
        return f"{_paren(self.left)} {self.op} {_paren(self.right)}"


@dataclass
class Ternary(Expression):
    """The conditional operator ``cond ? a : b``."""

    condition: Expression
    if_true: Expression
    if_false: Expression

    def children(self) -> Sequence[Expression]:
        return (self.condition, self.if_true, self.if_false)

    def __str__(self) -> str:
        return f"{_paren(self.condition)} ? {_paren(self.if_true)} : {_paren(self.if_false)}"


@dataclass
class BitSelect(Expression):
    """A single-bit select ``base[index]``."""

    base: Expression
    index: Expression

    def children(self) -> Sequence[Expression]:
        return (self.base, self.index)

    def __str__(self) -> str:
        return f"{self.base}[{self.index}]"


@dataclass
class PartSelect(Expression):
    """A constant part select ``base[msb:lsb]``."""

    base: Expression
    msb: Expression
    lsb: Expression

    def children(self) -> Sequence[Expression]:
        return (self.base, self.msb, self.lsb)

    def __str__(self) -> str:
        return f"{self.base}[{self.msb}:{self.lsb}]"


@dataclass
class Concat(Expression):
    """A concatenation ``{a, b, c}``."""

    parts: list[Expression]

    def children(self) -> Sequence[Expression]:
        return self.parts

    def __str__(self) -> str:
        return "{" + ", ".join(str(p) for p in self.parts) + "}"


@dataclass
class Replicate(Expression):
    """A replication ``{count{value}}``."""

    count: Expression
    value: Expression

    def children(self) -> Sequence[Expression]:
        return (self.count, self.value)

    def __str__(self) -> str:
        return "{" + f"{self.count}{{{self.value}}}" + "}"


@dataclass
class SystemCall(Expression):
    """A system function call such as ``$past(x, 1)`` or ``$countones(v)``."""

    name: str
    args: list[Expression] = field(default_factory=list)

    def children(self) -> Sequence[Expression]:
        return self.args

    def __str__(self) -> str:
        return f"{self.name}(" + ", ".join(str(a) for a in self.args) + ")"


def _paren(expr: Expression) -> str:
    """Parenthesise compound sub-expressions when rendering."""
    if isinstance(expr, (Binary, Ternary)):
        return f"({expr})"
    return str(expr)


# --------------------------------------------------------------------------- #
# Procedural statements
# --------------------------------------------------------------------------- #


@dataclass
class Statement:
    """Base class for procedural statements."""

    def substatements(self) -> Sequence["Statement"]:
        """Direct sub-statements, in source order (default: none)."""
        return ()

    def walk(self) -> Iterator["Statement"]:
        """Yield this statement and every nested statement, in pre-order."""
        stack: list[Statement] = [self]
        while stack:
            node = stack.pop()
            yield node
            subs = node.substatements()
            if subs:
                stack.extend(reversed(subs))


@dataclass
class Block(Statement):
    """A ``begin ... end`` block."""

    statements: list[Statement] = field(default_factory=list)
    name: Optional[str] = None

    def substatements(self) -> Sequence[Statement]:
        return self.statements


@dataclass
class Assign(Statement):
    """A procedural assignment, blocking (``=``) or non-blocking (``<=``)."""

    target: Expression
    value: Expression
    blocking: bool
    line: int = 0


@dataclass
class If(Statement):
    """An ``if``/``else`` statement."""

    condition: Expression
    then_branch: Statement
    else_branch: Optional[Statement] = None
    line: int = 0

    def substatements(self) -> Sequence[Statement]:
        if self.else_branch is None:
            return (self.then_branch,)
        return (self.then_branch, self.else_branch)


@dataclass
class CaseItem:
    """One arm of a case statement (``labels`` empty means ``default``)."""

    labels: list[Expression]
    body: Statement


@dataclass
class Case(Statement):
    """A ``case``/``casez``/``casex`` statement."""

    subject: Expression
    items: list[CaseItem]
    variant: str = "case"  # "case" | "casez" | "casex"
    line: int = 0

    def substatements(self) -> Sequence[Statement]:
        return [item.body for item in self.items]


@dataclass
class For(Statement):
    """A ``for`` loop with constant bounds (unrolled at elaboration)."""

    init_var: str
    init_value: Expression
    condition: Expression
    step_var: str
    step_value: Expression
    body: Statement
    line: int = 0

    def substatements(self) -> Sequence[Statement]:
        return (self.body,)


@dataclass
class SystemTaskCall(Statement):
    """A procedural system task call such as ``$display(...)`` or ``$error(...)``."""

    name: str
    args: list[Expression] = field(default_factory=list)
    line: int = 0


@dataclass
class NullStatement(Statement):
    """A lone ``;`` (empty statement)."""

    line: int = 0


# --------------------------------------------------------------------------- #
# SVA property constructs
# --------------------------------------------------------------------------- #


@dataclass
class SequenceElement:
    """One element of an SVA sequence: a boolean expression after a ``##delay``."""

    delay: int
    expr: Expression


@dataclass
class SvaSequence:
    """An SVA sequence: a chain of boolean expressions separated by ``##N`` delays."""

    elements: list[SequenceElement]

    def identifiers(self) -> set[str]:
        names: set[str] = set()
        for element in self.elements:
            names |= element.expr.identifiers()
        return names

    @property
    def length(self) -> int:
        """Number of cycles spanned by the sequence (sum of delays)."""
        return sum(e.delay for e in self.elements)


@dataclass
class SvaProperty:
    """A property body: either a plain sequence or an implication."""

    antecedent: Optional[SvaSequence]
    consequent: SvaSequence
    overlapping: bool = True  # |-> vs |=>

    def identifiers(self) -> set[str]:
        names = self.consequent.identifiers()
        if self.antecedent is not None:
            names |= self.antecedent.identifiers()
        return names


@dataclass
class ClockEvent:
    """A clocking event ``@(posedge clk)`` / ``@(negedge clk)``."""

    edge: str  # "posedge" | "negedge"
    signal: str


# --------------------------------------------------------------------------- #
# Module items
# --------------------------------------------------------------------------- #


@dataclass
class ModuleItem:
    """Base class for items appearing in a module body."""

    line: int = 0


@dataclass
class Range:
    """A packed range ``[msb:lsb]`` with constant bounds."""

    msb: Expression
    lsb: Expression

    def __str__(self) -> str:
        return f"[{self.msb}:{self.lsb}]"


@dataclass
class Port(ModuleItem):
    """An ANSI-style port declaration."""

    direction: str = "input"  # "input" | "output" | "inout"
    net_type: str = "wire"  # "wire" | "reg" | "logic"
    name: str = ""
    range: Optional[Range] = None
    signed: bool = False


@dataclass
class NetDecl(ModuleItem):
    """A ``wire``/``reg``/``logic``/``integer`` declaration (one or more names)."""

    kind: str = "wire"
    names: list[str] = field(default_factory=list)
    range: Optional[Range] = None
    signed: bool = False
    initial: Optional[Expression] = None


@dataclass
class ParamDecl(ModuleItem):
    """A ``parameter`` or ``localparam`` declaration."""

    name: str = ""
    value: Expression = field(default_factory=lambda: Number(0))
    local: bool = False
    range: Optional[Range] = None


@dataclass
class ContinuousAssign(ModuleItem):
    """A continuous assignment ``assign lhs = rhs;``."""

    target: Expression = field(default_factory=lambda: Identifier(""))
    value: Expression = field(default_factory=lambda: Identifier(""))


@dataclass
class SensitivityItem:
    """One entry of an ``always @(...)`` sensitivity list."""

    edge: Optional[str]  # "posedge" | "negedge" | None for level sensitivity
    signal: str


@dataclass
class AlwaysBlock(ModuleItem):
    """An ``always`` block (clocked or combinational)."""

    sensitivity: list[SensitivityItem] = field(default_factory=list)
    star: bool = False  # always @(*)
    body: Statement = field(default_factory=Block)
    keyword: str = "always"  # "always" | "always_ff" | "always_comb"

    @property
    def is_clocked(self) -> bool:
        return any(item.edge is not None for item in self.sensitivity)


@dataclass
class InitialBlock(ModuleItem):
    """An ``initial`` block (used only for register initialisation)."""

    body: Statement = field(default_factory=Block)


@dataclass
class PropertyDecl(ModuleItem):
    """A named property declaration ``property p; @(posedge clk) ... endproperty``."""

    name: str = ""
    clock: Optional[ClockEvent] = None
    disable_iff: Optional[Expression] = None
    body: SvaProperty = field(
        default_factory=lambda: SvaProperty(None, SvaSequence([SequenceElement(0, Number(1))]))
    )


@dataclass
class ConcurrentAssertion(ModuleItem):
    """A concurrent assertion ``label: assert property (...) else $error(...);``."""

    label: str = ""
    property_name: Optional[str] = None  # reference to a named PropertyDecl
    inline: Optional[PropertyDecl] = None  # inline property spec
    kind: str = "assert"  # "assert" | "assume" | "cover"
    error_message: str = ""


@dataclass
class PortConnection:
    """One named connection in an instantiation ``.port(expr)``."""

    port: str
    expr: Optional[Expression]


@dataclass
class Instantiation(ModuleItem):
    """A module instantiation ``sub #(params) inst (.a(x), ...);``."""

    module_name: str = ""
    instance_name: str = ""
    connections: list[PortConnection] = field(default_factory=list)
    parameter_overrides: dict[str, Expression] = field(default_factory=dict)


@dataclass
class Module:
    """A parsed module."""

    name: str
    ports: list[Port] = field(default_factory=list)
    parameters: list[ParamDecl] = field(default_factory=list)
    items: list[ModuleItem] = field(default_factory=list)
    line: int = 0

    def items_of_type(self, item_type: type) -> list:
        """Return all body items of a given type, in source order."""
        return [item for item in self.items if isinstance(item, item_type)]

    @property
    def assertions(self) -> list[ConcurrentAssertion]:
        return self.items_of_type(ConcurrentAssertion)

    @property
    def properties(self) -> list[PropertyDecl]:
        return self.items_of_type(PropertyDecl)


@dataclass
class SourceUnit:
    """A parsed source file: one or more modules."""

    modules: list[Module] = field(default_factory=list)
    text: str = ""

    def find_module(self, name: str) -> Optional[Module]:
        for module in self.modules:
            if module.name == name:
                return module
        return None

    @property
    def top(self) -> Module:
        """The last module in the file is treated as the top by convention."""
        if not self.modules:
            raise ValueError("source unit contains no modules")
        return self.modules[-1]


AnyAssignTarget = Union[Identifier, BitSelect, PartSelect, Concat]


def assignment_targets(statement: Statement) -> list[str]:
    """Return the base signal names assigned anywhere inside ``statement``."""
    names: list[str] = []
    for node in statement.walk():
        if isinstance(node, Assign):
            names.extend(_target_names(node.target))
    return names


def _target_names(target: Expression) -> list[str]:
    if isinstance(target, Identifier):
        return [target.name]
    if isinstance(target, (BitSelect, PartSelect)):
        return _target_names(target.base)
    if isinstance(target, Concat):
        names: list[str] = []
        for part in target.parts:
            names.extend(_target_names(part))
        return names
    return []
