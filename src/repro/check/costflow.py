"""Interprocedural cost-flow analysis (``python -m repro.check costflow``).

The fidelity property that separates a calibrated simulator from a toy
is *every byte moved charges simulated time*.  The purity lint checks
call sites one statement at a time; it cannot see that a byte-moving
helper is fine **because its callers charge**, or that a new call path
sneaks bytes past the clock entirely.  This module checks the property
interprocedurally:

1. build a **module-qualified call graph** of ``src/repro`` (the
   :class:`Program` below, built once per run by
   :mod:`repro.check.index` and shared with conc and durflow) —
   receivers are resolved through parameter/attribute/return
   annotations, constructor assignments, and repo-local class
   hierarchies (virtual dispatch over-approximates: a call through a
   base class reaches every override);
2. mark **cost sinks**: :meth:`SimClock.cpu` / :meth:`wait_until`
   advancement, the :class:`CostModel` charge helpers, and the timed
   :class:`BlockDevice` / FTL operations;
3. mark **byte-moving sources**: extent-store reads/writes, node
   serialize/deserialize, basement-node apply/memcpy paths, and
   journal/WAL appends;
4. run a **must-charge reachability pass**: a source call site is OK
   only if its enclosing function charges a sink (transitively through
   its callees), or every non-exempt caller chain is itself covered
   ("dominated by charging callers").  Anything else is flagged
   (``uncharged-bytes``) with a call-chain witness.

Offline tooling is exempt (``repro.check``, ``repro.crashmc``, device
preconditioning) — no simulated timeline exists there to distort.
Deliberate exceptions carry ``# costflow: allow[reason]`` on the source
line; unused waivers are errors (``unused-waiver``).

The resolver is deliberately *typed-or-nothing*: an unannotated,
uninferrable receiver contributes no edge rather than a guessed one, so
every reported chain is a chain that exists in the code.  The analysis
over-approximates coverage (any override charging counts) and
under-approximates the caller graph; both biases favour precision of
findings over recall, which is the right trade for a CI gate.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from repro.check.graph import sccs
from repro.check.waivers import Violation

if TYPE_CHECKING:
    from repro.check.index import ProgramIndex

#: Rule identifiers this analysis can emit.
RULES = ("uncharged-bytes", "unused-waiver")

#: ``(class name, method)`` calls that charge the simulated clock.
SINK_METHODS: FrozenSet[Tuple[str, str]] = frozenset(
    {
        ("SimClock", "cpu"),
        ("SimClock", "wait_until"),
        ("CostModel", "memcpy"),
        ("CostModel", "checksum"),
        ("CostModel", "serialize"),
        ("CostModel", "vmalloc"),
        ("CostModel", "vfree"),
        ("BlockDevice", "read"),
        ("BlockDevice", "write"),
        ("BlockDevice", "submit_read"),
        ("BlockDevice", "submit_write"),
        ("BlockDevice", "wait"),
        ("BlockDevice", "flush"),
        ("BlockDevice", "discard"),
        ("FlashTranslationLayer", "host_write"),
        ("FlashTranslationLayer", "trim"),
        # repro.sched blocking primitives: a session suspension passes
        # simulated time to the session (the scheduler charges switches
        # and accounts waits on the shared clock), so driving an
        # operation through SessionContext reaches the clock.
        ("SessionContext", "run"),
        ("SessionContext", "acquire"),
    }
)

#: ``(class name, method)`` calls that move bytes.
SOURCE_METHODS: FrozenSet[Tuple[str, str]] = frozenset(
    {
        ("ExtentStore", "read"),
        ("ExtentStore", "write"),
        ("WriteAheadLog", "append"),
        ("Journal", "log_block"),
        ("Journal", "commit"),
        ("BasementNode", "apply"),
        ("BasementNode", "set"),
    }
)

#: Free functions (module-level) that move bytes.
SOURCE_FUNCS: FrozenSet[str] = frozenset(
    {
        "serialize_node",
        "decode_node",
        "serialize_leaf",
        "serialize_internal",
        "decode_leaf",
        "decode_internal",
        "decode_basement",
        "encode_payload",
        "decode_payload",
        # repro.shard cross-shard intent records (two-phase protocol).
        "pack_intent",
        "unpack_intent",
    }
)

#: Modules whose byte moves are offline by design: the checkers and the
#: crash explorer probe images with no live timeline, and the aging /
#: FTL-precondition paths document that they charge nothing.  Mirrors
#: the purity lint's device-layer allowances.
EXEMPT_MODULES: Tuple[str, ...] = (
    "repro.check",
    "repro.crashmc",
    "repro.workloads.aging",
    "repro.harness.ftl",
)


def _is_exempt(module: str, exempt: Sequence[str]) -> bool:
    return any(module == p or module.startswith(p + ".") for p in exempt)


# ======================================================================
# Typed program model (built by repro.check.index)
# ======================================================================
@dataclass
class FuncInfo:
    """One analyzed function or method."""

    key: str  # "module:qualname"
    module: str
    qualname: str
    path: str
    line: int
    node: ast.AST
    class_key: Optional[str] = None  # owning class, if a method
    returns: Optional[ast.expr] = None
    #: Call edges out of this function (callee keys).
    calls: Set[str] = field(default_factory=set)
    #: Direct sink calls (rendered receiver.method for the report).
    sink_calls: List[str] = field(default_factory=list)
    #: Source call sites: (line, rendered call).
    source_calls: List[Tuple[int, str]] = field(default_factory=list)


@dataclass
class ClassInfo:
    key: str  # "module.Class"
    module: str
    name: str
    base_exprs: List[ast.expr] = field(default_factory=list)
    bases: List[str] = field(default_factory=list)  # resolved keys
    methods: Dict[str, FuncInfo] = field(default_factory=dict)
    #: attribute -> annotation expr (class body + self.x: T sites)
    attr_ann: Dict[str, ast.expr] = field(default_factory=dict)
    #: attribute -> assigned expr (self.x = <expr> sites, first wins)
    attr_expr: Dict[str, Tuple[ast.expr, str]] = field(default_factory=dict)
    #: resolved attribute types (class keys); filled by the analysis
    attr_types: Dict[str, FrozenSet[str]] = field(default_factory=dict)
    #: resolved element types for container attributes
    attr_elems: Dict[str, FrozenSet[str]] = field(default_factory=dict)


@dataclass
class ModuleInfo:
    name: str
    path: str
    tree: ast.Module
    #: local name -> full dotted target ("repro.core.tree.BeTree" or module)
    imports: Dict[str, str] = field(default_factory=dict)
    classes: Dict[str, ClassInfo] = field(default_factory=dict)  # by bare name
    functions: Dict[str, FuncInfo] = field(default_factory=dict)  # by bare name
    #: module-level singletons: name -> constructor class keys
    global_types: Dict[str, FrozenSet[str]] = field(default_factory=dict)


_EMPTY: FrozenSet[str] = frozenset()

#: Containers whose subscript/iteration yields the first type argument.
_SEQ_NAMES = {"List", "list", "Sequence", "Iterable", "Iterator", "Tuple", "tuple", "Set", "set", "FrozenSet", "frozenset"}
#: Mappings whose iteration yields keys; ``.values()`` yields the value
#: type — too fine-grained for this pass, so mappings contribute nothing.
_WRAPPER_NAMES = {"Optional", "Final", "ClassVar", "Annotated"}


class Program:
    """The whole-tree index plus the type/call resolution machinery."""

    def __init__(self, package: str) -> None:
        self.package = package
        self.modules: Dict[str, ModuleInfo] = {}
        self.functions: Dict[str, FuncInfo] = {}
        self.classes: Dict[str, ClassInfo] = {}  # by key "module.Class"
        self.subclasses: Dict[str, Set[str]] = {}  # key -> transitive subs

    # ------------------------------------------------------------------
    # Indexing
    # ------------------------------------------------------------------
    def index_module(self, name: str, path: str, tree: ast.Module) -> None:
        mod = ModuleInfo(name=name, path=path, tree=tree)
        self.modules[name] = mod
        for stmt in tree.body:
            self._index_stmt(mod, stmt)

    def _index_stmt(self, mod: ModuleInfo, stmt: ast.stmt) -> None:
        if isinstance(stmt, ast.Import):
            for alias in stmt.names:
                mod.imports[alias.asname or alias.name.split(".")[0]] = alias.name
        elif isinstance(stmt, ast.ImportFrom) and stmt.level == 0 and stmt.module:
            for alias in stmt.names:
                mod.imports[alias.asname or alias.name] = f"{stmt.module}.{alias.name}"
        elif isinstance(stmt, ast.ClassDef):
            self._index_class(mod, stmt)
        elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            info = FuncInfo(
                key=f"{mod.name}:{stmt.name}",
                module=mod.name,
                qualname=stmt.name,
                path=mod.path,
                line=stmt.lineno,
                node=stmt,
                returns=stmt.returns,
            )
            mod.functions[stmt.name] = info
            self.functions[info.key] = info
        elif isinstance(stmt, ast.If):
            # Module-level guards (TYPE_CHECKING, version checks).
            for sub in stmt.body + stmt.orelse:
                self._index_stmt(mod, sub)
        elif isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
            target = stmt.targets[0]
            if isinstance(target, ast.Name) and isinstance(stmt.value, ast.Call):
                mod.global_types[target.id] = frozenset()  # resolved later

    def _index_class(self, mod: ModuleInfo, stmt: ast.ClassDef) -> None:
        cls = ClassInfo(
            key=f"{mod.name}.{stmt.name}",
            module=mod.name,
            name=stmt.name,
            base_exprs=list(stmt.bases),
        )
        mod.classes[stmt.name] = cls
        self.classes[cls.key] = cls
        for member in stmt.body:
            if isinstance(member, ast.AnnAssign) and isinstance(
                member.target, ast.Name
            ):
                cls.attr_ann[member.target.id] = member.annotation
            elif isinstance(member, (ast.FunctionDef, ast.AsyncFunctionDef)):
                info = FuncInfo(
                    key=f"{mod.name}:{stmt.name}.{member.name}",
                    module=mod.name,
                    qualname=f"{stmt.name}.{member.name}",
                    path=mod.path,
                    line=member.lineno,
                    node=member,
                    class_key=cls.key,
                    returns=member.returns,
                )
                cls.methods[member.name] = info
                self.functions[info.key] = info
                # @property return annotations type the attribute.
                for dec in member.decorator_list:
                    if isinstance(dec, ast.Name) and dec.id == "property":
                        if member.returns is not None:
                            cls.attr_ann.setdefault(member.name, member.returns)
                # self.x: T / self.x = expr sites inside the method.
                for sub in ast.walk(member):
                    if (
                        isinstance(sub, ast.AnnAssign)
                        and isinstance(sub.target, ast.Attribute)
                        and isinstance(sub.target.value, ast.Name)
                        and sub.target.value.id == "self"
                    ):
                        cls.attr_ann.setdefault(sub.target.attr, sub.annotation)
                    elif isinstance(sub, ast.Assign):
                        for tgt in sub.targets:
                            if (
                                isinstance(tgt, ast.Attribute)
                                and isinstance(tgt.value, ast.Name)
                                and tgt.value.id == "self"
                            ):
                                cls.attr_expr.setdefault(
                                    tgt.attr, (sub.value, member.name)
                                )

    # ------------------------------------------------------------------
    # Name/annotation resolution
    # ------------------------------------------------------------------
    def resolve_class_name(self, mod: ModuleInfo, name: str) -> Optional[str]:
        """Class key for a bare identifier in ``mod``'s namespace."""
        if name in mod.classes:
            return mod.classes[name].key
        target = mod.imports.get(name)
        if target is not None and target in self.classes:
            return target
        # ``from repro.storage import SimpleFileLayer`` may import via a
        # package __init__ re-export; chase one level of indirection.
        if target is not None:
            base, _, attr = target.rpartition(".")
            init = self.modules.get(base)
            if init is not None:
                chased = init.imports.get(attr)
                if chased is not None and chased in self.classes:
                    return chased
        return None

    def ann_types(
        self, mod: ModuleInfo, ann: Optional[ast.expr]
    ) -> Tuple[FrozenSet[str], FrozenSet[str]]:
        """``(direct class keys, element class keys)`` of an annotation."""
        if ann is None:
            return _EMPTY, _EMPTY
        if isinstance(ann, ast.Constant) and isinstance(ann.value, str):
            try:
                ann = ast.parse(ann.value, mode="eval").body
            except SyntaxError:
                return _EMPTY, _EMPTY
        if isinstance(ann, ast.Name):
            key = self.resolve_class_name(mod, ann.id)
            return (frozenset({key}) if key else _EMPTY), _EMPTY
        if isinstance(ann, ast.Attribute):
            # mod_alias.Class
            if isinstance(ann.value, ast.Name):
                target = mod.imports.get(ann.value.id)
                if target is not None:
                    key = f"{target}.{ann.attr}"
                    if key in self.classes:
                        return frozenset({key}), _EMPTY
            return _EMPTY, _EMPTY
        if isinstance(ann, ast.BinOp) and isinstance(ann.op, ast.BitOr):
            left_d, left_e = self.ann_types(mod, ann.left)
            right_d, right_e = self.ann_types(mod, ann.right)
            return left_d | right_d, left_e | right_e
        if isinstance(ann, ast.Subscript):
            head = ann.value
            head_name = (
                head.id
                if isinstance(head, ast.Name)
                else head.attr
                if isinstance(head, ast.Attribute)
                else None
            )
            inner = ann.slice
            args = inner.elts if isinstance(inner, ast.Tuple) else [inner]
            if head_name in _WRAPPER_NAMES or head_name == "Union":
                direct: FrozenSet[str] = _EMPTY
                elems: FrozenSet[str] = _EMPTY
                for arg in args:
                    d, e = self.ann_types(mod, arg)
                    direct, elems = direct | d, elems | e
                return direct, elems
            if head_name in _SEQ_NAMES:
                elems = _EMPTY
                for arg in args:
                    d, _ = self.ann_types(mod, arg)
                    elems = elems | d
                return _EMPTY, elems
        return _EMPTY, _EMPTY

    # ------------------------------------------------------------------
    # Class hierarchy
    # ------------------------------------------------------------------
    def link_hierarchy(self) -> None:
        for cls in self.classes.values():
            mod = self.modules[cls.module]
            for expr in cls.base_exprs:
                if isinstance(expr, ast.Name):
                    key = self.resolve_class_name(mod, expr.id)
                    if key:
                        cls.bases.append(key)
        direct_subs: Dict[str, Set[str]] = {}
        for cls in self.classes.values():
            for base in cls.bases:
                direct_subs.setdefault(base, set()).add(cls.key)
        # Transitive closure (hierarchies here are tiny).
        def close(key: str, seen: Set[str]) -> Set[str]:
            out = set()
            for sub in direct_subs.get(key, ()):
                if sub not in seen:
                    seen.add(sub)
                    out.add(sub)
                    out |= close(sub, seen)
            return out

        for key in self.classes:
            self.subclasses[key] = close(key, {key})

    def mro_method(self, class_key: str, name: str) -> Optional[FuncInfo]:
        seen: Set[str] = set()
        stack = [class_key]
        while stack:
            key = stack.pop(0)
            if key in seen:
                continue
            seen.add(key)
            cls = self.classes.get(key)
            if cls is None:
                continue
            if name in cls.methods:
                return cls.methods[name]
            stack.extend(cls.bases)
        return None

    def dispatch(self, class_key: str, name: str) -> List[FuncInfo]:
        """MRO hit plus every subclass override (virtual dispatch)."""
        out: Dict[str, FuncInfo] = {}
        hit = self.mro_method(class_key, name)
        if hit is not None:
            out[hit.key] = hit
        for sub in self.subclasses.get(class_key, ()):  # over-approximate
            sub_cls = self.classes.get(sub)
            if sub_cls is not None and name in sub_cls.methods:
                out[sub_cls.methods[name].key] = sub_cls.methods[name]
        return list(out.values())

    # ------------------------------------------------------------------
    # Attribute typing (two rounds so chains like env.storage resolve)
    # ------------------------------------------------------------------
    def type_attributes(self) -> None:
        for _round in range(2):
            for cls in self.classes.values():
                mod = self.modules[cls.module]
                for attr, ann in cls.attr_ann.items():
                    direct, elems = self.ann_types(mod, ann)
                    if direct:
                        cls.attr_types[attr] = direct
                    if elems:
                        cls.attr_elems[attr] = elems
                for attr, (expr, method_name) in cls.attr_expr.items():
                    if attr in cls.attr_types:
                        continue
                    owner = cls.methods.get(method_name)
                    if owner is None:
                        continue
                    env = self._param_env(owner)
                    direct, elems = self._eval(expr, owner, env)
                    if direct:
                        cls.attr_types[attr] = direct
                    if elems:
                        cls.attr_elems[attr] = elems

    def type_singletons(self) -> None:
        """Type module-level singletons (``DEFAULT_COSTS = CostModel()``
        and friends) once every class and attribute is known."""
        for mod in self.modules.values():
            pseudo = FuncInfo(
                key=f"{mod.name}:<module>",
                module=mod.name,
                qualname="<module>",
                path=mod.path,
                line=0,
                node=mod.tree,
            )
            for stmt in mod.tree.body:
                if (
                    isinstance(stmt, ast.Assign)
                    and len(stmt.targets) == 1
                    and isinstance(stmt.targets[0], ast.Name)
                    and isinstance(stmt.value, ast.Call)
                ):
                    direct, _ = self._eval(stmt.value, pseudo, {})
                    if direct:
                        mod.global_types[stmt.targets[0].id] = frozenset(
                            k[len("type:") :] if k.startswith("type:") else k
                            for k in direct
                        )

    def walk_bodies(self) -> None:
        """Record every function's call edges and sink/source call
        sites.  Run once: the walk appends to the per-function lists."""
        for func in self.functions.values():
            walker = _BodyWalker(self, func)
            for stmt in getattr(func.node, "body", []):
                walker.visit(stmt)

    def attr_lookup(
        self, class_key: str, attr: str
    ) -> Tuple[FrozenSet[str], FrozenSet[str]]:
        seen: Set[str] = set()
        stack = [class_key]
        while stack:
            key = stack.pop(0)
            if key in seen:
                continue
            seen.add(key)
            cls = self.classes.get(key)
            if cls is None:
                continue
            if attr in cls.attr_types or attr in cls.attr_elems:
                return (
                    cls.attr_types.get(attr, _EMPTY),
                    cls.attr_elems.get(attr, _EMPTY),
                )
            stack.extend(cls.bases)
        return _EMPTY, _EMPTY

    # ------------------------------------------------------------------
    # Expression typing
    # ------------------------------------------------------------------
    def _param_env(self, func: FuncInfo) -> Dict[str, Tuple[FrozenSet[str], FrozenSet[str]]]:
        mod = self.modules[func.module]
        env: Dict[str, Tuple[FrozenSet[str], FrozenSet[str]]] = {}
        node = func.node
        args = getattr(node, "args", None)
        if args is None:
            return env
        all_args = list(args.posonlyargs) + list(args.args) + list(args.kwonlyargs)
        for arg in all_args:
            direct, elems = self.ann_types(mod, arg.annotation)
            if direct or elems:
                env[arg.arg] = (direct, elems)
        if func.class_key is not None and all_args:
            first = all_args[0].arg
            if first in ("self", "cls"):
                env[first] = (frozenset({func.class_key}), _EMPTY)
        return env

    def _eval(
        self,
        expr: ast.expr,
        func: FuncInfo,
        env: Dict[str, Tuple[FrozenSet[str], FrozenSet[str]]],
    ) -> Tuple[FrozenSet[str], FrozenSet[str]]:
        """Best-effort ``(class keys, element class keys)`` of ``expr``."""
        mod = self.modules[func.module]
        if isinstance(expr, ast.Name):
            if expr.id in env:
                return env[expr.id]
            key = self.resolve_class_name(mod, expr.id)
            if key:  # the class object itself: constructor via Call
                return frozenset({f"type:{key}"}), _EMPTY
            if expr.id in mod.global_types and mod.global_types[expr.id]:
                return mod.global_types[expr.id], _EMPTY
            return _EMPTY, _EMPTY
        if isinstance(expr, ast.Attribute):
            base_direct, _ = self._eval(expr.value, func, env)
            direct: FrozenSet[str] = _EMPTY
            elems: FrozenSet[str] = _EMPTY
            for key in base_direct:
                if key.startswith("type:"):
                    continue
                d, e = self.attr_lookup(key, expr.attr)
                direct, elems = direct | d, elems | e
            return direct, elems
        if isinstance(expr, ast.Call):
            callees = self.resolve_call(expr, func, env)
            direct = _EMPTY
            elems = _EMPTY
            for callee in callees:
                if callee.qualname.endswith("__init__") and callee.class_key:
                    direct = direct | frozenset({callee.class_key})
                elif callee.returns is not None:
                    d, e = self.ann_types(
                        self.modules[callee.module], callee.returns
                    )
                    direct, elems = direct | d, elems | e
            # Constructor of an indexed class without __init__ of its own.
            f = expr.func
            name = f.id if isinstance(f, ast.Name) else None
            if name is not None:
                key = self.resolve_class_name(mod, name)
                if key:
                    direct = direct | frozenset({key})
            return direct, elems
        if isinstance(expr, ast.Subscript):
            _, elems = self._eval(expr.value, func, env)
            return elems, _EMPTY
        if isinstance(expr, ast.Await):
            return self._eval(expr.value, func, env)
        if isinstance(expr, (ast.IfExp,)):
            a = self._eval(expr.body, func, env)
            b = self._eval(expr.orelse, func, env)
            return a[0] | b[0], a[1] | b[1]
        return _EMPTY, _EMPTY

    # ------------------------------------------------------------------
    # Call resolution
    # ------------------------------------------------------------------
    def resolve_call(
        self,
        call: ast.Call,
        func: FuncInfo,
        env: Dict[str, Tuple[FrozenSet[str], FrozenSet[str]]],
    ) -> List[FuncInfo]:
        mod = self.modules[func.module]
        f = call.func
        if isinstance(f, ast.Name):
            # Local function, imported function, or constructor.
            if f.id in mod.functions:
                return [mod.functions[f.id]]
            key = self.resolve_class_name(mod, f.id)
            if key is not None:
                hit = self.mro_method(key, "__init__")
                return [hit] if hit else []
            target = mod.imports.get(f.id)
            if target is not None:
                base, _, attr = target.rpartition(".")
                target_mod = self.modules.get(base)
                if target_mod is not None and attr in target_mod.functions:
                    return [target_mod.functions[attr]]
                # package __init__ re-export
                if target_mod is not None:
                    chased = target_mod.imports.get(attr)
                    if chased is not None:
                        cbase, _, cattr = chased.rpartition(".")
                        cmod = self.modules.get(cbase)
                        if cmod is not None and cattr in cmod.functions:
                            return [cmod.functions[cattr]]
            return []
        if isinstance(f, ast.Attribute):
            # super().meth()
            if (
                isinstance(f.value, ast.Call)
                and isinstance(f.value.func, ast.Name)
                and f.value.func.id == "super"
                and func.class_key is not None
            ):
                cls = self.classes.get(func.class_key)
                out = []
                for base in cls.bases if cls else []:
                    hit = self.mro_method(base, f.attr)
                    if hit:
                        out.append(hit)
                return out
            # module alias: serialize.decode_node(...)
            if isinstance(f.value, ast.Name):
                target = mod.imports.get(f.value.id)
                if target is not None and target in self.modules:
                    target_mod = self.modules[target]
                    if f.attr in target_mod.functions:
                        return [target_mod.functions[f.attr]]
            receiver, _ = self._eval(f.value, func, env)
            out_by_key: Dict[str, FuncInfo] = {}
            for key in receiver:
                if key.startswith("type:"):  # classmethod-style call
                    key = key[len("type:") :]
                for info in self.dispatch(key, f.attr):
                    out_by_key[info.key] = info
            return list(out_by_key.values())
        return []

    def receiver_class_names(
        self,
        call: ast.Call,
        func: FuncInfo,
        env: Dict[str, Tuple[FrozenSet[str], FrozenSet[str]]],
    ) -> Set[str]:
        """Bare class names the receiver of ``call`` may have."""
        f = call.func
        if not isinstance(f, ast.Attribute):
            return set()
        receiver, _ = self._eval(f.value, func, env)
        names = set()
        for key in receiver:
            if key.startswith("type:"):
                key = key[len("type:") :]
            cls = self.classes.get(key)
            if cls is None:
                continue
            names.add(cls.name)
            # A receiver typed as a base matches sources/sinks declared
            # on any subclass name and vice versa is handled by dispatch.
        return names


# ======================================================================
# Function-body walk: types flow forward, calls are recorded in order
# ======================================================================
class _BodyWalker(ast.NodeVisitor):
    def __init__(self, program: Program, func: FuncInfo) -> None:
        self.program = program
        self.func = func
        self.env = program._param_env(func)

    # -- assignments refine the local environment -----------------------
    def visit_Assign(self, node: ast.Assign) -> None:
        self.generic_visit(node)
        value_t = self.program._eval(node.value, self.func, self.env)
        if value_t[0] or value_t[1]:
            for tgt in node.targets:
                if isinstance(tgt, ast.Name):
                    self.env[tgt.id] = value_t

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        self.generic_visit(node)
        if isinstance(node.target, ast.Name):
            mod = self.program.modules[self.func.module]
            direct, elems = self.program.ann_types(mod, node.annotation)
            if direct or elems:
                self.env[node.target.id] = (direct, elems)

    def visit_For(self, node: ast.For) -> None:
        _, elems = self.program._eval(node.iter, self.func, self.env)
        if elems and isinstance(node.target, ast.Name):
            self.env[node.target.id] = (elems, _EMPTY)
        self.generic_visit(node)

    def visit_With(self, node: ast.With) -> None:
        for item in node.items:
            if item.optional_vars is not None and isinstance(
                item.optional_vars, ast.Name
            ):
                t = self.program._eval(item.context_expr, self.func, self.env)
                if t[0] or t[1]:
                    self.env[item.optional_vars.id] = t
        self.generic_visit(node)

    # -- nested defs stay attributed to the enclosing function ----------
    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self.generic_visit(node)

    visit_AsyncFunctionDef = visit_FunctionDef
    visit_Lambda = visit_FunctionDef

    # -- calls ----------------------------------------------------------
    def visit_Call(self, node: ast.Call) -> None:
        self.generic_visit(node)
        prog, func = self.program, self.func
        callees = prog.resolve_call(node, func, self.env)
        for callee in callees:
            func.calls.add(callee.key)
        f = node.func
        # Sink/source classification by (class name, method) or function.
        if isinstance(f, ast.Attribute):
            names = prog.receiver_class_names(node, func, self.env)
            rendered = self._render_call(node)
            if any((n, f.attr) in SINK_METHODS for n in names):
                func.sink_calls.append(rendered)
            if any((n, f.attr) in SOURCE_METHODS for n in names):
                func.source_calls.append((node.lineno, rendered))
        elif isinstance(f, ast.Name):
            if f.id in SOURCE_FUNCS and callees:
                func.source_calls.append((node.lineno, f"{f.id}()"))

    @staticmethod
    def _render_call(node: ast.Call) -> str:
        f = node.func
        parts: List[str] = []
        cur: ast.expr = f
        while isinstance(cur, ast.Attribute):
            parts.append(cur.attr)
            cur = cur.value
        if isinstance(cur, ast.Name):
            parts.append(cur.id)
        return ".".join(reversed(parts)) + "()"


# ======================================================================
# Report
# ======================================================================
@dataclass
class CostflowReport:
    violations: List[Violation] = field(default_factory=list)
    waivers: List[str] = field(default_factory=list)
    functions: int = 0
    call_edges: int = 0
    charging_functions: int = 0
    sources_checked: int = 0

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_dict(self) -> Dict[str, object]:
        return {
            "functions": self.functions,
            "call_edges": self.call_edges,
            "charging_functions": self.charging_functions,
            "sources_checked": self.sources_checked,
            "violations": [v.to_dict() for v in self.violations],
            "waivers": list(self.waivers),
        }

    def summary(self) -> str:
        return (
            f"{self.functions} functions, {self.call_edges} call edges, "
            f"{self.charging_functions} charging, {self.sources_checked} "
            f"byte-moving sites checked, {len(self.waivers)} waiver(s)"
        )


# ======================================================================
# Analysis driver
# ======================================================================
def analyze(
    index: ProgramIndex, exempt: Sequence[str] = EXEMPT_MODULES
) -> CostflowReport:
    """Run the must-charge analysis over ``index``'s call graph.

    Unlike the other passes this one takes no default index: the index
    module builds this module's :class:`Program`, so loading one from
    here would be an import cycle."""
    program = index.program
    waivers = index.waivers("costflow")
    report = CostflowReport()
    report.functions = len(program.functions)
    report.call_edges = sum(len(f.calls) for f in program.functions.values())

    # -- charges: reaches a sink through its own callees ----------------
    callers: Dict[str, Set[str]] = {}
    for func in program.functions.values():
        for callee in func.calls:
            callers.setdefault(callee, set()).add(func.key)
    charges: Set[str] = set()
    work = [f.key for f in program.functions.values() if f.sink_calls]
    charges.update(work)
    while work:
        key = work.pop()
        for caller in callers.get(key, ()):
            if caller not in charges:
                charges.add(caller)
                work.append(caller)
    report.charging_functions = len(charges)

    # -- coverage: condensation of the *caller* graph -------------------
    exempt_funcs = {
        f.key for f in program.functions.values() if _is_exempt(f.module, exempt)
    }
    covered = _coverage(program, charges, callers, exempt_funcs)

    # -- findings -------------------------------------------------------
    for func in sorted(program.functions.values(), key=lambda f: (f.path, f.line)):
        if not func.source_calls:
            continue
        if func.key in exempt_funcs:
            continue
        report.sources_checked += len(func.source_calls)
        if covered.get(func.key, False):
            continue
        for line, rendered in func.source_calls:
            waiver = waivers.consume(func.path, line)
            if waiver is not None:
                continue
            chain = _witness_chain(program, func, covered, callers, exempt_funcs)
            report.violations.append(
                Violation(
                    func.path,
                    line,
                    "uncharged-bytes",
                    f"{rendered} moves bytes in {func.module}:{func.qualname}, "
                    "which neither charges the simulated clock nor is "
                    f"dominated by charging callers (chain: {chain}) — "
                    "charge a cost, route through a charging layer, or "
                    "add '# costflow: allow[reason]'",
                )
            )

    report.waivers = waivers.finish(
        report.violations, "the byte move needs no charge", masks="findings"
    )
    return report


def _coverage(
    program: Program,
    charges: Set[str],
    callers: Dict[str, Set[str]],
    exempt_funcs: Set[str],
) -> Dict[str, bool]:
    """Least fixpoint of: covered(f) = charges(f) or (f has callers and
    every non-exempt caller is covered), computed on the SCC
    condensation of the caller graph so recursion does not self-block."""
    keys = list(program.functions)
    comps = sccs(keys, lambda k: program.functions[k].calls & program.functions.keys())
    scc_id = {key: cid for cid, comp in enumerate(comps) for key in comp}
    # Condensed caller relation: callers of an SCC are the SCCs of
    # callers of its members, excluding itself.
    comp_callers: List[Set[int]] = [set() for _ in comps]
    for key in keys:
        for caller in callers.get(key, ()):
            a, b = scc_id[caller], scc_id[key]
            if a != b:
                comp_callers[b].add(a)
    comp_exempt_only = [all(m in exempt_funcs for m in comp) for comp in comps]
    covered_comp = [any(m in charges for m in comp) for comp in comps]
    changed = True
    while changed:
        changed = False
        for cid, pres in enumerate(comp_callers):
            if covered_comp[cid]:
                continue
            live = [p for p in pres if not comp_exempt_only[p]]
            if pres and all(covered_comp[p] or comp_exempt_only[p] for p in pres) and live:
                covered_comp[cid] = True
                changed = True
    return {key: covered_comp[scc_id[key]] for key in keys}


def _witness_chain(
    program: Program,
    func: FuncInfo,
    covered: Dict[str, bool],
    callers: Dict[str, Set[str]],
    exempt_funcs: Set[str],
) -> str:
    """An uncovered caller chain ending at ``func`` (the evidence)."""
    chain = [func.key]
    seen = {func.key}
    cur = func.key
    while True:
        uncovered = sorted(
            c
            for c in callers.get(cur, ())
            if not covered.get(c, False) and c not in seen and c not in exempt_funcs
        )
        if not uncovered:
            break
        cur = uncovered[0]
        seen.add(cur)
        chain.append(cur)
    rendered = " <- ".join(chain)
    if not callers.get(chain[-1]):
        rendered += " <- (entry: no callers charge upstream)"
    return rendered
