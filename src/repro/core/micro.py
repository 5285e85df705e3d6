"""Microinstruction-level accounting model of the PSI.

The PSI executes KL0 with a microprogrammed interpreter; the paper's
Tables 2, 3, 6 and 7 are dynamic frequencies over the executed
*microinstruction stream*.  We do not emulate 64-bit horizontal
microcode words bit-for-bit; instead every primitive action of the
interpreter (:mod:`repro.core.machine`) is declared here as a
:class:`MicroRoutine` — an ordered list of microinstruction *templates*
carrying the fields those tables sample:

* the interpreter **module** the step belongs to (Table 2) — supplied
  by the engine as execution context, because e.g. a dereference step
  counts as ``unify`` during head unification but as ``built`` inside a
  builtin;
* the **work file access modes** used by the Source-1, Source-2 and
  Destination microinstruction fields (Table 6);
* the **branch field operation** (Table 7);
* optionally a **cache command** — but memory traffic is emitted by
  :mod:`repro.core.memory` with real addresses, as one-step routines
  (``R_MEM_*``), so that cache-command frequency (Table 3), per-area
  frequency (Table 4) and the trace fed to the cache simulator
  (Table 5 / Figure 1) all come from genuine addresses.

Because a routine's field histogram is precomputed once, the stats
collector only counts *routine emissions*; all table statistics are
reconstructed exactly at reporting time.  This keeps the interpreter
fast enough for the practical-scale workloads while remaining fully
deterministic and auditable: every number in Tables 2/3/6/7 traces back
to the template lists in this file plus the dynamic behaviour of the
program.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from enum import Enum, IntEnum
from typing import Iterable


class Module(Enum):
    """Firmware interpreter component modules (Table 2).

    Members carry a dense ``idx`` (0..5, definition order) used by the
    interned hot-path counters in :mod:`repro.core.stats`, and hash by
    identity (members are singletons, so identity hashing is consistent
    with ``Enum``'s identity equality) — ``Enum.__hash__`` is a
    Python-level name hash and shows up in interpreter profiles.
    """

    CONTROL = "control"
    UNIFY = "unify"
    TRAIL = "trail"
    GET_ARG = "get_arg"
    CUT = "cut"
    BUILT = "built"

    __hash__ = object.__hash__


#: Number of interpreter modules; the stride of the interned
#: (routine, module) pair index space (see ``MicroRoutine.pair_base``).
N_MODULES = len(Module)
MODULE_BY_INDEX = tuple(Module)
for _i, _module in enumerate(MODULE_BY_INDEX):
    _module.idx = _i
del _i, _module


class CacheCmd(Enum):
    """Cache commands issued by microinstructions (Table 3).

    ``WRITE_STACK`` is the PSI's specialised write command that skips
    block read-in on a write miss; the interpreter uses it for pushes
    to the tops of stacks.  ``code`` is the member's dense 2-bit
    encoding (definition order), shared with the packed
    :class:`~repro.core.memory.TraceRecorder` entry format.
    """

    READ = "read"
    WRITE = "write"
    WRITE_STACK = "write-stack"

    __hash__ = object.__hash__


CMD_BY_CODE = tuple(CacheCmd)
for _i, _cmd in enumerate(CMD_BY_CODE):
    _cmd.code = _i
del _i, _cmd


class WFMode(Enum):
    """Work file access modes (Table 6 rows)."""

    WF00_0F = "WF00-0F"        # first 16 words, dual-ported
    WF10_3F = "WF10-3F"        # rest of the direct-addressable 64 words
    CONSTANT = "Constant"      # the 64-word constant storage area
    PDR_CDR = "@PDR/CDR"       # base-relative via PDR or CDR low bits
    WFAR1 = "@WFAR1"           # indirect via work file address register 1
    WFAR2 = "@WFAR2"           # indirect via work file address register 2
    WFCBR = "@WFCBR"           # base-relative via the control base register


class BranchOp(Enum):
    """Branch-field operations (Table 7).  Exactly one per microstep."""

    # Type 1
    NOP1 = "no operation (1)"
    IF_COND = "if (cond) then"
    IF_NOT_COND = "if (not(cond)) then"
    IF_TAG = "if tag(src2) then"
    CASE_TAG = "case (tag(n,P/CDR))"
    CASE_IRN = "case (irn)"
    CASE_OPCODE = "case (ir-opcode)"
    GOTO1 = "goto (1)"
    GOSUB = "gosub"
    RETURN = "return"
    LOAD_JR = "load-jr"
    GOTO_JR1 = "goto @jr (1)"
    # Type 2
    NOP2 = "no operation (2)"
    GOTO2 = "goto (2)"
    # Type 3
    NOP3 = "no operation (3)"
    GOTO_JR3 = "goto @jr (3)"


#: Table 7 groups its 16 operations into three instruction types.
BRANCH_TYPE = {
    BranchOp.NOP1: 1, BranchOp.IF_COND: 1, BranchOp.IF_NOT_COND: 1,
    BranchOp.IF_TAG: 1, BranchOp.CASE_TAG: 1, BranchOp.CASE_IRN: 1,
    BranchOp.CASE_OPCODE: 1, BranchOp.GOTO1: 1, BranchOp.GOSUB: 1,
    BranchOp.RETURN: 1, BranchOp.LOAD_JR: 1, BranchOp.GOTO_JR1: 1,
    BranchOp.NOP2: 2, BranchOp.GOTO2: 2,
    BranchOp.NOP3: 3, BranchOp.GOTO_JR3: 3,
}

NO_OPERATION_OPS = frozenset({BranchOp.NOP1, BranchOp.NOP2, BranchOp.NOP3})


@dataclass(frozen=True, slots=True)
class MicroStep:
    """One microinstruction template: the fields the console tools sample."""

    wf1: WFMode | None = None       # Source-1 field (ALU input 1)
    wf2: WFMode | None = None       # Source-2 field (ALU input 2); dual-port words only
    dest: WFMode | None = None      # Destination field (ALU output bus)
    br: BranchOp = BranchOp.NOP1
    auto_inc: bool = False          # WFAR access used the auto increment/decrement

    def __post_init__(self) -> None:
        if self.wf2 is not None and self.wf2 is not WFMode.WF00_0F:
            raise ValueError("Source-2 can only read the dual-ported words WF00-0F")


def S(wf1: WFMode | None = None, wf2: WFMode | None = None,
      dest: WFMode | None = None, br: BranchOp = BranchOp.NOP1,
      auto_inc: bool = False) -> MicroStep:
    """Shorthand constructor used by the routine tables below."""
    return MicroStep(wf1, wf2, dest, br, auto_inc)


class MicroRoutine:
    """A named, fixed sequence of microinstruction templates.

    The per-field histograms are precomputed so emitting a routine is a
    single counter increment in the stats collector.  Every routine
    additionally receives a dense id ``rid`` at construction and a
    precomputed ``pair_base = rid * N_MODULES``: the stats collector
    accumulates emissions in a flat list indexed by
    ``pair_base + module.idx`` instead of hashing ``(Module,
    MicroRoutine)`` tuples on every emission.
    """

    __slots__ = ("name", "steps", "n_steps", "wf1_counts", "wf2_counts",
                 "dest_counts", "branch_counts", "wfar_accesses",
                 "wfar_auto_inc", "rid", "pair_base")

    def __init__(self, name: str, steps: Iterable[MicroStep]):
        self.name = name
        self.steps = tuple(steps)
        if not self.steps:
            raise ValueError(f"routine {name!r} must have at least one step")
        self.rid = len(_ALL_ROUTINES)
        self.pair_base = self.rid * N_MODULES
        _ALL_ROUTINES.append(self)
        self.n_steps = len(self.steps)
        self.wf1_counts = Counter(s.wf1 for s in self.steps if s.wf1 is not None)
        self.wf2_counts = Counter(s.wf2 for s in self.steps if s.wf2 is not None)
        self.dest_counts = Counter(s.dest for s in self.steps if s.dest is not None)
        self.branch_counts = Counter(s.br for s in self.steps)
        indirect = (WFMode.WFAR1, WFMode.WFAR2)
        self.wfar_accesses = sum(
            1 for s in self.steps
            for mode in (s.wf1, s.dest) if mode in indirect)
        self.wfar_auto_inc = sum(
            1 for s in self.steps if s.auto_inc
            for mode in (s.wf1, s.dest) if mode in indirect)

    def __repr__(self) -> str:
        return f"MicroRoutine({self.name!r}, {self.n_steps} steps)"

    def __reduce__(self):
        # Routines are registered singletons; pickling by name keeps run
        # summaries compact and — crucially — makes counters keyed by
        # routine objects merge correctly after crossing a process
        # boundary (identity, not a copy, comes back).
        return (_registered, (self.name,))


#: Every constructed routine in ``rid`` order (registered or not); the
#: fold from flat count lists back to ``(Module, MicroRoutine)``
#: counters indexes this.
_ALL_ROUTINES: list["MicroRoutine"] = []

_REGISTRY: dict[str, MicroRoutine] = {}


def pair_space() -> int:
    """Size of the flat (routine, module) pair index space."""
    return len(_ALL_ROUTINES) * N_MODULES


def routines_by_rid() -> list["MicroRoutine"]:
    """Live view of every constructed routine, indexed by ``rid``."""
    return _ALL_ROUTINES


def _registered(name: str) -> "MicroRoutine":
    """Unpickling hook: resolve a routine name to the registry object."""
    return _REGISTRY[name]


def routine(name: str, steps: Iterable[MicroStep]) -> MicroRoutine:
    """Define and register a routine (names must be unique)."""
    if name in _REGISTRY:
        raise ValueError(f"duplicate routine name {name!r}")
    r = MicroRoutine(name, steps)
    _REGISTRY[name] = r
    return r


def all_routines() -> dict[str, MicroRoutine]:
    """A copy of the registry, for the MAP tool and tests."""
    return dict(_REGISTRY)


# ---------------------------------------------------------------------------
# Routine library.
#
# Shorthand used in the comments: "wf" columns are (source1, source2, dest).
# Typical field usage, mirroring the published interpreter:
#  * interpreter state registers (argument registers, stack top pointers,
#    mode flags) live in WF00-0F (dual ported);
#  * scratch registers and saved values live in WF10-3F;
#  * tag masks and small constants come from the Constant area;
#  * current local frame (frame buffer) accesses use @WFAR1 or @PDR/CDR;
#  * trail buffer bookkeeping uses @WFAR2; general WF pointers use @WFCBR.
# ---------------------------------------------------------------------------

W0 = WFMode.WF00_0F
W1 = WFMode.WF10_3F
CON = WFMode.CONSTANT
PC = WFMode.PDR_CDR
A1 = WFMode.WFAR1
A2 = WFMode.WFAR2
CBR = WFMode.WFCBR
B = BranchOp

# -- memory-access steps (emitted by MemorySystem, one per cache command) ---
# A cache command occupies one microinstruction: the address comes from a
# WF register on Source-1; the data travels via the memory data register
# (not the WF), and the step typically also tests cache status or chains
# to the consumer of the data.
R_MEM_READ = routine("mem.read", [S(br=B.IF_COND)])
R_MEM_WRITE = routine("mem.write", [S(wf2=W0, br=B.NOP1)])
R_MEM_WRITE_STACK = routine("mem.write_stack", [S(br=B.GOTO2)])

# -- instruction fetch / decode ---------------------------------------------
R_DECODE = routine("decode", [
    S(wf1=W1, dest=W1, br=B.CASE_TAG),
    S(wf1=W0, br=B.IF_NOT_COND),
])
R_DECODE_PACKED = routine("decode.packed", [
    S(wf1=W1, dest=W0, br=B.CASE_IRN),
    S(wf2=W0, br=B.IF_COND),
])
R_DECODE_OPCODE = routine("decode.opcode", [
    S(wf1=W1, br=B.CASE_OPCODE),
])

# -- goal / control flow ------------------------------------------------------
R_GOAL_FETCH = routine("control.goal_fetch", [
    S(wf1=W1, dest=W0, br=B.GOTO2),
    S(wf2=W0, br=B.IF_NOT_COND),
])
R_CALL_SETUP = routine("control.call_setup", [
    S(wf1=W0, wf2=W0, dest=W1, br=B.GOSUB),
    S(wf1=W1, br=B.IF_NOT_COND),
    S(wf1=CON, wf2=W0, dest=W0, br=B.NOP2),
    S(br=B.RETURN),
])
R_PROC_LOOKUP = routine("control.proc_lookup", [
    S(wf1=W0, wf2=W0, br=B.IF_NOT_COND),
    S(wf1=W1, dest=W1, br=B.LOAD_JR),
    S(br=B.GOTO_JR1),
])
R_CLAUSE_TRY = routine("control.clause_try", [
    S(wf1=W1, wf2=W0, dest=W0, br=B.IF_COND),
    S(wf1=CON, br=B.NOP3),
    S(br=B.GOTO2),
])
R_FRAME_ALLOC = routine("control.frame_alloc", [
    S(wf1=W0, wf2=W0, dest=W1, br=B.IF_NOT_COND),
    S(wf1=CON, dest=A1, br=B.NOP1, auto_inc=True),
    S(wf1=W1, br=B.GOTO2),
])
R_FRAME_INIT_SLOT = routine("control.frame_init_slot", [
    S(wf1=CON, dest=A1, br=B.NOP1, auto_inc=True),
])
R_ENV_PUSH = routine("control.env_push", [
    S(wf1=W0, wf2=W0, dest=W1, br=B.IF_NOT_COND),
    S(wf1=W1, br=B.GOSUB),
    S(wf1=W0, wf2=W0, dest=W0, br=B.NOP2),
    S(wf1=W1, dest=W1, br=B.RETURN),
])
R_ENV_POP = routine("control.env_pop", [
    S(wf1=W1, dest=W0, br=B.RETURN),
    S(wf1=W0, wf2=W0, br=B.IF_COND),
    S(dest=W1, br=B.NOP3),
])
R_PROCEED = routine("control.proceed", [
    S(wf1=W0, br=B.RETURN),
    S(wf1=W1, dest=W0, br=B.NOP3),
    S(wf2=W0, br=B.GOTO2),
])
R_CP_PUSH = routine("control.cp_push", [
    S(wf1=W0, wf2=W0, dest=W1, br=B.IF_NOT_COND),
    S(wf1=W1, br=B.GOSUB),
    S(wf1=W0, dest=W0, br=B.IF_COND),
    S(wf1=CON, dest=W1, br=B.RETURN),
])
R_CP_RESTORE = routine("control.cp_restore", [
    S(wf1=W1, dest=W0, br=B.IF_COND),
    S(wf1=W0, wf2=W0, dest=W1, br=B.NOP2),
    S(wf1=W1, br=B.GOTO2),
])
R_BACKTRACK = routine("control.backtrack", [
    S(wf1=W0, wf2=W0, br=B.IF_NOT_COND),
    S(wf1=W0, dest=W1, br=B.GOTO1),
])
R_FAIL_DISPATCH = routine("control.fail_dispatch", [
    S(wf1=W0, br=B.IF_NOT_COND),
    S(wf1=CON, dest=W0, br=B.GOTO2),
])
R_TRO = routine("control.tro", [
    S(wf1=W0, wf2=W0, dest=W1, br=B.IF_COND),
    S(wf1=W1, br=B.IF_NOT_COND),
    S(wf1=W0, dest=A1, br=B.GOTO2, auto_inc=True),
])
R_SWITCH_BUFFER = routine("control.switch_buffer", [
    S(wf1=CON, dest=W0, br=B.IF_NOT_COND),
    S(wf1=W0, br=B.NOP3),
])

# -- dereference / bind / trail ----------------------------------------------
R_DEREF_STEP = routine("unify.deref_step", [
    S(wf1=W1, dest=W1, br=B.CASE_TAG),
])
R_BIND = routine("unify.bind", [
    S(wf1=W0, wf2=W0, br=B.IF_COND),
    S(wf1=W1, dest=W1, br=B.IF_NOT_COND),
    S(wf1=CON, br=B.NOP2),
    S(br=B.GOTO2),
])
R_BIND_CHECK = routine("unify.bind_check", [
    S(wf1=W0, wf2=W0, br=B.IF_NOT_COND),
])
R_TRAIL_PUSH = routine("trail.push", [
    S(wf1=W0, wf2=W0, br=B.IF_COND),
    S(wf1=W1, br=B.IF_NOT_COND),
    S(wf1=W0, dest=W1, br=B.NOP2),
])
R_TRAIL_SKIP = routine("trail.skip", [
    S(wf1=W0, wf2=W0, br=B.IF_NOT_COND),
])
R_UNTRAIL_ENTRY = routine("trail.untrail_entry", [
    S(wf1=W1, dest=W0, br=B.IF_COND),
    S(wf1=W1, br=B.IF_NOT_COND),
    S(br=B.GOTO2),
])

# -- unification ---------------------------------------------------------------
R_UNIFY_DISPATCH = routine("unify.dispatch", [
    S(wf1=W0, wf2=W0, dest=W1, br=B.CASE_TAG),
    S(wf1=W1, br=B.IF_TAG),
    S(dest=W0, br=B.IF_NOT_COND),
])
R_UNIFY_CONST = routine("unify.const", [
    S(wf1=W0, wf2=W0, br=B.IF_NOT_COND),
    S(wf1=CON, br=B.GOTO2),
])
R_UNIFY_LIST = routine("unify.list", [
    S(wf1=W0, dest=W1, br=B.IF_TAG),
    S(wf1=W1, wf2=W0, br=B.GOSUB),
    S(dest=W0, br=B.IF_COND),
    S(wf1=W1, wf2=W0, br=B.IF_NOT_COND),
    S(wf1=CON, br=B.NOP2),
])
R_UNIFY_STRUCT = routine("unify.struct", [
    S(wf1=W0, dest=W1, br=B.IF_TAG),
    S(wf1=W1, wf2=W0, br=B.IF_NOT_COND),
    S(wf1=W1, dest=W0, br=B.GOSUB),
    S(wf1=CON, br=B.IF_COND),
    S(wf1=W0, wf2=W0, dest=W1, br=B.IF_NOT_COND),
    S(wf1=W1, br=B.NOP2),
    S(dest=W1, br=B.GOTO2),
])
R_UNIFY_RETURN = routine("unify.return", [
    S(wf1=W0, br=B.RETURN),
])
R_BUILD_CELL = routine("unify.build_cell", [
    S(wf1=CON, wf2=W0, dest=W0, br=B.IF_NOT_COND),
    S(wf1=W1, dest=W1, br=B.IF_COND),
    S(wf1=W0, br=B.GOTO2),
])
R_BUILD_VAR = routine("unify.build_var", [
    S(wf1=W1, dest=W1, br=B.IF_COND),
])
R_OCCURS_STEP = routine("unify.walk_step", [
    S(wf1=W1, dest=W0, br=B.GOTO2),
])

# -- argument fetch (get_arg) -------------------------------------------------
R_GET_ARG = routine("get_arg.fetch", [
    S(wf1=W1, dest=W1, br=B.CASE_TAG),
    S(wf1=W0, wf2=W0, br=B.IF_COND),
    S(dest=W0, br=B.IF_NOT_COND),
    S(wf1=W1, br=B.GOTO2),
])
R_GET_ARG_PACKED = routine("get_arg.packed", [
    S(wf1=W1, dest=W0, br=B.CASE_IRN),
    S(wf2=W0, br=B.IF_COND),
])
R_GET_ARG_VAR_BUF = routine("get_arg.var_buffer", [
    S(wf1=A1, dest=W0, br=B.IF_NOT_COND, auto_inc=True),
])
R_GET_ARG_VAR_BUF_BASE = routine("get_arg.var_buffer_base", [
    S(wf1=PC, dest=W0, br=B.IF_NOT_COND),
])
R_GET_ARG_VAR_MEM = routine("get_arg.var_mem", [
    S(wf1=W0, dest=W1, br=B.NOP2),
])
R_PUT_ARG = routine("get_arg.put", [
    S(wf1=W1, dest=W0, br=B.GOTO2),
])

# -- frame-buffer (work file) variable access ---------------------------------
R_FRAME_READ_BUF = routine("wf.frame_read", [
    S(wf1=A1, dest=W1, br=B.NOP1, auto_inc=True),
])
R_FRAME_READ_BUF_BASE = routine("wf.frame_read_base", [
    S(wf1=PC, dest=W1, br=B.NOP1),
])
R_FRAME_WRITE_BUF = routine("wf.frame_write", [
    S(wf1=W1, dest=A1, br=B.NOP1, auto_inc=True),
])
R_FRAME_WRITE_BUF_BASE = routine("wf.frame_write_base", [
    S(wf1=W1, dest=PC, br=B.NOP1),
])
# The trail *buffer* in the WF (@WFAR2) spills/refills in blocks, so
# its access modes appear only once every several trail operations —
# which is why Table 6 shows it nearly idle.
R_TRAIL_BUF = routine("wf.trail_buffer", [
    S(wf1=A2, dest=A2, br=B.NOP1, auto_inc=True),
])
R_WF_GENERAL = routine("wf.general", [
    S(wf1=CBR, dest=W1, br=B.NOP1),
])

# -- cut -----------------------------------------------------------------------
# Cut discards choice points and tidies the machine state; the PSI ran a
# substantial microcoded routine here (WINDOW spends 10% of its steps in
# it, Table 2).
R_CUT = routine("cut.execute", [
    S(wf1=W0, wf2=W0, dest=W1, br=B.IF_COND),
    S(wf1=W1, dest=W0, br=B.IF_NOT_COND),
    S(wf1=W0, br=B.GOSUB),
    S(wf1=W1, wf2=W0, dest=W1, br=B.IF_COND),
    S(wf1=CON, br=B.NOP2),
    S(dest=W1, br=B.IF_NOT_COND),
    S(wf1=W0, wf2=W0, br=B.IF_COND),
    S(wf1=W1, dest=W0, br=B.GOTO2),
    S(wf1=W0, dest=W1, br=B.IF_NOT_COND),
    S(wf1=CON, br=B.NOP3),
    S(wf1=W1, dest=W1, br=B.GOTO2),
    S(wf1=W0, wf2=W0, br=B.IF_COND),
    S(wf1=W1, br=B.IF_NOT_COND),
    S(wf1=W0, dest=W1, br=B.GOTO2),
    S(wf1=W1, dest=W0, br=B.NOP2),
    S(wf1=W0, dest=W0, br=B.RETURN),
])
R_CUT_POP_CP = routine("cut.pop_cp", [
    S(wf1=W0, dest=W0, br=B.IF_NOT_COND),
    S(wf1=W1, br=B.IF_COND),
    S(wf1=W1, wf2=W0, dest=W1, br=B.IF_NOT_COND),
    S(wf1=W0, dest=W1, br=B.GOTO2),
])

# -- builtins -------------------------------------------------------------------
R_BUILTIN_ENTRY = routine("built.entry", [
    S(wf1=W1, br=B.CASE_OPCODE),
    S(wf1=W1, dest=W0, br=B.GOSUB),
    S(wf1=W0, wf2=W0, br=B.IF_NOT_COND),
    S(dest=W1, br=B.NOP2),
])
R_BUILTIN_EXIT = routine("built.exit", [
    S(wf1=W0, br=B.RETURN),
    S(wf1=W1, dest=W0, br=B.IF_COND),
])
R_BUILTIN_STEP = routine("built.step", [
    S(wf1=W0, wf2=W0, dest=W1, br=B.IF_COND),
    S(wf1=W1, br=B.IF_NOT_COND),
    S(dest=W0, br=B.GOTO2),
])
R_ARITH_OP = routine("built.arith_op", [
    S(wf1=W0, wf2=W0, dest=W1, br=B.IF_TAG),
    S(wf1=W1, br=B.IF_NOT_COND),
    S(dest=W0, br=B.NOP2),
])
R_ARITH_DISPATCH = routine("built.arith_dispatch", [
    S(wf1=W1, dest=W0, br=B.CASE_TAG),
    S(wf1=W0, br=B.IF_COND),
])
R_COMPARE = routine("built.compare", [
    S(wf1=W0, wf2=W0, br=B.IF_COND),
    S(wf1=CON, br=B.IF_NOT_COND),
    S(wf1=W1, dest=W1, br=B.GOTO2),
])
R_TYPE_TEST = routine("built.type_test", [
    S(wf1=W0, br=B.IF_TAG),
    S(wf1=W1, dest=W0, br=B.IF_NOT_COND),
    S(wf1=CON, br=B.GOTO2),
])
R_IO_STEP = routine("built.io_step", [
    S(wf1=W1, dest=W1, br=B.IF_COND),
    S(wf1=W0, br=B.GOTO2),
    S(wf1=CON, dest=W0, br=B.IF_NOT_COND),
])
R_VECTOR_INDEX = routine("built.vector_index", [
    S(wf1=W0, wf2=W0, dest=W1, br=B.IF_COND),
    S(wf1=W1, br=B.IF_NOT_COND),
])
R_PROCESS_SWITCH = routine("built.process_switch", [
    S(wf1=W1, dest=W1, br=B.GOTO1),
    S(wf1=W0, dest=W0, br=B.NOP2),
    S(wf1=CBR, dest=W1, br=B.NOP1),
])

MEM_ROUTINES = {
    CacheCmd.READ: R_MEM_READ,
    CacheCmd.WRITE: R_MEM_WRITE,
    CacheCmd.WRITE_STACK: R_MEM_WRITE_STACK,
}

#: ``MEM_ROUTINES`` indexed by ``CacheCmd.code`` — the hot-path form
#: (no enum hashing), plus the precomputed pair bases and step counts
#: used by :meth:`repro.core.stats.StatsCollector.mem_access`.
MEM_ROUTINE_BY_CODE = tuple(MEM_ROUTINES[cmd] for cmd in CMD_BY_CODE)
MEM_PAIR_BASE = tuple(r.pair_base for r in MEM_ROUTINE_BY_CODE)
MEM_STEPS = tuple(r.n_steps for r in MEM_ROUTINE_BY_CODE)

# -- clause indexing (indexed configuration only) -------------------------------
# Declared routines for the first-argument clause-selection dispatch the
# real PSI did *not* have — the "evaluation the paper couldn't run".
# They are billed only under ``MachineConfig.indexed``; the faithful
# emission stream never contains them.  Registered after every faithful
# routine so all pre-existing routine ids (and pair bases) are unchanged.
#
# switch_on_term: case-dispatch on the dereferenced first argument's tag
# (var / const / list-cell / struct), landing in the matching chain.
R_SWITCH_ON_TERM = routine("control.switch_on_term", [
    S(wf1=W0, wf2=W0, br=B.CASE_TAG),
    S(wf1=W1, dest=W1, br=B.LOAD_JR),
    S(br=B.GOTO_JR1),
])
# index_hash: hash the constant value / functor word and probe the
# bucket table for the candidate-clause chain head.
R_INDEX_HASH = routine("control.index_hash", [
    S(wf1=W0, wf2=W0, dest=W1, br=B.NOP1),
    S(wf1=W1, dest=W0, br=B.LOAD_JR),
    S(wf1=W1, br=B.GOTO_JR1),
])
