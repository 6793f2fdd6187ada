//! The KCM instruction set (paper §2.3, figure 3, §3.1).
//!
//! KCM executes fixed-width 64-bit instructions: "a 64-bit instruction word
//! allows encoding register addresses etc. always in the same fields of the
//! instruction". The set is WAM-derived (get/put/unify, try/retry/trust,
//! switches) extended with general-purpose tagged data-manipulation
//! instructions (four-address moves, ALU/FPU operations, load/store with
//! pre-/post-address calculation) — KCM "can be seen as a tagged general
//! purpose machine with support for Logic Programming in general".
//!
//! Two instruction formats exist (figure 3): a register format with up to
//! four register fields, and an address format carrying a 28-bit absolute
//! address (all branches in KCM have absolute branch targets, §3.1.3).
//! Switch instructions are the only multi-word instructions (§4.1).
//!
//! [`Instr::encode`]/[`Instr::decode`] give the binary representation a
//! snapshot stores. Instruction sizes ([`Instr::size_words`]) drive the
//! static code-size accounting (Table 1) and the code cache model; both
//! execution tiers run the decoded form.

use crate::addr::{CodeAddr, VAddr};
use crate::symbol::FunctorId;
use crate::word::Word;

/// Index of one of the 64 registers in the 64 × 64-bit register file
/// (§3.1.1).
///
/// ```
/// use kcm_arch::Reg;
/// let a1 = Reg::new(0);
/// assert_eq!(a1.index(), 0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Reg(u8);

/// Number of registers in the register file.
pub const NUM_REGS: usize = 64;

impl Reg {
    /// Creates a register index.
    ///
    /// # Panics
    ///
    /// Panics if `index >= 64`.
    #[inline]
    pub const fn new(index: u8) -> Reg {
        assert!(index < NUM_REGS as u8, "register index out of range");
        Reg(index)
    }

    /// The raw index.
    #[inline]
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Display for Reg {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "r{}", self.0)
    }
}

/// Integer/generic ALU operations (ALU_D, §3.1.1). Arithmetic on two `Int`
/// operands stays integer; if either operand is a `Float` the operation is
/// carried out by the FPU in IEEE-754 single precision (the paper's
/// "generic arithmetic" via multi-way branching).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum AluOp {
    /// Addition.
    Add = 0,
    /// Subtraction.
    Sub = 1,
    /// Multiplication (multi-cycle, §3.1.1).
    Mul = 2,
    /// Division (multi-cycle). Integer division truncates toward zero.
    Div = 3,
    /// Integer remainder.
    Mod = 4,
    /// Bitwise and (integer only).
    And = 5,
    /// Bitwise or (integer only).
    Or = 6,
    /// Bitwise exclusive or (integer only).
    Xor = 7,
    /// Left shift (integer only).
    Shl = 8,
    /// Arithmetic right shift (integer only).
    Shr = 9,
    /// Arithmetic negation of the first source (second source ignored).
    Neg = 10,
    /// Minimum of the two sources.
    Min = 11,
    /// Maximum of the two sources.
    Max = 12,
}

impl AluOp {
    /// All operations.
    pub const ALL: [AluOp; 13] = [
        AluOp::Add,
        AluOp::Sub,
        AluOp::Mul,
        AluOp::Div,
        AluOp::Mod,
        AluOp::And,
        AluOp::Or,
        AluOp::Xor,
        AluOp::Shl,
        AluOp::Shr,
        AluOp::Neg,
        AluOp::Min,
        AluOp::Max,
    ];

    fn from_bits(b: u8) -> Option<AluOp> {
        AluOp::ALL.get(b as usize).copied()
    }
}

/// Condition codes for conditional branches, evaluated against the PSW
/// status bits set by the latest compare/ALU operation (§3.1.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum Cond {
    /// Equal.
    Eq = 0,
    /// Not equal.
    Ne = 1,
    /// Less than.
    Lt = 2,
    /// Less or equal.
    Le = 3,
    /// Greater than.
    Gt = 4,
    /// Greater or equal.
    Ge = 5,
}

impl Cond {
    /// All condition codes.
    pub const ALL: [Cond; 6] = [Cond::Eq, Cond::Ne, Cond::Lt, Cond::Le, Cond::Gt, Cond::Ge];

    fn from_bits(b: u8) -> Option<Cond> {
        Cond::ALL.get(b as usize).copied()
    }

    /// The condition that holds exactly when `self` does not.
    pub fn negated(self) -> Cond {
        match self {
            Cond::Eq => Cond::Ne,
            Cond::Ne => Cond::Eq,
            Cond::Lt => Cond::Ge,
            Cond::Le => Cond::Gt,
            Cond::Gt => Cond::Le,
            Cond::Ge => Cond::Lt,
        }
    }
}

/// Built-in predicates reached through the escape mechanism (§4.2: built-in
/// functions are "implemented via the escape mechanism, i.e. resorting to
/// the host"). `write/1` and `nl/0` are timed as 5-cycle unit clauses,
/// matching the paper's benchmarking assumption.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum Builtin {
    /// `write/1` — prints A1 to the host stream.
    Write = 0,
    /// `nl/0` — newline on the host stream.
    Nl = 1,
    /// `tab/1` — prints A1 spaces.
    Tab = 2,
    /// `var/1`.
    Var = 3,
    /// `nonvar/1`.
    Nonvar = 4,
    /// `atom/1`.
    Atom = 5,
    /// `atomic/1`.
    Atomic = 6,
    /// `integer/1`.
    Integer = 7,
    /// `float/1`.
    Float = 8,
    /// `number/1`.
    Number = 9,
    /// `is/2` generic fallback: A1 is unified with the evaluation of the
    /// term in A2 (used when the compiler cannot inline native arithmetic).
    Is = 10,
    /// `=:=/2` generic arithmetic comparison.
    ArithEq = 11,
    /// `=\=/2`.
    ArithNe = 12,
    /// `</2`.
    ArithLt = 13,
    /// `=</2`.
    ArithLe = 14,
    /// `>/2`.
    ArithGt = 15,
    /// `>=/2`.
    ArithGe = 16,
    /// `==/2` — structural term identity.
    TermEq = 17,
    /// `\==/2`.
    TermNe = 18,
    /// `functor/3`.
    Functor = 19,
    /// `arg/3`.
    Arg = 20,
    /// `=../2` (univ).
    Univ = 21,
    /// `compare/3` — standard order of terms.
    Compare = 22,
    /// `@</2` — term ordering.
    TermLt = 23,
    /// `@>/2`.
    TermGt = 24,
    /// `@=</2`.
    TermLe = 25,
    /// `@>=/2`.
    TermGe = 26,
    /// `length/2`.
    Length = 27,
    /// `halt/0` from Prolog code.
    Halt = 28,
    /// Top-level hook: report the current solution bindings to the host and
    /// (depending on the run mode) fail to enumerate further solutions.
    ReportSolution = 29,
    /// `statistics/2`-style hook reading the machine's cycle counter.
    Statistics = 30,
    /// `name/2` — atom/list-of-codes conversion.
    Name = 31,
    /// `callable/1`.
    Callable = 32,
    /// `is_list/1`.
    IsList = 33,
    /// `call/1` — the meta-call: A1 holds a goal term; user predicates are
    /// entered execute-style (last-call), built-in goals run inline.
    CallGoal = 34,
    /// `copy_term/2` — unify A2 with a fresh-variable copy of A1.
    CopyTerm = 35,
    /// `ground/1`.
    Ground = 36,
    /// `atom_codes/2`.
    AtomCodes = 37,
    /// `number_codes/2`.
    NumberCodes = 38,
    /// `atom_length/2`.
    AtomLength = 39,
    /// `unify_with_occurs_check/2` — sound unification: binding a
    /// variable to a term containing it fails instead of building a
    /// rational tree.
    UnifyOccurs = 40,
}

impl Builtin {
    /// All builtins.
    pub const ALL: [Builtin; 41] = [
        Builtin::Write,
        Builtin::Nl,
        Builtin::Tab,
        Builtin::Var,
        Builtin::Nonvar,
        Builtin::Atom,
        Builtin::Atomic,
        Builtin::Integer,
        Builtin::Float,
        Builtin::Number,
        Builtin::Is,
        Builtin::ArithEq,
        Builtin::ArithNe,
        Builtin::ArithLt,
        Builtin::ArithLe,
        Builtin::ArithGt,
        Builtin::ArithGe,
        Builtin::TermEq,
        Builtin::TermNe,
        Builtin::Functor,
        Builtin::Arg,
        Builtin::Univ,
        Builtin::Compare,
        Builtin::TermLt,
        Builtin::TermGt,
        Builtin::TermLe,
        Builtin::TermGe,
        Builtin::Length,
        Builtin::Halt,
        Builtin::ReportSolution,
        Builtin::Statistics,
        Builtin::Name,
        Builtin::Callable,
        Builtin::IsList,
        Builtin::CallGoal,
        Builtin::CopyTerm,
        Builtin::Ground,
        Builtin::AtomCodes,
        Builtin::NumberCodes,
        Builtin::AtomLength,
        Builtin::UnifyOccurs,
    ];

    fn from_bits(b: u8) -> Option<Builtin> {
        Builtin::ALL.get(b as usize).copied()
    }

    /// Number of arguments the builtin consumes from A1..An.
    pub fn arity(self) -> u8 {
        match self {
            Builtin::Nl | Builtin::Halt | Builtin::ReportSolution => 0,
            Builtin::Write
            | Builtin::Tab
            | Builtin::Var
            | Builtin::Nonvar
            | Builtin::Atom
            | Builtin::Atomic
            | Builtin::Integer
            | Builtin::Float
            | Builtin::Number
            | Builtin::Callable
            | Builtin::CallGoal
            | Builtin::Ground
            | Builtin::IsList => 1,
            Builtin::Is
            | Builtin::ArithEq
            | Builtin::ArithNe
            | Builtin::ArithLt
            | Builtin::ArithLe
            | Builtin::ArithGt
            | Builtin::ArithGe
            | Builtin::TermEq
            | Builtin::TermNe
            | Builtin::Univ
            | Builtin::Length
            | Builtin::Statistics
            | Builtin::Name
            | Builtin::CopyTerm
            | Builtin::AtomCodes
            | Builtin::NumberCodes
            | Builtin::AtomLength
            | Builtin::UnifyOccurs
            | Builtin::TermLt
            | Builtin::TermGt
            | Builtin::TermLe
            | Builtin::TermGe => 2,
            Builtin::Functor | Builtin::Arg | Builtin::Compare => 3,
        }
    }
}

/// A decoded KCM instruction.
///
/// The WAM-level instructions follow Warren's abstract instruction set
/// adapted to KCM: choice-point creation is *deferred* (shallow
/// backtracking, §3.1.5) with the [`Instr::Neck`] instruction marking the
/// point where a deferred choice point must materialise.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum Instr {
    // ------------------------------------------------------ control
    /// Call a predicate; saves the continuation in CP and records B0 := B
    /// for cut. `arity` is used by choice-point bookkeeping.
    Call {
        /// Entry address of the callee.
        addr: CodeAddr,
        /// Number of argument registers live at the call.
        arity: u8,
    },
    /// Last-call-optimised call: transfers control without pushing a
    /// continuation.
    Execute {
        /// Entry address of the callee.
        addr: CodeAddr,
        /// Number of argument registers live at the transfer.
        arity: u8,
    },
    /// Return through CP.
    Proceed,
    /// Push an environment frame with `n` permanent variables onto the
    /// local stack.
    Allocate {
        /// Number of permanent (Y) variables.
        n: u8,
    },
    /// Pop the current environment frame.
    Deallocate,
    /// First alternative of a clause chain. In KCM this *defers* the choice
    /// point: only the shadow registers are saved (§3.1.5).
    TryMeElse {
        /// Address of the next alternative.
        alt: CodeAddr,
    },
    /// Middle alternative.
    RetryMeElse {
        /// Address of the next alternative.
        alt: CodeAddr,
    },
    /// Last alternative.
    TrustMe,
    /// Indexed first alternative: body of the clause is at `clause`, the
    /// next alternative is the following instruction.
    Try {
        /// Address of the clause code.
        clause: CodeAddr,
    },
    /// Indexed middle alternative.
    Retry {
        /// Address of the clause code.
        clause: CodeAddr,
    },
    /// Indexed last alternative (a direct jump).
    Trust {
        /// Address of the clause code.
        clause: CodeAddr,
    },
    /// The clause neck: end of head+guard. Resets the shallow flag; if a
    /// deferred choice point is still needed (alternatives remain and none
    /// was created) it is pushed here (§3.1.5).
    Neck,
    /// Cut using the B0 register (valid before the first call of the body).
    Cut,
    /// Cut using the B0 value saved in the current environment (valid after
    /// calls).
    CutEnv,
    /// Explicit failure.
    Fail,
    /// Unconditional jump (absolute target, §3.1.3).
    Jump {
        /// Branch target.
        to: CodeAddr,
    },
    /// Dispatch on the dereferenced type of the argument register through
    /// the MWAC (§3.1.4). Historically fixed to A1; the register field
    /// generalises it so the compiler can switch on deeper arguments
    /// (matching-tree indexing). Multi-word: 3 words.
    SwitchOnTerm {
        /// The argument register the dispatch dereferences (usually A1).
        arg: Reg,
        /// Target when the argument is an unbound variable (`None` = fail).
        on_var: Option<CodeAddr>,
        /// Target when the argument is a constant.
        on_const: Option<CodeAddr>,
        /// Target when the argument is a list.
        on_list: Option<CodeAddr>,
        /// Target when the argument is a structure.
        on_struct: Option<CodeAddr>,
    },
    /// Dispatch on the constant in the argument register.
    /// Multi-word: 1 + 2·n words.
    SwitchOnConstant {
        /// The argument register the dispatch dereferences (usually A1;
        /// must be one of A1..A16 for the 4-bit encoding field).
        arg: Reg,
        /// Fall-through when no key matches (`None` = fail).
        default: Option<CodeAddr>,
        /// Key/target table.
        table: Vec<(Word, CodeAddr)>,
    },
    /// Dispatch on the principal functor of the structure in the argument
    /// register. Multi-word: 1 + 2·n words.
    SwitchOnStructure {
        /// The argument register the dispatch dereferences (usually A1;
        /// must be one of A1..A16 for the 4-bit encoding field).
        arg: Reg,
        /// Fall-through when no functor matches (`None` = fail).
        default: Option<CodeAddr>,
        /// Functor/target table.
        table: Vec<(FunctorId, CodeAddr)>,
    },
    /// Escape to a built-in predicate (host escape mechanism).
    Escape {
        /// The built-in to run.
        builtin: Builtin,
    },
    /// Stop the machine.
    Halt {
        /// Whether the computation is reported as a success.
        success: bool,
    },
    /// Inference-accounting pseudo-instruction: emitted before each
    /// natively inlined built-in goal (`is/2`, arithmetic comparisons,
    /// `=/2`) so the machine's inference counter matches the paper's
    /// definition (§4.2: built-in calls count as one inference). Costs
    /// zero cycles; occupies one code word.
    Mark,

    // ------------------------------------------------------ get
    /// `get_variable Xx, Ai` — move Ai into Xx.
    GetVariable {
        /// Destination temporary.
        x: Reg,
        /// Source argument register.
        a: Reg,
    },
    /// `get_variable Yy, Ai`.
    GetVariableY {
        /// Destination permanent slot.
        y: u8,
        /// Source argument register.
        a: Reg,
    },
    /// `get_value Xx, Ai` — full unification of Xx and Ai.
    GetValue {
        /// First operand.
        x: Reg,
        /// Second operand (argument register).
        a: Reg,
    },
    /// `get_value Yy, Ai`.
    GetValueY {
        /// Permanent operand.
        y: u8,
        /// Argument register operand.
        a: Reg,
    },
    /// `get_constant C, Ai`.
    GetConstant {
        /// The constant.
        c: Word,
        /// Argument register.
        a: Reg,
    },
    /// `get_nil Ai`.
    GetNil {
        /// Argument register.
        a: Reg,
    },
    /// `get_list Ai` — enters read or write mode.
    GetList {
        /// Argument register.
        a: Reg,
    },
    /// `get_structure F, Ai`.
    GetStructure {
        /// The functor.
        f: FunctorId,
        /// Argument register.
        a: Reg,
    },

    // ------------------------------------------------------ put
    /// `put_variable Xx, Ai` — fresh heap variable into both Xx and Ai.
    PutVariable {
        /// Temporary register.
        x: Reg,
        /// Argument register.
        a: Reg,
    },
    /// `put_variable Yy, Ai` — fresh variable in env slot Yy.
    PutVariableY {
        /// Permanent slot.
        y: u8,
        /// Argument register.
        a: Reg,
    },
    /// `put_value Xx, Ai`.
    PutValue {
        /// Source temporary.
        x: Reg,
        /// Destination argument register.
        a: Reg,
    },
    /// `put_value Yy, Ai`.
    PutValueY {
        /// Source permanent slot.
        y: u8,
        /// Destination argument register.
        a: Reg,
    },
    /// `put_unsafe_value Yy, Ai` — globalises a local value before
    /// environment deallocation.
    PutUnsafeValue {
        /// Source permanent slot.
        y: u8,
        /// Destination argument register.
        a: Reg,
    },
    /// `put_constant C, Ai`.
    PutConstant {
        /// The constant.
        c: Word,
        /// Destination argument register.
        a: Reg,
    },
    /// `put_nil Ai`.
    PutNil {
        /// Destination argument register.
        a: Reg,
    },
    /// `put_list Ai` — new list cell at H, write mode.
    PutList {
        /// Destination argument register.
        a: Reg,
    },
    /// `put_structure F, Ai`.
    PutStructure {
        /// The functor.
        f: FunctorId,
        /// Destination argument register.
        a: Reg,
    },

    // ------------------------------------------------------ unify
    /// `unify_variable Xx`.
    UnifyVariable {
        /// Destination temporary.
        x: Reg,
    },
    /// `unify_variable Yy`.
    UnifyVariableY {
        /// Destination permanent slot.
        y: u8,
    },
    /// `unify_value Xx`.
    UnifyValue {
        /// Operand temporary.
        x: Reg,
    },
    /// `unify_value Yy`.
    UnifyValueY {
        /// Operand permanent slot.
        y: u8,
    },
    /// `unify_local_value Xx` — like `unify_value` but globalises a local
    /// variable in write mode.
    UnifyLocalValue {
        /// Operand temporary.
        x: Reg,
    },
    /// `unify_local_value Yy`.
    UnifyLocalValueY {
        /// Operand permanent slot.
        y: u8,
    },
    /// `unify_constant C`.
    UnifyConstant {
        /// The constant.
        c: Word,
    },
    /// `unify_nil`.
    UnifyNil,
    /// `unify_void N` — skip / create `n` anonymous arguments.
    UnifyVoid {
        /// Number of void arguments.
        n: u8,
    },
    /// `unify_tail_list` — continue a statically known list spine: in
    /// write mode the tail word is the *next* heap cell (the cons pair is
    /// laid out contiguously), in read mode execution descends into the
    /// tail cell. This is how KCM compiles a static list cell in two
    /// instructions (item + tail) against PLM's one cdr-coded
    /// instruction — the 2:1 relationship §4.1 describes.
    UnifyTailList,

    // ------------------------------------- general purpose (tagged RISC)
    /// Four-address double move: two 64-bit register moves in one cycle
    /// (§3.1.1, figure 5).
    Move2 {
        /// First source.
        s1: Reg,
        /// First destination.
        d1: Reg,
        /// Second source.
        s2: Reg,
        /// Second destination.
        d2: Reg,
    },
    /// Load a tagged constant into a register.
    LoadConst {
        /// Destination register.
        d: Reg,
        /// The tagged constant.
        c: Word,
    },
    /// Generic ALU/FPU operation on tagged operands: Int×Int stays on the
    /// integer ALU; any Float routes to the FPU (generic arithmetic through
    /// multi-way branching, §4.2).
    Alu {
        /// The operation.
        op: AluOp,
        /// Destination register.
        d: Reg,
        /// First source.
        s1: Reg,
        /// Second source.
        s2: Reg,
    },
    /// Generic numeric compare of two registers; sets the PSW condition
    /// bits.
    CmpRegs {
        /// First source.
        s1: Reg,
        /// Second source.
        s2: Reg,
    },
    /// Conditional branch on the PSW (1 cycle untaken / 4 cycles taken,
    /// §3.1.3).
    Branch {
        /// Condition to test.
        cond: Cond,
        /// Absolute branch target.
        to: CodeAddr,
    },
    /// Microcoded dereference: follow the reference chain starting at `s`
    /// at one link per cycle (§3.1.4).
    Deref {
        /// Destination register.
        d: Reg,
        /// Source register.
        s: Reg,
    },
    /// TVM tag/value swap (§3.1.1).
    TvmSwap {
        /// Destination register.
        d: Reg,
        /// Source register.
        s: Reg,
    },
    /// TVM garbage-collection bit manipulation.
    TvmGc {
        /// Destination register.
        d: Reg,
        /// Source register.
        s: Reg,
        /// New GC bits.
        bits: u8,
    },
    /// Load with pre-/post-address calculation (§3.1.2): `pre` computes the
    /// effective address as `Ras + off` before the access; `post` accesses
    /// `Ras` and writes `Ras + off` to Rad either way.
    Load {
        /// Data destination register (Rdd).
        dd: Reg,
        /// Address source register (Ras).
        ras: Reg,
        /// Address destination register (Rad).
        rad: Reg,
        /// 16-bit signed word offset.
        off: i16,
        /// Pre-address-calculation mode.
        pre: bool,
    },
    /// Store with pre-/post-address calculation.
    Store {
        /// Data source register (Rds).
        ds: Reg,
        /// Address source register (Ras).
        ras: Reg,
        /// Address destination register (Rad).
        rad: Reg,
        /// 16-bit signed word offset.
        off: i16,
        /// Pre-address-calculation mode.
        pre: bool,
    },
    /// Direct-address load (§3.1.2).
    LoadDirect {
        /// Destination register.
        d: Reg,
        /// Absolute data address.
        addr: VAddr,
    },
    /// Direct-address store.
    StoreDirect {
        /// Source register.
        s: Reg,
        /// Absolute data address.
        addr: VAddr,
    },
}

// Opcode bytes. Grouped by instruction family; gaps are reserved.
const OP_CALL: u8 = 0x01;
const OP_EXECUTE: u8 = 0x02;
const OP_PROCEED: u8 = 0x03;
const OP_ALLOCATE: u8 = 0x04;
const OP_DEALLOCATE: u8 = 0x05;
const OP_TRY_ME_ELSE: u8 = 0x06;
const OP_RETRY_ME_ELSE: u8 = 0x07;
const OP_TRUST_ME: u8 = 0x08;
const OP_TRY: u8 = 0x09;
const OP_RETRY: u8 = 0x0A;
const OP_TRUST: u8 = 0x0B;
const OP_NECK: u8 = 0x0C;
const OP_CUT: u8 = 0x0D;
const OP_CUT_ENV: u8 = 0x0E;
const OP_FAIL: u8 = 0x0F;
const OP_JUMP: u8 = 0x10;
const OP_SWITCH_ON_TERM: u8 = 0x11;
const OP_SWITCH_ON_CONSTANT: u8 = 0x12;
const OP_SWITCH_ON_STRUCTURE: u8 = 0x13;
const OP_ESCAPE: u8 = 0x14;
const OP_HALT: u8 = 0x15;
const OP_MARK: u8 = 0x16;

const OP_GET_VARIABLE: u8 = 0x20;
const OP_GET_VARIABLE_Y: u8 = 0x21;
const OP_GET_VALUE: u8 = 0x22;
const OP_GET_VALUE_Y: u8 = 0x23;
const OP_GET_CONSTANT: u8 = 0x24;
const OP_GET_NIL: u8 = 0x25;
const OP_GET_LIST: u8 = 0x26;
const OP_GET_STRUCTURE: u8 = 0x27;

const OP_PUT_VARIABLE: u8 = 0x30;
const OP_PUT_VARIABLE_Y: u8 = 0x31;
const OP_PUT_VALUE: u8 = 0x32;
const OP_PUT_VALUE_Y: u8 = 0x33;
const OP_PUT_UNSAFE_VALUE: u8 = 0x34;
const OP_PUT_CONSTANT: u8 = 0x35;
const OP_PUT_NIL: u8 = 0x36;
const OP_PUT_LIST: u8 = 0x37;
const OP_PUT_STRUCTURE: u8 = 0x38;

const OP_UNIFY_VARIABLE: u8 = 0x40;
const OP_UNIFY_VARIABLE_Y: u8 = 0x41;
const OP_UNIFY_VALUE: u8 = 0x42;
const OP_UNIFY_VALUE_Y: u8 = 0x43;
const OP_UNIFY_LOCAL_VALUE: u8 = 0x44;
const OP_UNIFY_LOCAL_VALUE_Y: u8 = 0x45;
const OP_UNIFY_CONSTANT: u8 = 0x46;
const OP_UNIFY_NIL: u8 = 0x47;
const OP_UNIFY_VOID: u8 = 0x48;
const OP_UNIFY_TAIL_LIST: u8 = 0x49;

const OP_MOVE2: u8 = 0x50;
const OP_LOAD_CONST: u8 = 0x51;
const OP_ALU: u8 = 0x52;
const OP_CMP_REGS: u8 = 0x53;
const OP_BRANCH: u8 = 0x54;
const OP_DEREF: u8 = 0x55;
const OP_TVM_SWAP: u8 = 0x56;
const OP_TVM_GC: u8 = 0x57;
const OP_LOAD: u8 = 0x58;
const OP_STORE: u8 = 0x59;
const OP_LOAD_DIRECT: u8 = 0x5A;
const OP_STORE_DIRECT: u8 = 0x5B;

/// 28-bit sentinel meaning "fail" in switch targets.
const ADDR_FAIL: u32 = 0x0FFF_FFFF;

#[inline]
fn enc_opt_addr(a: Option<CodeAddr>) -> u64 {
    match a {
        Some(a) => a.value() as u64,
        None => ADDR_FAIL as u64,
    }
}

#[inline]
fn dec_opt_addr(bits: u64) -> Option<CodeAddr> {
    let v = (bits & 0x0FFF_FFFF) as u32;
    if v == ADDR_FAIL {
        None
    } else {
        Some(CodeAddr::new(v))
    }
}

#[inline]
fn op(code: u8) -> u64 {
    (code as u64) << 56
}

#[inline]
fn r1(r: Reg) -> u64 {
    (r.index() as u64) << 48
}

#[inline]
fn r2(r: Reg) -> u64 {
    (r.index() as u64) << 40
}

#[inline]
fn r3(r: Reg) -> u64 {
    (r.index() as u64) << 32
}

#[inline]
fn r4(r: Reg) -> u64 {
    (r.index() as u64) << 24
}

#[inline]
fn imm16(v: u16) -> u64 {
    (v as u64) << 8
}

/// Constant operand: 32-bit value in bits 0..32, 4-bit tag in bits 32..36,
/// 4-bit zone in bits 36..40.
#[inline]
fn enc_const(w: Word) -> u64 {
    let tag = (w.bits() >> 48) & 0xF;
    let zone = (w.bits() >> 52) & 0xF;
    (w.value() as u64) | (tag << 32) | (zone << 36)
}

#[inline]
fn dec_const(bits: u64) -> Word {
    let value = bits & 0xFFFF_FFFF;
    let tag = (bits >> 32) & 0xF;
    let zone = (bits >> 36) & 0xF;
    Word::from_bits(value | (tag << 48) | (zone << 52))
}

#[inline]
fn dreg(bits: u64, shift: u32) -> Reg {
    Reg::new(((bits >> shift) & 0x3F) as u8)
}

impl Instr {
    /// Number of 64-bit code words the instruction occupies. Only the
    /// switch instructions are multi-word (§4.1).
    pub fn size_words(&self) -> usize {
        match self {
            Instr::SwitchOnTerm { .. } => 3,
            Instr::SwitchOnConstant { table, .. } => 1 + 2 * table.len(),
            Instr::SwitchOnStructure { table, .. } => 1 + 2 * table.len(),
            _ => 1,
        }
    }

    /// Encodes the instruction, appending its words to `out`.
    ///
    /// # Panics
    ///
    /// Panics if a switch table exceeds 2²⁴ − 1 entries (the count field)
    /// or a table switch dispatches on a register outside A1..A16 (the
    /// 4-bit argument field).
    pub fn encode(&self, out: &mut Vec<u64>) {
        match self {
            Instr::Call { addr, arity } => {
                out.push(op(OP_CALL) | ((*arity as u64) << 48) | addr.value() as u64);
            }
            Instr::Execute { addr, arity } => {
                out.push(op(OP_EXECUTE) | ((*arity as u64) << 48) | addr.value() as u64);
            }
            Instr::Proceed => out.push(op(OP_PROCEED)),
            Instr::Allocate { n } => out.push(op(OP_ALLOCATE) | ((*n as u64) << 48)),
            Instr::Deallocate => out.push(op(OP_DEALLOCATE)),
            Instr::TryMeElse { alt } => out.push(op(OP_TRY_ME_ELSE) | alt.value() as u64),
            Instr::RetryMeElse { alt } => out.push(op(OP_RETRY_ME_ELSE) | alt.value() as u64),
            Instr::TrustMe => out.push(op(OP_TRUST_ME)),
            Instr::Try { clause } => out.push(op(OP_TRY) | clause.value() as u64),
            Instr::Retry { clause } => out.push(op(OP_RETRY) | clause.value() as u64),
            Instr::Trust { clause } => out.push(op(OP_TRUST) | clause.value() as u64),
            Instr::Neck => out.push(op(OP_NECK)),
            Instr::Cut => out.push(op(OP_CUT)),
            Instr::CutEnv => out.push(op(OP_CUT_ENV)),
            Instr::Fail => out.push(op(OP_FAIL)),
            Instr::Jump { to } => out.push(op(OP_JUMP) | to.value() as u64),
            Instr::SwitchOnTerm {
                arg,
                on_var,
                on_const,
                on_list,
                on_struct,
            } => {
                out.push(op(OP_SWITCH_ON_TERM) | r1(*arg) | enc_opt_addr(*on_var));
                out.push(enc_opt_addr(*on_const) | (enc_opt_addr(*on_list) << 28));
                out.push(enc_opt_addr(*on_struct));
            }
            Instr::SwitchOnConstant {
                arg,
                default,
                table,
            } => {
                assert!(table.len() < (1 << 24), "switch table too large");
                assert!(arg.index() < 16, "switch argument register above A16");
                out.push(
                    op(OP_SWITCH_ON_CONSTANT)
                        | ((arg.index() as u64) << 52)
                        | ((table.len() as u64) << 28)
                        | enc_opt_addr(*default),
                );
                for (key, target) in table {
                    out.push(key.bits());
                    out.push(target.value() as u64);
                }
            }
            Instr::SwitchOnStructure {
                arg,
                default,
                table,
            } => {
                assert!(table.len() < (1 << 24), "switch table too large");
                assert!(arg.index() < 16, "switch argument register above A16");
                out.push(
                    op(OP_SWITCH_ON_STRUCTURE)
                        | ((arg.index() as u64) << 52)
                        | ((table.len() as u64) << 28)
                        | enc_opt_addr(*default),
                );
                for (f, target) in table {
                    out.push(Word::functor(*f).bits());
                    out.push(target.value() as u64);
                }
            }
            Instr::Escape { builtin } => {
                out.push(op(OP_ESCAPE) | ((*builtin as u64) << 48));
            }
            Instr::Halt { success } => {
                out.push(op(OP_HALT) | ((*success as u64) << 48));
            }
            Instr::Mark => out.push(op(OP_MARK)),
            Instr::GetVariable { x, a } => out.push(op(OP_GET_VARIABLE) | r1(*x) | r2(*a)),
            Instr::GetVariableY { y, a } => {
                out.push(op(OP_GET_VARIABLE_Y) | ((*y as u64) << 48) | r2(*a));
            }
            Instr::GetValue { x, a } => out.push(op(OP_GET_VALUE) | r1(*x) | r2(*a)),
            Instr::GetValueY { y, a } => {
                out.push(op(OP_GET_VALUE_Y) | ((*y as u64) << 48) | r2(*a));
            }
            Instr::GetConstant { c, a } => {
                out.push(op(OP_GET_CONSTANT) | r1(*a) | enc_const(*c));
            }
            Instr::GetNil { a } => out.push(op(OP_GET_NIL) | r1(*a)),
            Instr::GetList { a } => out.push(op(OP_GET_LIST) | r1(*a)),
            Instr::GetStructure { f, a } => {
                out.push(op(OP_GET_STRUCTURE) | r1(*a) | (f.index() as u64));
            }
            Instr::PutVariable { x, a } => out.push(op(OP_PUT_VARIABLE) | r1(*x) | r2(*a)),
            Instr::PutVariableY { y, a } => {
                out.push(op(OP_PUT_VARIABLE_Y) | ((*y as u64) << 48) | r2(*a));
            }
            Instr::PutValue { x, a } => out.push(op(OP_PUT_VALUE) | r1(*x) | r2(*a)),
            Instr::PutValueY { y, a } => {
                out.push(op(OP_PUT_VALUE_Y) | ((*y as u64) << 48) | r2(*a));
            }
            Instr::PutUnsafeValue { y, a } => {
                out.push(op(OP_PUT_UNSAFE_VALUE) | ((*y as u64) << 48) | r2(*a));
            }
            Instr::PutConstant { c, a } => {
                out.push(op(OP_PUT_CONSTANT) | r1(*a) | enc_const(*c));
            }
            Instr::PutNil { a } => out.push(op(OP_PUT_NIL) | r1(*a)),
            Instr::PutList { a } => out.push(op(OP_PUT_LIST) | r1(*a)),
            Instr::PutStructure { f, a } => {
                out.push(op(OP_PUT_STRUCTURE) | r1(*a) | (f.index() as u64));
            }
            Instr::UnifyVariable { x } => out.push(op(OP_UNIFY_VARIABLE) | r1(*x)),
            Instr::UnifyVariableY { y } => {
                out.push(op(OP_UNIFY_VARIABLE_Y) | ((*y as u64) << 48));
            }
            Instr::UnifyValue { x } => out.push(op(OP_UNIFY_VALUE) | r1(*x)),
            Instr::UnifyValueY { y } => out.push(op(OP_UNIFY_VALUE_Y) | ((*y as u64) << 48)),
            Instr::UnifyLocalValue { x } => out.push(op(OP_UNIFY_LOCAL_VALUE) | r1(*x)),
            Instr::UnifyLocalValueY { y } => {
                out.push(op(OP_UNIFY_LOCAL_VALUE_Y) | ((*y as u64) << 48));
            }
            Instr::UnifyConstant { c } => out.push(op(OP_UNIFY_CONSTANT) | enc_const(*c)),
            Instr::UnifyNil => out.push(op(OP_UNIFY_NIL)),
            Instr::UnifyVoid { n } => out.push(op(OP_UNIFY_VOID) | ((*n as u64) << 48)),
            Instr::UnifyTailList => out.push(op(OP_UNIFY_TAIL_LIST)),
            Instr::Move2 { s1, d1, s2, d2 } => {
                out.push(op(OP_MOVE2) | r1(*s1) | r2(*d1) | r3(*s2) | r4(*d2));
            }
            Instr::LoadConst { d, c } => out.push(op(OP_LOAD_CONST) | r1(*d) | enc_const(*c)),
            Instr::Alu { op: o, d, s1, s2 } => {
                out.push(op(OP_ALU) | r1(*d) | r2(*s1) | r3(*s2) | ((*o as u64) << 8));
            }
            Instr::CmpRegs { s1, s2 } => out.push(op(OP_CMP_REGS) | r1(*s1) | r2(*s2)),
            Instr::Branch { cond, to } => {
                out.push(op(OP_BRANCH) | ((*cond as u64) << 48) | to.value() as u64);
            }
            Instr::Deref { d, s } => out.push(op(OP_DEREF) | r1(*d) | r2(*s)),
            Instr::TvmSwap { d, s } => out.push(op(OP_TVM_SWAP) | r1(*d) | r2(*s)),
            Instr::TvmGc { d, s, bits } => {
                out.push(op(OP_TVM_GC) | r1(*d) | r2(*s) | ((*bits as u64 & 0x3) << 8));
            }
            Instr::Load {
                dd,
                ras,
                rad,
                off,
                pre,
            } => {
                out.push(
                    op(OP_LOAD)
                        | r1(*dd)
                        | r2(*ras)
                        | r3(*rad)
                        | imm16(*off as u16)
                        | (*pre as u64),
                );
            }
            Instr::Store {
                ds,
                ras,
                rad,
                off,
                pre,
            } => {
                out.push(
                    op(OP_STORE)
                        | r1(*ds)
                        | r2(*ras)
                        | r3(*rad)
                        | imm16(*off as u16)
                        | (*pre as u64),
                );
            }
            Instr::LoadDirect { d, addr } => {
                out.push(op(OP_LOAD_DIRECT) | r1(*d) | addr.value() as u64);
            }
            Instr::StoreDirect { s, addr } => {
                out.push(op(OP_STORE_DIRECT) | r1(*s) | addr.value() as u64);
            }
        }
    }

    /// Decodes one instruction from the start of `words`, returning the
    /// instruction and how many words it consumed. Returns `None` on an
    /// invalid opcode or truncated multi-word instruction.
    pub fn decode(words: &[u64]) -> Option<(Instr, usize)> {
        let w = *words.first()?;
        let opcode = (w >> 56) as u8;
        let addr28 = || CodeAddr::new((w & 0x0FFF_FFFF) as u32);
        let f8 = ((w >> 48) & 0xFF) as u8;
        let instr = match opcode {
            OP_CALL => Instr::Call {
                addr: addr28(),
                arity: f8,
            },
            OP_EXECUTE => Instr::Execute {
                addr: addr28(),
                arity: f8,
            },
            OP_PROCEED => Instr::Proceed,
            OP_ALLOCATE => Instr::Allocate { n: f8 },
            OP_DEALLOCATE => Instr::Deallocate,
            OP_TRY_ME_ELSE => Instr::TryMeElse { alt: addr28() },
            OP_RETRY_ME_ELSE => Instr::RetryMeElse { alt: addr28() },
            OP_TRUST_ME => Instr::TrustMe,
            OP_TRY => Instr::Try { clause: addr28() },
            OP_RETRY => Instr::Retry { clause: addr28() },
            OP_TRUST => Instr::Trust { clause: addr28() },
            OP_NECK => Instr::Neck,
            OP_CUT => Instr::Cut,
            OP_CUT_ENV => Instr::CutEnv,
            OP_FAIL => Instr::Fail,
            OP_JUMP => Instr::Jump { to: addr28() },
            OP_SWITCH_ON_TERM => {
                let w1 = *words.get(1)?;
                let w2 = *words.get(2)?;
                return Some((
                    Instr::SwitchOnTerm {
                        arg: dreg(w, 48),
                        on_var: dec_opt_addr(w),
                        on_const: dec_opt_addr(w1),
                        on_list: dec_opt_addr(w1 >> 28),
                        on_struct: dec_opt_addr(w2),
                    },
                    3,
                ));
            }
            OP_SWITCH_ON_CONSTANT | OP_SWITCH_ON_STRUCTURE => {
                let n = ((w >> 28) & 0xFF_FFFF) as usize;
                let arg = Reg::new(((w >> 52) & 0xF) as u8);
                let default = dec_opt_addr(w);
                if words.len() < 1 + 2 * n {
                    return None;
                }
                if opcode == OP_SWITCH_ON_CONSTANT {
                    let mut table = Vec::with_capacity(n);
                    for i in 0..n {
                        let key = Word::from_bits(words[1 + 2 * i]);
                        let target = CodeAddr::new((words[2 + 2 * i] & 0x0FFF_FFFF) as u32);
                        table.push((key, target));
                    }
                    return Some((
                        Instr::SwitchOnConstant {
                            arg,
                            default,
                            table,
                        },
                        1 + 2 * n,
                    ));
                }
                let mut table = Vec::with_capacity(n);
                for i in 0..n {
                    let key = Word::from_bits(words[1 + 2 * i]).as_functor()?;
                    let target = CodeAddr::new((words[2 + 2 * i] & 0x0FFF_FFFF) as u32);
                    table.push((key, target));
                }
                return Some((
                    Instr::SwitchOnStructure {
                        arg,
                        default,
                        table,
                    },
                    1 + 2 * n,
                ));
            }
            OP_ESCAPE => Instr::Escape {
                builtin: Builtin::from_bits(f8)?,
            },
            OP_HALT => Instr::Halt {
                success: f8 & 1 == 1,
            },
            OP_MARK => Instr::Mark,
            OP_GET_VARIABLE => Instr::GetVariable {
                x: dreg(w, 48),
                a: dreg(w, 40),
            },
            OP_GET_VARIABLE_Y => Instr::GetVariableY {
                y: f8,
                a: dreg(w, 40),
            },
            OP_GET_VALUE => Instr::GetValue {
                x: dreg(w, 48),
                a: dreg(w, 40),
            },
            OP_GET_VALUE_Y => Instr::GetValueY {
                y: f8,
                a: dreg(w, 40),
            },
            OP_GET_CONSTANT => Instr::GetConstant {
                c: dec_const(w),
                a: dreg(w, 48),
            },
            OP_GET_NIL => Instr::GetNil { a: dreg(w, 48) },
            OP_GET_LIST => Instr::GetList { a: dreg(w, 48) },
            OP_GET_STRUCTURE => Instr::GetStructure {
                f: FunctorId::new((w & 0xFFFF_FFFF) as usize),
                a: dreg(w, 48),
            },
            OP_PUT_VARIABLE => Instr::PutVariable {
                x: dreg(w, 48),
                a: dreg(w, 40),
            },
            OP_PUT_VARIABLE_Y => Instr::PutVariableY {
                y: f8,
                a: dreg(w, 40),
            },
            OP_PUT_VALUE => Instr::PutValue {
                x: dreg(w, 48),
                a: dreg(w, 40),
            },
            OP_PUT_VALUE_Y => Instr::PutValueY {
                y: f8,
                a: dreg(w, 40),
            },
            OP_PUT_UNSAFE_VALUE => Instr::PutUnsafeValue {
                y: f8,
                a: dreg(w, 40),
            },
            OP_PUT_CONSTANT => Instr::PutConstant {
                c: dec_const(w),
                a: dreg(w, 48),
            },
            OP_PUT_NIL => Instr::PutNil { a: dreg(w, 48) },
            OP_PUT_LIST => Instr::PutList { a: dreg(w, 48) },
            OP_PUT_STRUCTURE => Instr::PutStructure {
                f: FunctorId::new((w & 0xFFFF_FFFF) as usize),
                a: dreg(w, 48),
            },
            OP_UNIFY_VARIABLE => Instr::UnifyVariable { x: dreg(w, 48) },
            OP_UNIFY_VARIABLE_Y => Instr::UnifyVariableY { y: f8 },
            OP_UNIFY_VALUE => Instr::UnifyValue { x: dreg(w, 48) },
            OP_UNIFY_VALUE_Y => Instr::UnifyValueY { y: f8 },
            OP_UNIFY_LOCAL_VALUE => Instr::UnifyLocalValue { x: dreg(w, 48) },
            OP_UNIFY_LOCAL_VALUE_Y => Instr::UnifyLocalValueY { y: f8 },
            OP_UNIFY_CONSTANT => Instr::UnifyConstant { c: dec_const(w) },
            OP_UNIFY_NIL => Instr::UnifyNil,
            OP_UNIFY_VOID => Instr::UnifyVoid { n: f8 },
            OP_UNIFY_TAIL_LIST => Instr::UnifyTailList,
            OP_MOVE2 => Instr::Move2 {
                s1: dreg(w, 48),
                d1: dreg(w, 40),
                s2: dreg(w, 32),
                d2: dreg(w, 24),
            },
            OP_LOAD_CONST => Instr::LoadConst {
                d: dreg(w, 48),
                c: dec_const(w),
            },
            OP_ALU => Instr::Alu {
                op: AluOp::from_bits(((w >> 8) & 0xFF) as u8)?,
                d: dreg(w, 48),
                s1: dreg(w, 40),
                s2: dreg(w, 32),
            },
            OP_CMP_REGS => Instr::CmpRegs {
                s1: dreg(w, 48),
                s2: dreg(w, 40),
            },
            OP_BRANCH => Instr::Branch {
                cond: Cond::from_bits(f8)?,
                to: addr28(),
            },
            OP_DEREF => Instr::Deref {
                d: dreg(w, 48),
                s: dreg(w, 40),
            },
            OP_TVM_SWAP => Instr::TvmSwap {
                d: dreg(w, 48),
                s: dreg(w, 40),
            },
            OP_TVM_GC => Instr::TvmGc {
                d: dreg(w, 48),
                s: dreg(w, 40),
                bits: ((w >> 8) & 0x3) as u8,
            },
            OP_LOAD => Instr::Load {
                dd: dreg(w, 48),
                ras: dreg(w, 40),
                rad: dreg(w, 32),
                off: ((w >> 8) & 0xFFFF) as u16 as i16,
                pre: w & 1 == 1,
            },
            OP_STORE => Instr::Store {
                ds: dreg(w, 48),
                ras: dreg(w, 40),
                rad: dreg(w, 32),
                off: ((w >> 8) & 0xFFFF) as u16 as i16,
                pre: w & 1 == 1,
            },
            OP_LOAD_DIRECT => Instr::LoadDirect {
                d: dreg(w, 48),
                addr: VAddr::new((w & 0x0FFF_FFFF) as u32),
            },
            OP_STORE_DIRECT => Instr::StoreDirect {
                s: dreg(w, 48),
                addr: VAddr::new((w & 0x0FFF_FFFF) as u32),
            },
            _ => return None,
        };
        Some((instr, 1))
    }

    /// The table length of an encoded `switch_on_constant` or
    /// `switch_on_structure`, read from its first word; `None` for every
    /// other opcode. The snapshot loader's scan pass reads it to check
    /// each hash side table against the switch it indexes.
    #[inline]
    pub(crate) fn table_switch_len(word: u64) -> Option<usize> {
        match (word >> 56) as u8 {
            OP_SWITCH_ON_CONSTANT | OP_SWITCH_ON_STRUCTURE => {
                Some(((word >> 28) & 0xFF_FFFF) as usize)
            }
            _ => None,
        }
    }

    /// Validates one encoded instruction without materializing it:
    /// returns the word count it occupies, rejecting exactly the
    /// malformations [`Instr::decode`] rejects (unknown opcode, truncated
    /// multi-word instruction, bad builtin/ALU/condition bits, a
    /// structure-switch key that is not a functor). The snapshot loader
    /// runs this over the whole stream so lazy per-chunk decode can never
    /// fail afterwards; `scan_matches_decode` in the tests pins the
    /// equivalence.
    #[inline]
    pub fn scan(words: &[u64]) -> Option<usize> {
        // Fast path: single-word opcodes whose operand bits need no
        // validation resolve with one table load — the scan loop over a
        // million-fact stream is dominated by these.
        const PLAIN_ONE_WORD: [bool; 256] = {
            let mut t = [false; 256];
            let ranges: [(u8, u8); 5] = [
                (OP_CALL, OP_MARK),
                (OP_GET_VARIABLE, OP_GET_STRUCTURE),
                (OP_PUT_VARIABLE, OP_PUT_STRUCTURE),
                (OP_UNIFY_VARIABLE, OP_UNIFY_TAIL_LIST),
                (OP_MOVE2, OP_STORE_DIRECT),
            ];
            let mut r = 0;
            while r < ranges.len() {
                let mut op = ranges[r].0;
                while op <= ranges[r].1 {
                    t[op as usize] = true;
                    op += 1;
                }
                r += 1;
            }
            // Opcodes whose operands *are* validated take the slow path.
            t[OP_SWITCH_ON_TERM as usize] = false;
            t[OP_SWITCH_ON_CONSTANT as usize] = false;
            t[OP_SWITCH_ON_STRUCTURE as usize] = false;
            t[OP_ESCAPE as usize] = false;
            t[OP_ALU as usize] = false;
            t[OP_BRANCH as usize] = false;
            t
        };
        let w = *words.first()?;
        let opcode = (w >> 56) as u8;
        if PLAIN_ONE_WORD[opcode as usize] {
            return Some(1);
        }
        let f8 = ((w >> 48) & 0xFF) as u8;
        match opcode {
            OP_SWITCH_ON_TERM => {
                words.get(2)?;
                Some(3)
            }
            OP_SWITCH_ON_CONSTANT | OP_SWITCH_ON_STRUCTURE => {
                let n = ((w >> 28) & 0xFF_FFFF) as usize;
                if words.len() < 1 + 2 * n {
                    return None;
                }
                if opcode == OP_SWITCH_ON_STRUCTURE {
                    for i in 0..n {
                        Word::from_bits(words[1 + 2 * i]).as_functor()?;
                    }
                }
                Some(1 + 2 * n)
            }
            OP_ESCAPE => {
                Builtin::from_bits(f8)?;
                Some(1)
            }
            OP_ALU => {
                AluOp::from_bits(((w >> 8) & 0xFF) as u8)?;
                Some(1)
            }
            OP_BRANCH => {
                Cond::from_bits(f8)?;
                Some(1)
            }
            _ => None,
        }
    }
}

impl std::fmt::Display for Instr {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Instr::Call { addr, arity } => write!(f, "call {addr}/{arity}"),
            Instr::Execute { addr, arity } => write!(f, "execute {addr}/{arity}"),
            Instr::Proceed => write!(f, "proceed"),
            Instr::Allocate { n } => write!(f, "allocate {n}"),
            Instr::Deallocate => write!(f, "deallocate"),
            Instr::TryMeElse { alt } => write!(f, "try_me_else {alt}"),
            Instr::RetryMeElse { alt } => write!(f, "retry_me_else {alt}"),
            Instr::TrustMe => write!(f, "trust_me"),
            Instr::Try { clause } => write!(f, "try {clause}"),
            Instr::Retry { clause } => write!(f, "retry {clause}"),
            Instr::Trust { clause } => write!(f, "trust {clause}"),
            Instr::Neck => write!(f, "neck"),
            Instr::Cut => write!(f, "cut"),
            Instr::CutEnv => write!(f, "cut_env"),
            Instr::Fail => write!(f, "fail"),
            Instr::Jump { to } => write!(f, "jump {to}"),
            Instr::SwitchOnTerm {
                arg,
                on_var,
                on_const,
                on_list,
                on_struct,
            } => {
                let s = |a: &Option<CodeAddr>| a.map_or("fail".to_owned(), |a| a.to_string());
                write!(
                    f,
                    "switch_on_term {arg} v:{} c:{} l:{} s:{}",
                    s(on_var),
                    s(on_const),
                    s(on_list),
                    s(on_struct)
                )
            }
            Instr::SwitchOnConstant { arg, table, .. } => {
                write!(f, "switch_on_constant {arg} [{} entries]", table.len())
            }
            Instr::SwitchOnStructure { arg, table, .. } => {
                write!(f, "switch_on_structure {arg} [{} entries]", table.len())
            }
            Instr::Escape { builtin } => write!(f, "escape {builtin:?}"),
            Instr::Halt { success } => write!(f, "halt {success}"),
            Instr::Mark => write!(f, "mark"),
            Instr::GetVariable { x, a } => write!(f, "get_variable {x}, {a}"),
            Instr::GetVariableY { y, a } => write!(f, "get_variable y{y}, {a}"),
            Instr::GetValue { x, a } => write!(f, "get_value {x}, {a}"),
            Instr::GetValueY { y, a } => write!(f, "get_value y{y}, {a}"),
            Instr::GetConstant { c, a } => write!(f, "get_constant {c}, {a}"),
            Instr::GetNil { a } => write!(f, "get_nil {a}"),
            Instr::GetList { a } => write!(f, "get_list {a}"),
            Instr::GetStructure { f: fun, a } => write!(f, "get_structure fn#{}, {a}", fun.index()),
            Instr::PutVariable { x, a } => write!(f, "put_variable {x}, {a}"),
            Instr::PutVariableY { y, a } => write!(f, "put_variable y{y}, {a}"),
            Instr::PutValue { x, a } => write!(f, "put_value {x}, {a}"),
            Instr::PutValueY { y, a } => write!(f, "put_value y{y}, {a}"),
            Instr::PutUnsafeValue { y, a } => write!(f, "put_unsafe_value y{y}, {a}"),
            Instr::PutConstant { c, a } => write!(f, "put_constant {c}, {a}"),
            Instr::PutNil { a } => write!(f, "put_nil {a}"),
            Instr::PutList { a } => write!(f, "put_list {a}"),
            Instr::PutStructure { f: fun, a } => write!(f, "put_structure fn#{}, {a}", fun.index()),
            Instr::UnifyVariable { x } => write!(f, "unify_variable {x}"),
            Instr::UnifyVariableY { y } => write!(f, "unify_variable y{y}"),
            Instr::UnifyValue { x } => write!(f, "unify_value {x}"),
            Instr::UnifyValueY { y } => write!(f, "unify_value y{y}"),
            Instr::UnifyLocalValue { x } => write!(f, "unify_local_value {x}"),
            Instr::UnifyLocalValueY { y } => write!(f, "unify_local_value y{y}"),
            Instr::UnifyConstant { c } => write!(f, "unify_constant {c}"),
            Instr::UnifyNil => write!(f, "unify_nil"),
            Instr::UnifyVoid { n } => write!(f, "unify_void {n}"),
            Instr::UnifyTailList => write!(f, "unify_tail_list"),
            Instr::Move2 { s1, d1, s2, d2 } => write!(f, "move2 {s1}->{d1}, {s2}->{d2}"),
            Instr::LoadConst { d, c } => write!(f, "load_const {d}, {c}"),
            Instr::Alu { op, d, s1, s2 } => write!(f, "alu.{op:?} {d}, {s1}, {s2}"),
            Instr::CmpRegs { s1, s2 } => write!(f, "cmp {s1}, {s2}"),
            Instr::Branch { cond, to } => write!(f, "b.{cond:?} {to}"),
            Instr::Deref { d, s } => write!(f, "deref {d}, {s}"),
            Instr::TvmSwap { d, s } => write!(f, "tvm_swap {d}, {s}"),
            Instr::TvmGc { d, s, bits } => write!(f, "tvm_gc {d}, {s}, {bits:#b}"),
            Instr::Load {
                dd,
                ras,
                rad,
                off,
                pre,
            } => {
                write!(
                    f,
                    "load {dd}, [{ras}{}{off}] -> {rad}",
                    if *pre { "+" } else { ";" }
                )
            }
            Instr::Store {
                ds,
                ras,
                rad,
                off,
                pre,
            } => {
                write!(
                    f,
                    "store {ds}, [{ras}{}{off}] -> {rad}",
                    if *pre { "+" } else { ";" }
                )
            }
            Instr::LoadDirect { d, addr } => write!(f, "load {d}, [{addr}]"),
            Instr::StoreDirect { s, addr } => write!(f, "store {s}, [{addr}]"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(i: Instr) {
        let mut words = Vec::new();
        i.encode(&mut words);
        assert_eq!(words.len(), i.size_words(), "size mismatch for {i}");
        let (decoded, consumed) = Instr::decode(&words).unwrap_or_else(|| panic!("decode {i}"));
        assert_eq!(consumed, words.len(), "consumed mismatch for {i}");
        assert_eq!(decoded, i);
        assert_eq!(Instr::scan(&words), Some(consumed), "scan mismatch for {i}");
    }

    #[test]
    fn scan_matches_decode() {
        // scan must accept exactly what decode accepts and agree on the
        // word count — for every opcode byte and a spread of field bits,
        // including the invalid ones. A drift here would let the snapshot
        // loader's validation pass accept a stream whose lazy decode
        // later panics (or vice versa).
        let fills = [
            0u64,
            0x00FF_FFFF_FFFF_FFFF,
            0x0055_AA55_AA55_AA55,
            0x0000_0000_0000_0001,
            0x0012_3456_789A_BCDE,
        ];
        for opcode in 0..=255u64 {
            for fill in fills {
                // One word plus empty padding: multi-word instructions
                // must agree on rejecting the truncation too.
                for extra in [0usize, 1, 3] {
                    let mut words = vec![(opcode << 56) | fill];
                    words.extend(std::iter::repeat_n(0u64, extra));
                    let scanned = Instr::scan(&words);
                    let decoded = Instr::decode(&words).map(|(_, n)| n);
                    assert_eq!(
                        scanned, decoded,
                        "opcode {opcode:#x} fill {fill:#x} extra {extra}"
                    );
                }
            }
        }
    }

    #[test]
    fn roundtrip_control() {
        roundtrip(Instr::Call {
            addr: CodeAddr::new(0x123456),
            arity: 3,
        });
        roundtrip(Instr::Execute {
            addr: CodeAddr::new(0xFFFFFF),
            arity: 0,
        });
        roundtrip(Instr::Proceed);
        roundtrip(Instr::Allocate { n: 12 });
        roundtrip(Instr::Deallocate);
        roundtrip(Instr::TryMeElse {
            alt: CodeAddr::new(7),
        });
        roundtrip(Instr::RetryMeElse {
            alt: CodeAddr::new(9),
        });
        roundtrip(Instr::TrustMe);
        roundtrip(Instr::Try {
            clause: CodeAddr::new(100),
        });
        roundtrip(Instr::Retry {
            clause: CodeAddr::new(200),
        });
        roundtrip(Instr::Trust {
            clause: CodeAddr::new(300),
        });
        roundtrip(Instr::Neck);
        roundtrip(Instr::Cut);
        roundtrip(Instr::CutEnv);
        roundtrip(Instr::Fail);
        roundtrip(Instr::Jump {
            to: CodeAddr::new(0xABCDE),
        });
        roundtrip(Instr::Escape {
            builtin: Builtin::Write,
        });
        roundtrip(Instr::Escape {
            builtin: Builtin::IsList,
        });
        roundtrip(Instr::Halt { success: true });
        roundtrip(Instr::Halt { success: false });
        roundtrip(Instr::Mark);
    }

    #[test]
    fn roundtrip_switches() {
        roundtrip(Instr::SwitchOnTerm {
            arg: Reg::new(0),
            on_var: Some(CodeAddr::new(1)),
            on_const: None,
            on_list: Some(CodeAddr::new(0x0FFF_FFF0)),
            on_struct: Some(CodeAddr::new(4)),
        });
        roundtrip(Instr::SwitchOnTerm {
            arg: Reg::new(1),
            on_var: None,
            on_const: Some(CodeAddr::new(2)),
            on_list: None,
            on_struct: None,
        });
        roundtrip(Instr::SwitchOnConstant {
            arg: Reg::new(0),
            default: None,
            table: vec![
                (Word::int(5), CodeAddr::new(10)),
                (Word::nil(), CodeAddr::new(20)),
                (Word::atom(crate::AtomId::new(3)), CodeAddr::new(30)),
            ],
        });
        roundtrip(Instr::SwitchOnConstant {
            arg: Reg::new(15),
            default: Some(CodeAddr::new(3)),
            table: vec![(Word::float(-0.0), CodeAddr::new(40))],
        });
        roundtrip(Instr::SwitchOnStructure {
            arg: Reg::new(2),
            default: Some(CodeAddr::new(99)),
            table: vec![
                (FunctorId::new(0), CodeAddr::new(1)),
                (FunctorId::new(77), CodeAddr::new(2)),
            ],
        });
    }

    #[test]
    fn wide_switch_roundtrips_past_u16() {
        // Regression: the count field used to be 16 bits wide and the
        // encoder panicked above 65 535 entries; million-fact predicates
        // need more. 70 000 keys must encode and decode losslessly.
        let n = 70_000u32;
        let table: Vec<(Word, CodeAddr)> = (0..n)
            .map(|i| (Word::int(i as i32), CodeAddr::new(i + 1)))
            .collect();
        let i = Instr::SwitchOnConstant {
            arg: Reg::new(0),
            default: None,
            table,
        };
        roundtrip(i);
    }

    #[test]
    #[should_panic(expected = "switch argument register above A16")]
    fn switch_arg_above_a16_rejected() {
        let mut words = Vec::new();
        Instr::SwitchOnConstant {
            arg: Reg::new(16),
            default: None,
            table: vec![(Word::int(1), CodeAddr::new(2))],
        }
        .encode(&mut words);
    }

    #[test]
    fn roundtrip_get_put_unify() {
        let r = |i| Reg::new(i);
        roundtrip(Instr::GetVariable { x: r(5), a: r(1) });
        roundtrip(Instr::GetVariableY { y: 7, a: r(2) });
        roundtrip(Instr::GetValue { x: r(63), a: r(0) });
        roundtrip(Instr::GetValueY { y: 255, a: r(3) });
        roundtrip(Instr::GetConstant {
            c: Word::int(-42),
            a: r(1),
        });
        roundtrip(Instr::GetNil { a: r(4) });
        roundtrip(Instr::GetList { a: r(0) });
        roundtrip(Instr::GetStructure {
            f: FunctorId::new(12345),
            a: r(2),
        });
        roundtrip(Instr::PutVariable { x: r(6), a: r(1) });
        roundtrip(Instr::PutVariableY { y: 2, a: r(1) });
        roundtrip(Instr::PutValue { x: r(9), a: r(5) });
        roundtrip(Instr::PutValueY { y: 0, a: r(0) });
        roundtrip(Instr::PutUnsafeValue { y: 1, a: r(1) });
        roundtrip(Instr::PutConstant {
            c: Word::float(1.5),
            a: r(1),
        });
        roundtrip(Instr::PutNil { a: r(2) });
        roundtrip(Instr::PutList { a: r(3) });
        roundtrip(Instr::PutStructure {
            f: FunctorId::new(1),
            a: r(1),
        });
        roundtrip(Instr::UnifyVariable { x: r(11) });
        roundtrip(Instr::UnifyVariableY { y: 9 });
        roundtrip(Instr::UnifyValue { x: r(12) });
        roundtrip(Instr::UnifyValueY { y: 8 });
        roundtrip(Instr::UnifyLocalValue { x: r(13) });
        roundtrip(Instr::UnifyLocalValueY { y: 7 });
        roundtrip(Instr::UnifyConstant { c: Word::int(0) });
        roundtrip(Instr::UnifyNil);
        roundtrip(Instr::UnifyVoid { n: 5 });
        roundtrip(Instr::UnifyTailList);
    }

    #[test]
    fn roundtrip_general_purpose() {
        let r = |i| Reg::new(i);
        roundtrip(Instr::Move2 {
            s1: r(1),
            d1: r(2),
            s2: r(3),
            d2: r(4),
        });
        roundtrip(Instr::LoadConst {
            d: r(10),
            c: Word::int(i32::MIN),
        });
        for op in AluOp::ALL {
            roundtrip(Instr::Alu {
                op,
                d: r(1),
                s1: r(2),
                s2: r(3),
            });
        }
        roundtrip(Instr::CmpRegs { s1: r(5), s2: r(6) });
        for cond in Cond::ALL {
            roundtrip(Instr::Branch {
                cond,
                to: CodeAddr::new(0x777),
            });
        }
        roundtrip(Instr::Deref { d: r(1), s: r(2) });
        roundtrip(Instr::TvmSwap { d: r(3), s: r(4) });
        roundtrip(Instr::TvmGc {
            d: r(1),
            s: r(1),
            bits: 0b10,
        });
        roundtrip(Instr::Load {
            dd: r(1),
            ras: r(2),
            rad: r(3),
            off: -5,
            pre: true,
        });
        roundtrip(Instr::Load {
            dd: r(1),
            ras: r(2),
            rad: r(3),
            off: 32767,
            pre: false,
        });
        roundtrip(Instr::Store {
            ds: r(4),
            ras: r(5),
            rad: r(6),
            off: -32768,
            pre: false,
        });
        roundtrip(Instr::LoadDirect {
            d: r(7),
            addr: VAddr::new(0x0ABCDEF),
        });
        roundtrip(Instr::StoreDirect {
            s: r(8),
            addr: VAddr::new(0),
        });
    }

    #[test]
    fn all_builtins_roundtrip() {
        for b in Builtin::ALL {
            roundtrip(Instr::Escape { builtin: b });
        }
    }

    #[test]
    fn invalid_opcode_decodes_to_none() {
        assert!(Instr::decode(&[0xFFu64 << 56]).is_none());
        assert!(Instr::decode(&[]).is_none());
    }

    #[test]
    fn truncated_switch_decodes_to_none() {
        let mut words = Vec::new();
        Instr::SwitchOnConstant {
            arg: Reg::new(0),
            default: None,
            table: vec![(Word::int(1), CodeAddr::new(2))],
        }
        .encode(&mut words);
        assert!(Instr::decode(&words[..1]).is_none());
        assert!(Instr::decode(&words).is_some());
    }

    #[test]
    fn switch_sizes_match_paper_model() {
        // switch_on_term is 3 words; table switches 1 + 2n (§4.1 discussion
        // of multi-word switch instructions).
        let sot = Instr::SwitchOnTerm {
            arg: Reg::new(0),
            on_var: None,
            on_const: None,
            on_list: None,
            on_struct: None,
        };
        assert_eq!(sot.size_words(), 3);
        let soc = Instr::SwitchOnConstant {
            arg: Reg::new(0),
            default: None,
            table: vec![(Word::int(1), CodeAddr::new(1)); 5],
        };
        assert_eq!(soc.size_words(), 11);
        assert_eq!(Instr::Proceed.size_words(), 1);
    }

    #[test]
    fn cond_negation_is_involutive() {
        for c in Cond::ALL {
            assert_eq!(c.negated().negated(), c);
        }
    }

    #[test]
    fn builtin_arities() {
        assert_eq!(Builtin::Nl.arity(), 0);
        assert_eq!(Builtin::Write.arity(), 1);
        assert_eq!(Builtin::Is.arity(), 2);
        assert_eq!(Builtin::Functor.arity(), 3);
    }
}
