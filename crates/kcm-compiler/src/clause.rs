//! WAM-style clause compilation with KCM's deferred choice points.
//!
//! KCM delays choice-point creation past the head and guard (§3.1.5), so a
//! clause compiles to:
//!
//! ```text
//!   <head gets — argument registers and X temporaries only>
//!   <guard — natively inlined comparisons, cut>
//!   neck                       ; multi-clause predicates only
//!   allocate N                 ; when an environment is needed
//!   <moves of permanent head variables X→Y>
//!   <body goals>
//!   deallocate / execute …     ; last-call optimisation
//! ```
//!
//! Two KCM-specific discipline points, both consequences of the deferred
//! choice point (the machine saves A1..An only at `neck`):
//!
//! * the head may not clobber argument registers — temporaries are
//!   allocated above every arity in the clause;
//! * the head may not touch the environment (it does not exist yet) —
//!   permanent variables are head-compiled into temporaries and moved to
//!   their Y slots right after `allocate`.

use crate::arith::Expr;
use crate::asm::AsmItem;
use crate::builtins::GoalKind;
use crate::ir::{Clause, Goal, PredId};
use crate::CompileError;
use kcm_arch::isa::{AluOp, Instr, Reg};
use kcm_arch::{SymbolTable, Word};
use kcm_prolog::Term;
use std::collections::HashMap;

/// Maximum predicate arity under the A1..A16 convention.
pub const MAX_ARITY: usize = 16;

#[derive(Debug, Default, Clone, Copy)]
struct VarInfo {
    perm: Option<u8>,
    /// X register currently holding the value (temporaries; also head
    /// residency in an A register).
    loc: Option<u8>,
    seen: bool,
    /// Whether the value is known to live on the global stack (safe for
    /// `unify_value` in write mode).
    globalized: bool,
    /// Whether the first occurrence was in the head.
    head_seen: bool,
    /// Total occurrences in the clause (1 = void).
    occurrences: usize,
    /// The chunk of the first occurrence; chunk 0 is the head plus the
    /// goals up to and including the first user call.
    first_chunk: usize,
    /// Whether the variable occurs in a later chunk too (it is then
    /// permanent).
    multi_chunk: bool,
}

/// Compiles one clause to symbolic code.
///
/// `multi` says whether the owning predicate has more than one clause (and
/// therefore needs the `neck` shallow-backtracking boundary).
///
/// # Errors
///
/// Returns resource-overflow errors ([`CompileError::OutOfRegisters`],
/// [`CompileError::ArityTooLarge`], [`CompileError::TooManyPermanents`]).
pub fn compile_clause(
    pred: &PredId,
    clause: &Clause,
    multi: bool,
    symbols: &mut SymbolTable,
    statics: &mut crate::link::StaticImage,
    options: &crate::CompileOptions,
) -> Result<Vec<AsmItem>, CompileError> {
    let kinds: Vec<GoalKind> = clause
        .goals
        .iter()
        .map(|g| match g {
            Goal::Cut => GoalKind::Cut,
            Goal::Term(t) => crate::builtins::classify_with(t, options),
        })
        .collect();
    let mut c = Compiler::new(pred, clause, &kinds, multi, symbols, statics, options)?;
    c.run()?;
    Ok(c.items)
}

/// The clause compiler's state. It borrows the clause's terms and their
/// classification for the whole compile; variables are keyed by the
/// names in the terms.
struct Compiler<'a> {
    options: &'a crate::CompileOptions,
    pred: &'a PredId,
    head_args: &'a [Term],
    kinds: &'a [GoalKind<'a>],
    multi: bool,
    symbols: &'a mut SymbolTable,
    statics: &'a mut crate::link::StaticImage,
    items: Vec<AsmItem>,
    vars: HashMap<&'a str, VarInfo>,
    /// The permanent variables in Y-slot order.
    perm_order: Vec<&'a str>,
    next_temp: u8,
    temp_base: u8,
    free_temps: Vec<u8>,
    needs_env: bool,
    env_active: bool,
    first_call_done: bool,
}

impl<'a> Compiler<'a> {
    fn new(
        pred: &'a PredId,
        clause: &'a Clause,
        kinds: &'a [GoalKind<'a>],
        multi: bool,
        symbols: &'a mut SymbolTable,
        statics: &'a mut crate::link::StaticImage,
        options: &'a crate::CompileOptions,
    ) -> Result<Compiler<'a>, CompileError> {
        let head_args = clause.head_args();
        if head_args.len() > MAX_ARITY {
            return Err(CompileError::ArityTooLarge {
                pred: pred.name.clone(),
                arity: head_args.len(),
            });
        }
        for k in kinds {
            if k.call_arity() > MAX_ARITY {
                return Err(CompileError::ArityTooLarge {
                    pred: pred.name.clone(),
                    arity: k.call_arity(),
                });
            }
        }

        // Environment analysis: an environment is needed unless the body's
        // only user call (if any) is the final goal (pure last-call shape).
        let mut calls = kinds.iter().enumerate().filter(|(_, k)| k.is_user_call());
        let needs_env = match (calls.next(), calls.next()) {
            (None, _) => false,
            (Some((i, _)), None) => i + 1 != kinds.len(),
            (Some(_), Some(_)) => true,
        };

        // Occurrence and permanence analysis, in one walk over the head
        // and the goals: a variable is permanent when it occurs in more
        // than one chunk, and Y slots go in order of first occurrence.
        let mut vars: HashMap<&'a str, VarInfo> = HashMap::new();
        let mut order: Vec<&'a str> = Vec::new();
        let mut note = |name: &'a str, chunk: usize| {
            let info = vars.entry(name).or_insert_with(|| {
                order.push(name);
                VarInfo {
                    first_chunk: chunk,
                    ..VarInfo::default()
                }
            });
            info.occurrences += 1;
            info.multi_chunk |= info.first_chunk != chunk;
        };
        for a in head_args {
            each_var(a, &mut |v| note(v, 0));
        }
        let mut chunk = 0;
        for k in kinds {
            each_goal_var(k, &mut |v| note(v, chunk));
            if k.is_user_call() {
                chunk += 1;
            }
        }
        order.retain(|name| vars[name].multi_chunk);
        if order.len() > 256 {
            return Err(CompileError::TooManyPermanents {
                pred: pred.name.clone(),
            });
        }
        for (y, name) in order.iter().enumerate() {
            vars.get_mut(name).expect("noted above").perm = Some(y as u8);
        }

        let temp_base = head_args
            .len()
            .max(kinds.iter().map(GoalKind::call_arity).max().unwrap_or(0))
            as u8;

        Ok(Compiler {
            options,
            pred,
            head_args,
            kinds,
            multi,
            symbols,
            statics,
            items: Vec::new(),
            vars,
            perm_order: order,
            next_temp: temp_base,
            temp_base,
            free_temps: Vec::new(),
            needs_env,
            env_active: false,
            first_call_done: false,
        })
    }

    fn alloc_temp(&mut self) -> Result<Reg, CompileError> {
        if let Some(t) = self.free_temps.pop() {
            return Ok(Reg::new(t));
        }
        if self.next_temp as usize >= kcm_arch::isa::NUM_REGS {
            return Err(CompileError::OutOfRegisters {
                pred: self.pred.name.clone(),
            });
        }
        let r = Reg::new(self.next_temp);
        self.next_temp += 1;
        Ok(r)
    }

    /// Returns a temporary to the pool. Only called for registers that are
    /// provably dead (freshly allocated, consumed once, and never recorded
    /// as a variable's home).
    fn free_temp(&mut self, r: Reg) {
        let idx = r.index() as u8;
        if idx >= self.temp_base && !self.free_temps.contains(&idx) {
            self.free_temps.push(idx);
        }
    }

    fn emit(&mut self, i: Instr) {
        self.items.push(AsmItem::Plain(i));
    }

    /// The static-area word for a ground compound literal, when the
    /// target uses the static data area.
    fn static_literal(&mut self, t: &Term) -> Option<Word> {
        if self.options.static_ground_literals && matches!(t, Term::Struct(..)) && t.is_ground() {
            Some(self.statics.intern(t, self.symbols))
        } else {
            None
        }
    }

    fn const_word(&mut self, t: &Term) -> Option<Word> {
        match t {
            Term::Int(v) => Some(Word::int(*v)),
            Term::Float(v) => Some(Word::float(*v)),
            Term::Atom(n) if n == "[]" => Some(Word::nil()),
            Term::Atom(n) => Some(Word::atom(self.symbols.atom(n))),
            _ => None,
        }
    }

    fn run(&mut self) -> Result<(), CompileError> {
        // --- head ---
        let head_args = self.head_args;
        for (j, arg) in head_args.iter().enumerate() {
            self.compile_get(arg, Reg::new(j as u8))?;
        }

        // --- guard: inline comparisons and cut before the neck ---
        let kinds = self.kinds;
        let mut i = 0;
        while i < kinds.len() && kinds[i].is_guard_safe() {
            self.compile_inline_goal(&kinds[i], i)?;
            i += 1;
        }

        // --- neck: the shallow/deep boundary (§3.1.5) ---
        if self.multi && self.options.deferred_choice_points {
            self.emit(Instr::Neck);
        }

        // --- environment ---
        if self.needs_env {
            self.emit(Instr::Allocate {
                n: self.perm_order.len() as u8,
            });
            self.env_active = true;
            // Move head-resident permanent variables to their Y slots.
            for y in 0..self.perm_order.len() {
                let info = self
                    .vars
                    .get_mut(self.perm_order[y])
                    .expect("perm var recorded");
                if info.seen {
                    let loc = info.loc.take().expect("head var has a register");
                    self.emit(Instr::GetVariableY {
                        y: y as u8,
                        a: Reg::new(loc),
                    });
                }
            }
        }

        // --- body ---
        let mut reached_end = true;
        while i < kinds.len() {
            let k = &kinds[i];
            let last = i == kinds.len() - 1;
            match k {
                GoalKind::True
                | GoalKind::Cut
                | GoalKind::Compare(..)
                | GoalKind::Is(..)
                | GoalKind::Unify(..) => {
                    self.compile_inline_goal(k, i)?;
                }
                GoalKind::Fail => {
                    self.emit(Instr::Fail);
                    reached_end = false;
                    break;
                }
                GoalKind::Escape(b, args) => {
                    self.put_args(args, i, false)?;
                    self.emit(Instr::Escape { builtin: *b });
                }
                GoalKind::UserCall(name, args) => {
                    self.put_args(args, i, last && self.needs_env)?;
                    let pid = PredId {
                        name: (*name).to_owned(),
                        arity: args.len() as u8,
                    };
                    if last {
                        if self.needs_env {
                            self.emit(Instr::Deallocate);
                        }
                        self.items.push(AsmItem::ExecutePred(pid));
                        reached_end = false;
                    } else {
                        self.items.push(AsmItem::CallPred(pid));
                        self.first_call_done = true;
                        // Calls destroy every X register.
                        for info in self.vars.values_mut() {
                            info.loc = None;
                        }
                        self.next_temp = self.temp_base;
                        self.free_temps.clear();
                    }
                }
            }
            i += 1;
        }

        if reached_end {
            if self.needs_env {
                self.emit(Instr::Deallocate);
            }
            self.emit(Instr::Proceed);
        }
        Ok(())
    }

    fn compile_inline_goal(
        &mut self,
        k: &'a GoalKind<'a>,
        goal_idx: usize,
    ) -> Result<(), CompileError> {
        match k {
            GoalKind::True => Ok(()),
            GoalKind::Cut => {
                if self.first_call_done {
                    self.emit(Instr::CutEnv);
                } else {
                    self.emit(Instr::Cut);
                }
                Ok(())
            }
            GoalKind::Compare(cond, l, r) => {
                self.emit(Instr::Mark);
                let rl = self.eval_expr(l)?;
                self.check_left_operand_order(l, r, rl);
                let rr = self.eval_expr(r)?;
                self.emit(Instr::CmpRegs { s1: rl, s2: rr });
                self.items.push(AsmItem::BranchFail(cond.negated()));
                self.free_temp(rl);
                self.free_temp(rr);
                Ok(())
            }
            GoalKind::Is(lhs, e) => {
                self.emit(Instr::Mark);
                let t = self.eval_expr(e)?;
                // A bare-variable expression never reaches the ALU, so
                // nothing would check it holds a number — `X is Y` must
                // still fault on unbound or non-numeric `Y` exactly like
                // the escape evaluator. `max(t, t)` is a checking identity.
                if matches!(e, Expr::Var(_)) {
                    self.emit(Instr::Alu {
                        op: AluOp::Max,
                        d: t,
                        s1: t,
                        s2: t,
                    });
                }
                self.compile_get(lhs, t)
            }
            GoalKind::Unify(a, b) => {
                self.emit(Instr::Mark);
                // Compile the side that is cheaper to materialise first;
                // prefer materialising an already-seen variable.
                let t = self.put_term_to_reg(a, goal_idx)?;
                self.compile_get(b, t)
            }
            _ => unreachable!("not an inline goal"),
        }
    }

    // ------------------------------------------------------------- get side

    /// Unifies `term` against the value in register `a` (head argument
    /// compilation; also used for `=/2` and `is/2` result binding).
    fn compile_get(&mut self, term: &'a Term, a: Reg) -> Result<(), CompileError> {
        match term {
            Term::Var(v) => {
                let info = self.info(v);
                if !info.seen {
                    self.mark_seen(v, !self.first_call_done && !self.env_active);
                    if let (Some(y), true) = (info.perm, self.env_active) {
                        self.emit(Instr::GetVariableY { y, a });
                    } else {
                        // Value stays where it is; remember the register.
                        self.set_loc(v, a.index() as u8);
                    }
                } else if let Some(loc) = info.loc {
                    if loc != a.index() as u8 {
                        self.emit(Instr::GetValue {
                            x: Reg::new(loc),
                            a,
                        });
                    }
                } else if let Some(y) = info.perm {
                    self.emit(Instr::GetValueY { y, a });
                } else {
                    // A temporary without a register can only arise after a
                    // call destroyed it — which permanence analysis rules
                    // out for temporaries.
                    unreachable!("temporary {v} lost its register");
                }
                Ok(())
            }
            Term::Struct(n, args) if n == "." && args.len() == 2 => {
                if let Some(c) = self.static_literal(term) {
                    self.emit(Instr::GetConstant { c, a });
                    return Ok(());
                }
                self.emit(Instr::GetList { a });
                self.compile_get_spine(&args[0], &args[1])
            }
            Term::Struct(n, args) => {
                if let Some(c) = self.static_literal(term) {
                    self.emit(Instr::GetConstant { c, a });
                    return Ok(());
                }
                let f = self.symbols.functor(n, args.len() as u8);
                self.emit(Instr::GetStructure { f, a });
                self.compile_unify_args_get(args)
            }
            t => {
                if t.is_nil() {
                    self.emit(Instr::GetNil { a });
                } else {
                    let c = self.const_word(t).expect("constant term");
                    self.emit(Instr::GetConstant { c, a });
                }
                Ok(())
            }
        }
    }

    /// Emits the unify sequence for a list spine in get mode: items are
    /// unified cell by cell, with `unify_tail_list` chaining statically
    /// known tails (two instructions per static cell, §4.1).
    fn compile_get_spine(
        &mut self,
        mut head: &'a Term,
        mut tail: &'a Term,
    ) -> Result<(), CompileError> {
        let mut queue: Vec<(Reg, &'a Term)> = Vec::new();
        loop {
            self.emit_read_item(head, &mut queue)?;
            match tail {
                Term::Struct(n, args) if n == "." && args.len() == 2 => {
                    self.emit(Instr::UnifyTailList);
                    head = &args[0];
                    tail = &args[1];
                }
                other => {
                    self.emit_read_item(other, &mut queue)?;
                    break;
                }
            }
        }
        for (r, t) in queue {
            self.compile_get(t, r)?;
            self.free_temp(r);
        }
        Ok(())
    }

    /// Emits the read/write-mode unify instruction for one structure or
    /// list-cell argument, queueing nested compounds.
    fn emit_read_item(
        &mut self,
        sub: &'a Term,
        queue: &mut Vec<(Reg, &'a Term)>,
    ) -> Result<(), CompileError> {
        match sub {
            Term::Var(v) => {
                let info = self.info(v);
                if info.occurrences == 1 {
                    self.emit(Instr::UnifyVoid { n: 1 });
                    return Ok(());
                }
                if !info.seen {
                    self.mark_seen(v, false);
                    if let (Some(y), true) = (info.perm, self.env_active) {
                        self.emit(Instr::UnifyVariableY { y });
                        self.set_globalized(v);
                    } else {
                        let t = self.alloc_temp()?;
                        self.emit(Instr::UnifyVariable { x: t });
                        self.set_loc(v, t.index() as u8);
                        self.set_globalized(v);
                    }
                } else if let Some(loc) = info.loc {
                    if info.globalized {
                        self.emit(Instr::UnifyValue { x: Reg::new(loc) });
                    } else {
                        self.emit(Instr::UnifyLocalValue { x: Reg::new(loc) });
                    }
                } else if let Some(y) = info.perm {
                    if info.globalized {
                        self.emit(Instr::UnifyValueY { y });
                    } else {
                        self.emit(Instr::UnifyLocalValueY { y });
                    }
                } else {
                    unreachable!("temporary {v} lost its register");
                }
                Ok(())
            }
            Term::Struct(..) => {
                if let Some(c) = self.static_literal(sub) {
                    self.emit(Instr::UnifyConstant { c });
                    return Ok(());
                }
                let t = self.alloc_temp()?;
                self.emit(Instr::UnifyVariable { x: t });
                queue.push((t, sub));
                Ok(())
            }
            t => {
                if t.is_nil() {
                    self.emit(Instr::UnifyNil);
                } else {
                    let c = self.const_word(t).expect("constant term");
                    self.emit(Instr::UnifyConstant { c });
                }
                Ok(())
            }
        }
    }

    /// Emits the unify sequence for the arguments of a get-mode structure,
    /// queueing nested compounds (breadth-first, the standard WAM scheme).
    fn compile_unify_args_get(&mut self, args: &'a [Term]) -> Result<(), CompileError> {
        let mut queue: Vec<(Reg, &'a Term)> = Vec::new();
        let mut voids = 0u8;
        let flush_voids = |me: &mut Self, voids: &mut u8| {
            if *voids > 0 {
                me.emit(Instr::UnifyVoid { n: *voids });
                *voids = 0;
            }
        };
        for sub in args {
            match sub {
                Term::Var(v) => {
                    let info = self.info(v);
                    if info.occurrences == 1 {
                        voids += 1;
                        continue;
                    }
                    flush_voids(self, &mut voids);
                    if !info.seen {
                        self.mark_seen(v, false);
                        if let (Some(y), true) = (info.perm, self.env_active) {
                            self.emit(Instr::UnifyVariableY { y });
                            self.set_globalized(v);
                        } else {
                            let t = self.alloc_temp()?;
                            self.emit(Instr::UnifyVariable { x: t });
                            self.set_loc(v, t.index() as u8);
                            self.set_globalized(v);
                        }
                    } else if let Some(loc) = info.loc {
                        if info.globalized {
                            self.emit(Instr::UnifyValue { x: Reg::new(loc) });
                        } else {
                            self.emit(Instr::UnifyLocalValue { x: Reg::new(loc) });
                        }
                    } else if let Some(y) = info.perm {
                        if info.globalized {
                            self.emit(Instr::UnifyValueY { y });
                        } else {
                            self.emit(Instr::UnifyLocalValueY { y });
                        }
                    } else {
                        unreachable!("temporary {v} lost its register");
                    }
                }
                Term::Struct(..) => {
                    flush_voids(self, &mut voids);
                    if let Some(c) = self.static_literal(sub) {
                        self.emit(Instr::UnifyConstant { c });
                        continue;
                    }
                    let t = self.alloc_temp()?;
                    self.emit(Instr::UnifyVariable { x: t });
                    queue.push((t, sub));
                }
                t => {
                    flush_voids(self, &mut voids);
                    if t.is_nil() {
                        self.emit(Instr::UnifyNil);
                    } else {
                        let c = self.const_word(t).expect("constant term");
                        self.emit(Instr::UnifyConstant { c });
                    }
                }
            }
        }
        flush_voids(self, &mut voids);
        for (r, t) in queue {
            self.compile_get(t, r)?;
            self.free_temp(r);
        }
        Ok(())
    }

    // ------------------------------------------------------------- put side

    /// Materialises `term` in some register, for `=/2` left sides.
    fn put_term_to_reg(&mut self, term: &'a Term, goal_idx: usize) -> Result<Reg, CompileError> {
        match term {
            Term::Var(v) => self.put_var_to_reg(v),
            Term::Struct(..) => {
                if let Some(c) = self.static_literal(term) {
                    let r = self.alloc_temp()?;
                    self.emit(Instr::PutConstant { c, a: r });
                    return Ok(r);
                }
                let t = self.alloc_temp()?;
                self.put_compound(term, t, goal_idx)?;
                Ok(t)
            }
            t => {
                let c = self.const_word(t).expect("constant term");
                let r = self.alloc_temp()?;
                self.emit(Instr::PutConstant { c, a: r });
                Ok(r)
            }
        }
    }

    /// Materialises variable `v` in some register (`=/2` left sides and
    /// arithmetic operands).
    fn put_var_to_reg(&mut self, v: &'a str) -> Result<Reg, CompileError> {
        let info = self.info(v);
        if info.seen {
            if let Some(loc) = info.loc {
                return Ok(Reg::new(loc));
            }
            let y = info.perm.expect("seen var without loc is permanent");
            let t = self.alloc_temp()?;
            self.emit(Instr::PutValueY { y, a: t });
            self.set_loc(v, t.index() as u8);
            return Ok(t);
        }
        self.mark_seen(v, false);
        let t = self.alloc_temp()?;
        if let (Some(y), true) = (info.perm, self.env_active) {
            self.emit(Instr::PutVariableY { y, a: t });
        } else {
            self.emit(Instr::PutVariable { x: t, a: t });
            self.set_globalized(v);
        }
        self.set_loc(v, t.index() as u8);
        Ok(t)
    }

    /// Emits the argument puts for a call-like goal of arity
    /// `args.len()`, relocating conflicting argument registers first.
    /// `unsafe_ctx` is set for the final call before `deallocate`.
    fn put_args(
        &mut self,
        args: &'a [Term],
        goal_idx: usize,
        unsafe_ctx: bool,
    ) -> Result<(), CompileError> {
        let k = args.len();
        // Relocate variables resident in A1..Ak that are still needed in a
        // different role, in ascending register order (ties, after `=/2`
        // put two variables in one register, by name) so the code does
        // not depend on the table's hash order.
        let mut resident: Vec<(u8, &'a str)> = self
            .vars
            .iter()
            .filter_map(|(&name, info)| info.loc.filter(|&l| (l as usize) < k).map(|l| (l, name)))
            .collect();
        resident.sort_unstable();
        for (loc, name) in resident {
            let in_place = matches!(args.get(loc as usize), Some(Term::Var(v)) if v == name);
            let other_use_here = args
                .iter()
                .enumerate()
                .any(|(j, t)| j != loc as usize && term_uses_var(t, name));
            let nested_use_here = matches!(args.get(loc as usize), Some(t)
                if !matches!(t, Term::Var(_)) && term_uses_var(t, name));
            let used_later = self.used_in_goals_after(name, goal_idx);
            // Two distinct relocation rules (displaced vs in-place), kept
            // separate for readability.
            #[allow(clippy::nonminimal_bool)]
            let must_relocate = (!in_place
                && (other_use_here
                    || nested_use_here
                    || used_later
                    || term_uses_var_anywhere(args, name)))
                || (in_place && (other_use_here || used_later));
            if must_relocate {
                let t = self.alloc_temp()?;
                self.emit(Instr::GetVariable {
                    x: t,
                    a: Reg::new(loc),
                });
                self.set_loc(name, t.index() as u8);
            } else if !in_place {
                // Resident but unused from here on: drop the stale mapping
                // before the put overwrites the register.
                if let Some(info) = self.vars.get_mut(name) {
                    info.loc = None;
                }
            }
        }
        for (j, arg) in args.iter().enumerate() {
            self.compile_put(arg, Reg::new(j as u8), goal_idx, unsafe_ctx)?;
        }
        Ok(())
    }

    fn compile_put(
        &mut self,
        term: &'a Term,
        a: Reg,
        goal_idx: usize,
        unsafe_ctx: bool,
    ) -> Result<(), CompileError> {
        match term {
            Term::Var(v) => {
                let info = self.info(v);
                if !info.seen {
                    self.mark_seen(v, false);
                    if let (Some(y), true) = (info.perm, self.env_active) {
                        self.emit(Instr::PutVariableY { y, a });
                    } else {
                        let t = self.alloc_temp()?;
                        self.emit(Instr::PutVariable { x: t, a });
                        self.set_loc(v, t.index() as u8);
                        self.set_globalized(v);
                    }
                } else if let Some(loc) = info.loc {
                    if loc != a.index() as u8 {
                        self.emit(Instr::PutValue {
                            x: Reg::new(loc),
                            a,
                        });
                    }
                } else if let Some(y) = info.perm {
                    if unsafe_ctx && !info.globalized && !info.head_seen {
                        self.emit(Instr::PutUnsafeValue { y, a });
                        self.set_globalized(v);
                    } else {
                        self.emit(Instr::PutValueY { y, a });
                    }
                } else {
                    unreachable!("temporary {v} lost its register");
                }
                Ok(())
            }
            Term::Struct(..) => {
                if let Some(c) = self.static_literal(term) {
                    self.emit(Instr::PutConstant { c, a });
                    return Ok(());
                }
                self.put_compound(term, a, goal_idx)
            }
            t => {
                if t.is_nil() {
                    self.emit(Instr::PutNil { a });
                } else {
                    let c = self.const_word(t).expect("constant term");
                    self.emit(Instr::PutConstant { c, a });
                }
                Ok(())
            }
        }
    }

    /// Builds a compound term bottom-up in write mode into `dst`. List
    /// spines are built iteratively (innermost cell first) so that a long
    /// list literal needs a constant number of temporaries.
    fn put_compound(
        &mut self,
        term: &'a Term,
        dst: Reg,
        goal_idx: usize,
    ) -> Result<(), CompileError> {
        if let Some(c) = self.static_literal(term) {
            self.emit(Instr::PutConstant { c, a: dst });
            return Ok(());
        }
        if term.is_cons() {
            return self.put_list_spine(term, dst, goal_idx);
        }
        let Term::Struct(name, args) = term else {
            unreachable!("put_compound on non-compound")
        };
        // Children first (into temporaries).
        let mut child_locs: Vec<Option<Reg>> = vec![None; args.len()];
        for (idx, sub) in args.iter().enumerate() {
            if matches!(sub, Term::Struct(..)) {
                let t = self.alloc_temp()?;
                self.put_compound(sub, t, goal_idx)?;
                child_locs[idx] = Some(t);
            }
        }
        let f = self.symbols.functor(name, args.len() as u8);
        self.emit(Instr::PutStructure { f, a: dst });
        for (idx, sub) in args.iter().enumerate() {
            self.emit_write_arg(sub, child_locs[idx])?;
        }
        Ok(())
    }

    /// Builds a (possibly partial) list literal in write mode. The spine
    /// streams forward with `unify_tail_list` (cells laid out
    /// contiguously, two instructions per cell): compound elements are
    /// prebuilt into temporaries before the spine opens so the cell
    /// stream stays contiguous.
    fn put_list_spine(
        &mut self,
        term: &'a Term,
        dst: Reg,
        goal_idx: usize,
    ) -> Result<(), CompileError> {
        let mut items: Vec<&'a Term> = Vec::new();
        let mut tail = term;
        while let Term::Struct(n, args) = tail {
            if n != "." || args.len() != 2 {
                break;
            }
            items.push(&args[0]);
            tail = &args[1];
        }
        // Prebuild compounds (elements and a compound tail). If that
        // would exhaust the register file, fall back to the bottom-up
        // two-temporary scheme.
        let compound_count = items
            .iter()
            .chain(std::iter::once(&tail))
            .filter(|t| matches!(t, Term::Struct(..)))
            .count();
        if compound_count + 2 + (self.next_temp as usize) >= kcm_arch::isa::NUM_REGS {
            return self.put_list_spine_bottom_up(&items, tail, dst, goal_idx);
        }
        let mut prebuilt: Vec<Option<Reg>> = Vec::with_capacity(items.len());
        for item in &items {
            if matches!(item, Term::Struct(..)) {
                let t = self.alloc_temp()?;
                self.put_compound(item, t, goal_idx)?;
                prebuilt.push(Some(t));
            } else {
                prebuilt.push(None);
            }
        }
        let tail_reg = if matches!(tail, Term::Struct(..)) {
            let t = self.alloc_temp()?;
            self.put_compound(tail, t, goal_idx)?;
            Some(t)
        } else {
            None
        };
        self.emit(Instr::PutList { a: dst });
        let last = items.len() - 1;
        for (idx, item) in items.iter().enumerate() {
            self.emit_write_arg(item, prebuilt[idx])?;
            if idx < last {
                self.emit(Instr::UnifyTailList);
            }
        }
        self.emit_write_arg(tail, tail_reg)?;
        Ok(())
    }

    /// Fallback spine builder: innermost cell first, threading the
    /// previous cell through one register (constant register pressure,
    /// three instructions per cell).
    fn put_list_spine_bottom_up(
        &mut self,
        items: &[&'a Term],
        tail: &'a Term,
        dst: Reg,
        goal_idx: usize,
    ) -> Result<(), CompileError> {
        let mut prev: Option<Reg> = None;
        for (idx, item) in items.iter().enumerate().rev() {
            let target = if idx == 0 { dst } else { self.alloc_temp()? };
            // Prebuild a compound element before opening the cell.
            let prebuilt = if matches!(item, Term::Struct(..)) {
                let t = self.alloc_temp()?;
                self.put_compound(item, t, goal_idx)?;
                Some(t)
            } else {
                None
            };
            self.emit(Instr::PutList { a: target });
            self.emit_write_arg(item, prebuilt)?;
            match prev {
                None => self.emit_write_arg(tail, None)?,
                Some(r) => {
                    self.emit(Instr::UnifyValue { x: r });
                    self.free_temp(r);
                }
            }
            prev = Some(target);
        }
        Ok(())
    }

    /// Emits the write-mode unify instruction for one argument of a cell
    /// or structure being built. `prebuilt` carries the register of an
    /// already-constructed compound argument (freed here).
    fn emit_write_arg(&mut self, sub: &'a Term, prebuilt: Option<Reg>) -> Result<(), CompileError> {
        match sub {
            Term::Struct(..) => {
                if prebuilt.is_none() {
                    if let Some(c) = self.static_literal(sub) {
                        self.emit(Instr::UnifyConstant { c });
                        return Ok(());
                    }
                }
                let r = match prebuilt {
                    Some(r) => r,
                    None => {
                        let t = self.alloc_temp()?;
                        self.put_compound(sub, t, usize::MAX)?;
                        t
                    }
                };
                self.emit(Instr::UnifyValue { x: r });
                self.free_temp(r);
            }
            Term::Var(v) => {
                let info = self.info(v);
                if !info.seen {
                    self.mark_seen(v, false);
                    if let (Some(y), true) = (info.perm, self.env_active) {
                        self.emit(Instr::UnifyVariableY { y });
                        self.set_globalized(v);
                    } else {
                        let t = self.alloc_temp()?;
                        self.emit(Instr::UnifyVariable { x: t });
                        self.set_loc(v, t.index() as u8);
                        self.set_globalized(v);
                    }
                } else if let Some(loc) = info.loc {
                    if info.globalized {
                        self.emit(Instr::UnifyValue { x: Reg::new(loc) });
                    } else {
                        self.emit(Instr::UnifyLocalValue { x: Reg::new(loc) });
                    }
                } else if let Some(y) = info.perm {
                    if info.globalized {
                        self.emit(Instr::UnifyValueY { y });
                    } else {
                        self.emit(Instr::UnifyLocalValueY { y });
                    }
                } else {
                    unreachable!("temporary {v} lost its register");
                }
            }
            t => {
                if t.is_nil() {
                    self.emit(Instr::UnifyNil);
                } else {
                    let c = self.const_word(t).expect("constant term");
                    self.emit(Instr::UnifyConstant { c });
                }
            }
        }
        Ok(())
    }

    // ------------------------------------------------------------- arith

    /// The escape evaluator faults strictly left-to-right, but a bare
    /// variable on the left loads with no numeric check while a compound
    /// right operand emits ALU instructions of its own — those would
    /// fault first, inverting the observable error. When both conditions
    /// hold, check the left operand now with the `max(t, t)` identity.
    fn check_left_operand_order(&mut self, l: &Expr, r: &Expr, rl: Reg) {
        let left_unchecked = matches!(l, Expr::Var(_));
        let right_can_fault = matches!(r, Expr::Bin(..) | Expr::Neg(..));
        if left_unchecked && right_can_fault {
            self.emit(Instr::Alu {
                op: AluOp::Max,
                d: rl,
                s1: rl,
                s2: rl,
            });
        }
    }

    fn eval_expr(&mut self, e: &Expr<'a>) -> Result<Reg, CompileError> {
        match e {
            Expr::Int(v) => {
                let t = self.alloc_temp()?;
                self.emit(Instr::LoadConst {
                    d: t,
                    c: Word::int(*v),
                });
                Ok(t)
            }
            Expr::Float(v) => {
                let t = self.alloc_temp()?;
                self.emit(Instr::LoadConst {
                    d: t,
                    c: Word::float(*v),
                });
                Ok(t)
            }
            Expr::Var(v) => {
                let src = self.put_var_to_reg(v)?;
                let t = self.alloc_temp()?;
                self.emit(Instr::Deref { d: t, s: src });
                Ok(t)
            }
            Expr::Bin(op, a, b) => {
                let ra = self.eval_expr(a)?;
                self.check_left_operand_order(a, b, ra);
                let rb = self.eval_expr(b)?;
                let t = self.alloc_temp()?;
                self.emit(Instr::Alu {
                    op: *op,
                    d: t,
                    s1: ra,
                    s2: rb,
                });
                self.free_temp(ra);
                self.free_temp(rb);
                Ok(t)
            }
            Expr::Neg(a) => {
                let ra = self.eval_expr(a)?;
                let t = self.alloc_temp()?;
                self.emit(Instr::Alu {
                    op: AluOp::Neg,
                    d: t,
                    s1: ra,
                    s2: ra,
                });
                self.free_temp(ra);
                Ok(t)
            }
        }
    }

    // ------------------------------------------------------------- helpers

    /// What is known about variable `v` so far.
    fn info(&self, v: &str) -> VarInfo {
        self.vars.get(v).copied().unwrap_or_default()
    }

    fn mark_seen(&mut self, v: &'a str, head: bool) {
        let info = self.vars.entry(v).or_default();
        info.seen = true;
        if head {
            info.head_seen = true;
        }
    }

    fn set_loc(&mut self, v: &'a str, loc: u8) {
        self.vars.entry(v).or_default().loc = Some(loc);
    }

    fn set_globalized(&mut self, v: &'a str) {
        self.vars.entry(v).or_default().globalized = true;
    }

    fn used_in_goals_after(&self, v: &str, goal_idx: usize) -> bool {
        self.kinds.iter().skip(goal_idx + 1).any(|k| {
            let mut used = false;
            each_goal_var(k, &mut |x| used |= x == v);
            used
        })
    }
}

fn term_uses_var(t: &Term, v: &str) -> bool {
    match t {
        Term::Var(x) => x == v,
        Term::Struct(_, args) => args.iter().any(|a| term_uses_var(a, v)),
        _ => false,
    }
}

fn term_uses_var_anywhere(args: &[Term], v: &str) -> bool {
    args.iter().any(|t| term_uses_var(t, v))
}

/// Visits every variable occurrence in `t`, left to right.
fn each_var<'t>(t: &'t Term, visit: &mut impl FnMut(&'t str)) {
    match t {
        Term::Var(v) => visit(v),
        Term::Struct(_, args) => {
            for a in args {
                each_var(a, visit);
            }
        }
        _ => {}
    }
}

/// Visits every variable occurrence in a classified goal, left to right.
fn each_goal_var<'t>(k: &GoalKind<'t>, visit: &mut impl FnMut(&'t str)) {
    match k {
        GoalKind::UserCall(_, args) | GoalKind::Escape(_, args) => {
            for a in *args {
                each_var(a, visit);
            }
        }
        GoalKind::Unify(a, b) => {
            each_var(a, visit);
            each_var(b, visit);
        }
        GoalKind::Is(lhs, e) => {
            each_var(lhs, visit);
            e.each_var(visit);
        }
        GoalKind::Compare(_, l, r) => {
            l.each_var(visit);
            r.each_var(visit);
        }
        GoalKind::True | GoalKind::Fail | GoalKind::Cut => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kcm_prolog::read_program;

    fn compile_first(src: &str, multi: bool) -> Vec<AsmItem> {
        let clauses = read_program(src).unwrap();
        let prog = crate::ir::Program::from_clauses(&clauses).unwrap();
        let pred = &prog.predicates[0];
        let mut symbols = SymbolTable::new();
        let mut statics = crate::link::StaticImage::new(crate::link::STATIC_DATA_BASE);
        compile_clause(
            &pred.id,
            &pred.clauses[0],
            multi,
            &mut symbols,
            &mut statics,
            &Default::default(),
        )
        .unwrap()
    }

    fn instrs(items: &[AsmItem]) -> Vec<String> {
        items
            .iter()
            .map(|i| match i {
                AsmItem::Plain(x) => x.to_string(),
                other => format!("{other:?}"),
            })
            .collect()
    }

    #[test]
    fn fact_compiles_to_gets_and_proceed() {
        let items = compile_first("p(a, X, X).", false);
        let text = instrs(&items).join("; ");
        assert!(text.contains("get_constant"), "{text}");
        assert!(text.ends_with("proceed"), "{text}");
        // X-X: one get stays implicit, the second is a get_value.
        assert!(text.contains("get_value"), "{text}");
    }

    #[test]
    fn multi_clause_gets_a_neck() {
        let items = compile_first("p(a).", true);
        assert!(instrs(&items).contains(&"neck".to_owned()));
        let items = compile_first("p(a).", false);
        assert!(!instrs(&items).contains(&"neck".to_owned()));
    }

    #[test]
    fn last_call_optimisation_without_env() {
        let items = compile_first("p(X) :- q(X).", false);
        let text = instrs(&items).join("; ");
        assert!(text.contains("ExecutePred"), "{text}");
        assert!(!text.contains("allocate"), "{text}");
        assert!(!text.contains("Deallocate"), "{text}");
    }

    #[test]
    fn two_calls_need_an_environment() {
        let items = compile_first("p(X) :- q(X), r(X).", false);
        let text = instrs(&items).join("; ");
        assert!(text.contains("allocate 1"), "{text}");
        assert!(text.contains("CallPred"), "{text}");
        assert!(text.contains("deallocate"), "{text}");
        assert!(text.contains("ExecutePred"), "{text}");
        // X is permanent: moved to Y after allocate, read back for r.
        assert!(text.contains("get_variable y0"), "{text}");
    }

    #[test]
    fn nrev_clause_shape() {
        let items = compile_first("nrev([H|T], R) :- nrev(T, RT), append(RT, [H], R).", true);
        let text = instrs(&items).join("; ");
        assert!(text.contains("get_list r0"), "{text}");
        assert!(text.contains("neck"), "{text}");
        assert!(text.contains("allocate"), "{text}");
        // [H] built in write mode for the second call.
        assert!(text.contains("put_list"), "{text}");
    }

    #[test]
    fn append_recursive_clause_is_env_free() {
        let items = compile_first("append([H|T], L, [H|R]) :- append(T, L, R).", true);
        let text = instrs(&items).join("; ");
        assert!(!text.contains("allocate"), "{text}");
        assert!(text.contains("ExecutePred"), "{text}");
        // H unifies across A1 and A3 lists.
        assert!(text.contains("unify_variable"), "{text}");
        assert!(
            text.contains("unify_value") || text.contains("unify_local_value"),
            "{text}"
        );
    }

    #[test]
    fn inline_arithmetic_emits_alu() {
        let items = compile_first("p(X, Y) :- Y is X + 1.", false);
        let text = instrs(&items).join("; ");
        assert!(text.contains("alu.Add"), "{text}");
        assert!(text.contains("deref"), "{text}");
        assert!(!text.contains("escape"), "{text}");
    }

    #[test]
    fn guard_comparison_sits_before_neck() {
        let items = compile_first("max(X, Y, Y) :- X < Y.", true);
        let text = instrs(&items);
        let neck = text.iter().position(|s| s == "neck").unwrap();
        let cmp = text.iter().position(|s| s.starts_with("cmp")).unwrap();
        assert!(cmp < neck, "{text:?}");
    }

    #[test]
    fn non_guard_goal_sits_after_neck() {
        let items = compile_first("p(X, Y) :- Y is X + 1, q(Y).", true);
        let text = instrs(&items);
        let neck = text.iter().position(|s| s == "neck").unwrap();
        let alu = text.iter().position(|s| s.starts_with("alu")).unwrap();
        assert!(neck < alu, "{text:?}");
    }

    #[test]
    fn cut_before_call_uses_register_form() {
        let items = compile_first("p(X) :- !, q(X).", true);
        let text = instrs(&items);
        assert!(text.contains(&"cut".to_owned()), "{text:?}");
        assert!(!text.contains(&"cut_env".to_owned()), "{text:?}");
    }

    #[test]
    fn cut_after_call_uses_env_form() {
        let items = compile_first("p(X) :- q(X), !, r(X).", true);
        let text = instrs(&items);
        assert!(text.contains(&"cut_env".to_owned()), "{text:?}");
    }

    #[test]
    fn void_head_variables_cost_nothing() {
        let items = compile_first("p(_, _, X) :- q(X).", false);
        let text = instrs(&items).join("; ");
        // No get for the two voids: only the execute and nothing for A1/A2.
        assert!(!text.contains("get_variable r"), "{text}");
    }

    #[test]
    fn void_in_structure_uses_unify_void() {
        let items = compile_first("p(f(_, _, X)) :- q(X).", false);
        let text = instrs(&items).join("; ");
        assert!(text.contains("unify_void 2"), "{text}");
    }

    #[test]
    fn unsafe_value_for_body_only_permanent() {
        // Y first occurs in the body and is passed to the *last* call:
        // must be globalised by put_unsafe_value.
        let items = compile_first("p(X) :- q(X, Y), r(Y).", false);
        let text = instrs(&items).join("; ");
        assert!(text.contains("put_unsafe_value"), "{text}");
    }

    #[test]
    fn head_permanent_is_safe() {
        let items = compile_first("p(X) :- q(X), r(X).", false);
        let text = instrs(&items).join("; ");
        assert!(!text.contains("put_unsafe_value"), "{text}");
    }

    #[test]
    fn argument_register_conflict_is_relocated() {
        // In q(Y, X) the head values X(=A1), Y(=A2) must swap: naive puts
        // would overwrite one before reading it.
        let items = compile_first("p(X, Y) :- q(Y, X).", false);
        let text = instrs(&items).join("; ");
        assert!(text.contains("get_variable"), "{text}");
    }

    #[test]
    fn deep_structure_put_is_bottom_up() {
        let items = compile_first("p(X) :- q(f(g(X))).", false);
        let text = instrs(&items);
        let g = text
            .iter()
            .position(|s| s.contains("put_structure") && s.contains("fn#0"))
            .unwrap();
        let f = text
            .iter()
            .position(|s| s.contains("put_structure") && s.contains("fn#1"))
            .unwrap();
        assert!(g < f, "inner g built before outer f: {text:?}");
    }

    #[test]
    fn ground_literals_go_to_static_data() {
        // A fully ground list compiles to one get_constant against a
        // static-area pointer.
        let items = compile_first("p([1, a]).", false);
        let text = instrs(&items).join("; ");
        assert!(text.contains("get_constant lst@"), "{text}");
        assert!(!text.contains("get_list"), "{text}");
    }

    #[test]
    fn constants_inline_in_structures() {
        // A non-ground list keeps the in-code unify sequence.
        let items = compile_first("p([1, a | T]) :- q(T).", false);
        let text = instrs(&items).join("; ");
        assert!(text.contains("get_list"), "{text}");
        assert!(text.contains("unify_constant 1"), "{text}");
        assert!(text.contains("unify_tail_list"), "{text}");
    }

    #[test]
    fn arity_limit_enforced() {
        let args: Vec<String> = (0..17).map(|i| format!("X{i}")).collect();
        let src = format!("p({}).", args.join(", "));
        let clauses = read_program(&src).unwrap();
        let prog = crate::ir::Program::from_clauses(&clauses).unwrap();
        let mut symbols = SymbolTable::new();
        let mut statics = crate::link::StaticImage::new(crate::link::STATIC_DATA_BASE);
        let r = compile_clause(
            &prog.predicates[0].id,
            &prog.predicates[0].clauses[0],
            false,
            &mut symbols,
            &mut statics,
            &Default::default(),
        );
        assert!(matches!(r, Err(CompileError::ArityTooLarge { .. })));
    }
}
