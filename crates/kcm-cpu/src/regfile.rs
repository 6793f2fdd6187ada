//! The 64 × 64-bit register file and the Register Address Calculator
//! (paper §3.1.1, §3.1.5).
//!
//! "Source and destination for all data manipulation instructions are
//! registers in the 64 x 64 bit register file. The instructions have a
//! four address format; two source and two destination registers." The
//! RAC "can increment and decrement register addresses and therefore a
//! microcode loop can store/load one register per cycle" — the block
//! choice-point save/restore path.

use kcm_arch::isa::{Reg, NUM_REGS};
use kcm_arch::Word;

/// The register file.
///
/// # Examples
///
/// ```
/// use kcm_cpu::RegisterFile;
/// use kcm_arch::{isa::Reg, Word};
///
/// let mut rf = RegisterFile::new();
/// rf.set(Reg::new(3), Word::int(7));
/// assert_eq!(rf.get(Reg::new(3)).as_int(), Some(7));
/// ```
#[derive(Debug, Clone)]
pub struct RegisterFile {
    regs: [Word; NUM_REGS],
}

impl Default for RegisterFile {
    fn default() -> RegisterFile {
        RegisterFile::new()
    }
}

impl RegisterFile {
    /// A file of all-zero words.
    pub fn new() -> RegisterFile {
        RegisterFile {
            regs: [Word::ZERO; NUM_REGS],
        }
    }

    /// Reads a register.
    #[inline]
    pub fn get(&self, r: Reg) -> Word {
        self.regs[r.index()]
    }

    /// Writes a register.
    #[inline]
    pub fn set(&mut self, r: Reg, w: Word) {
        self.regs[r.index()] = w;
    }

    /// Reads argument register `i` (0-based: A1 is `arg(0)`).
    ///
    /// # Panics
    ///
    /// Panics if `i >= 64`.
    #[inline]
    pub fn arg(&self, i: usize) -> Word {
        self.regs[i]
    }

    /// Writes argument register `i` (0-based).
    ///
    /// # Panics
    ///
    /// Panics if `i >= 64`.
    #[inline]
    pub fn set_arg(&mut self, i: usize, w: Word) {
        self.regs[i] = w;
    }

    /// The four-address double move of figure 5: two register-to-register
    /// transfers in one cycle.
    pub fn move2(&mut self, s1: Reg, d1: Reg, s2: Reg, d2: Reg) {
        let v1 = self.get(s1);
        let v2 = self.get(s2);
        self.set(d1, v1);
        self.set(d2, v2);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn args_alias_low_registers() {
        let mut rf = RegisterFile::new();
        rf.set(Reg::new(0), Word::int(1));
        assert_eq!(rf.arg(0).as_int(), Some(1));
        rf.set_arg(5, Word::int(6));
        assert_eq!(rf.get(Reg::new(5)).as_int(), Some(6));
    }

    #[test]
    fn move2_swaps_with_one_instruction() {
        let mut rf = RegisterFile::new();
        rf.set(Reg::new(1), Word::int(10));
        rf.set(Reg::new(2), Word::int(20));
        // Both sources are read before either destination is written.
        rf.move2(Reg::new(1), Reg::new(2), Reg::new(2), Reg::new(1));
        assert_eq!(rf.get(Reg::new(1)).as_int(), Some(20));
        assert_eq!(rf.get(Reg::new(2)).as_int(), Some(10));
    }

    #[test]
    fn fresh_file_is_zeroed() {
        let rf = RegisterFile::new();
        assert_eq!(rf.get(Reg::new(63)), Word::ZERO);
    }
}
