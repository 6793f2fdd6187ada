//! Architectural definitions of the Knowledge Crunching Machine (KCM).
//!
//! KCM (Benker et al., *KCM: A Knowledge Crunching Machine*, ISCA 1989) is a
//! 64-bit tagged back-end processor dedicated to Prolog. This crate contains
//! the pure data definitions shared by the whole reproduction:
//!
//! * [`Word`] — the 64-bit tagged data word (paper figure 2): a 32-bit value
//!   part plus a 32-bit tag part holding a 4-bit type field, a 4-bit zone
//!   field and two garbage-collection bits.
//! * [`Tag`] — the 16-slot type field (variable/reference, list, structure,
//!   functor, atom, nil, integer, float, data pointer, code pointer).
//! * [`Zone`] — the virtual-memory zone field (paper §3.2.2/§3.2.3): stacks,
//!   heap and static areas are mapped to zones; the zone selects one of the
//!   eight sections of the direct-mapped data cache.
//! * [`VAddr`] / [`CodeAddr`] — word addresses in the two separate virtual
//!   address spaces (data and code, paper §3.2.1).
//! * [`isa`] — the fixed-width 64-bit instruction set (paper figure 3),
//!   with its word sizes (static code-size accounting, paper Table 1, and
//!   the code cache model) and the binary encode/decode snapshots use.
//! * [`timing`] — the documented cycle model (80 ns cycle; pipeline-break,
//!   micro-step and memory-timing constants from §2.5/§3.1/§3.2).
//!
//! # Examples
//!
//! ```
//! use kcm_arch::{Word, Tag, Zone, VAddr};
//!
//! let w = Word::int(42);
//! assert_eq!(w.tag(), Tag::Int);
//! assert_eq!(w.as_int(), Some(42));
//!
//! let p = Word::ptr(Tag::List, VAddr::new(Zone::Global.base().value() + 8));
//! assert_eq!(p.zone(), Zone::Global);
//! assert!(p.tag().is_pointer());
//! ```

#![warn(missing_docs)]

pub mod addr;
pub mod image;
pub mod isa;
pub mod shape;
pub mod snapshot;
pub mod swindex;
pub mod symbol;
pub mod tag;
pub mod timing;
pub mod word;
pub mod zone;

pub use addr::{CodeAddr, PageNumber, VAddr, PAGE_SIZE_WORDS, VADDR_BITS};
pub use image::{CodeImage, CompileOptions, PatchError, PredId, PredSize};
pub use isa::{Builtin, Cond, Instr, Reg};
pub use snapshot::SnapshotError;
pub use swindex::SwitchIndex;
pub use symbol::{AtomId, FunctorId, SymbolTable};
pub use tag::Tag;
pub use timing::CostModel;
pub use word::Word;
pub use zone::{Zone, ZoneLimits};
