//! Compiled query shapes: a bounded table, kept on each flat program
//! image, of query overlays compiled once and replayed for every later
//! query of the same shape.
//!
//! A query's *shape* is the query with every atom in a data argument
//! replaced by a numbered hole (the compiler builds the key). Queries of
//! one shape compile to the same code apart from the constant operands
//! those atoms land in, so a [`QueryTemplate`] keeps that code once,
//! with the operand sites of each hole, and instantiating it for a query
//! copies the overlay onto the image and writes the query's atoms into
//! its sites. The compiler stays the only producer of code: a template
//! holds exactly what one compile produced.
//!
//! A template holds no `Arc` of an image or of a symbol table, so the
//! table never keeps a program version alive and an image or symbol
//! base that nobody else holds is still edited in place.

use crate::image::CodeImage;
use crate::isa::Instr;
use crate::symbol::{AtomId, SymbolTable};
use crate::word::Word;
use std::collections::HashMap;
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

/// Most shapes one image's table holds: inserting past it starts the
/// table over.
pub const MAX_SHAPES: usize = 256;
/// Most template bytes ([`QueryTemplate::bytes`], keys included) one
/// image's table holds: inserting past it starts the table over.
pub const MAX_SHAPE_BYTES: usize = 1 << 20;
/// A template (or a key) larger than this is not kept.
pub const MAX_TEMPLATE_BYTES: usize = MAX_SHAPE_BYTES / 16;

/// The code one query compiled to, detached from the image it was
/// compiled on, with the operand sites its holes' atoms fill.
#[derive(Debug)]
pub struct QueryTemplate {
    /// The overlay with its base link dropped: its own code, entries,
    /// sizes, warnings and static data.
    overlay: CodeImage,
    /// `(own instruction, hole)`: a `get_constant`, `put_constant` or
    /// `unify_constant` whose constant is the hole's atom.
    sites: Vec<(u32, u32)>,
    vars: Vec<String>,
    /// The symbol-table size the template was compiled against.
    symbols: (usize, usize),
}

/// The constant operand of a `get_constant`, `put_constant` or
/// `unify_constant`: the only operands a hole's atom may sit in.
fn constant_mut(instr: &mut Instr) -> Option<&mut Word> {
    match instr {
        Instr::GetConstant { c, .. }
        | Instr::PutConstant { c, .. }
        | Instr::UnifyConstant { c } => Some(c),
        _ => None,
    }
}

impl QueryTemplate {
    /// Detaches `overlay`, a query compiled with placeholder atoms whose
    /// ids are `placeholders` (hole `h` is id `placeholders.start + h`)
    /// in its holes, against a symbol table of `symbols` atoms and
    /// functors before the placeholders. `None` unless every placeholder
    /// word sits in a constant operand: not in static data, a
    /// `load_const` or a switch table, where a hole could not be filled
    /// in by writing one operand.
    ///
    /// # Panics
    ///
    /// If `overlay` is not a query overlay.
    pub fn new(
        mut overlay: CodeImage,
        placeholders: Range<usize>,
        vars: Vec<String>,
        symbols: (usize, usize),
    ) -> Option<QueryTemplate> {
        assert!(overlay.base.take().is_some(), "a template is an overlay");
        let hole = |w: &Word| {
            w.as_atom()
                .map(AtomId::index)
                .filter(|a| placeholders.contains(a))
                .map(|a| (a - placeholders.start) as u32)
        };
        let mut sites = Vec::new();
        for (i, instr) in overlay.chunks.iter().flat_map(|c| c.instrs()).enumerate() {
            let stray = match instr {
                Instr::GetConstant { c, .. }
                | Instr::PutConstant { c, .. }
                | Instr::UnifyConstant { c } => {
                    if let Some(h) = hole(c) {
                        sites.push((i as u32, h));
                    }
                    false
                }
                Instr::LoadConst { c, .. } => hole(c).is_some(),
                Instr::SwitchOnConstant { table, .. } => {
                    table.iter().any(|(k, _)| hole(k).is_some())
                }
                _ => false,
            };
            if stray {
                return None;
            }
        }
        if overlay.static_data.iter().any(|w| hole(w).is_some()) {
            return None;
        }
        Some(QueryTemplate {
            overlay,
            sites,
            vars,
            symbols,
        })
    }

    /// The query overlay on `base` for the atoms `holes` (hole `h`'s atom
    /// is `holes[h]`), with the reported variable names: a copy of the
    /// template's own parts with each site's operand written.
    pub fn instantiate(&self, base: &Arc<CodeImage>, holes: &[AtomId]) -> (CodeImage, Vec<String>) {
        let mut overlay = CodeImage {
            base: Some(Arc::clone(base)),
            ..self.overlay.clone()
        };
        for &(i, h) in &self.sites {
            overlay.write(i as usize, |code, j| {
                if let Some(c) = constant_mut(&mut code.instrs[j]) {
                    *c = Word::atom(holes[h as usize]);
                }
            });
        }
        (overlay, self.vars.clone())
    }

    /// The bytes the template holds, estimated from its lengths (an
    /// instruction with its address, dispatch entry and side-table slot):
    /// what the table's byte bound counts.
    pub fn bytes(&self) -> usize {
        let o = &self.overlay;
        let strings = |s: &mut dyn Iterator<Item = &str>| s.map(|s| s.len() + 24).sum::<usize>();
        std::mem::size_of::<QueryTemplate>()
            + o.own_len() * (std::mem::size_of::<Instr>() + 4 + 8 + 8)
            + o.addr_index.len() * 4
            + o.static_data.len() * 8
            + self.sites.len() * 8
            + strings(&mut o.entries.keys().map(|(n, _)| n.as_str()))
            + o.entries.len() * 8
            + strings(&mut o.sizes.iter().map(|s| s.id.name.as_str()))
            + o.sizes.len() * std::mem::size_of::<crate::image::PredSize>()
            + strings(&mut o.warnings.iter().map(String::as_str))
            + strings(&mut self.vars.iter().map(String::as_str))
    }
}

/// The answer of [`CodeImage::find_shape`].
pub enum ShapeLookup {
    /// A template compiled on this image against a table of the same
    /// size.
    Hit(Arc<QueryTemplate>),
    /// The shape is known not to be cacheable.
    Uncacheable,
    /// The shape is not in the table.
    Miss,
}

/// A flat image's table of compiled query shapes, bounded by
/// [`MAX_SHAPES`] entries and [`MAX_SHAPE_BYTES`]. A clone is empty.
#[derive(Default)]
pub(crate) struct ShapeTable {
    shapes: Mutex<Shapes>,
    hits: AtomicU64,
    misses: AtomicU64,
}

/// A shape's template (`None`: the shape's compile was not admitted as a
/// template, or failed, so its queries compile directly, once each) and
/// the bytes its entry holds.
type Entry = (Option<Arc<QueryTemplate>>, usize);

#[derive(Default)]
struct Shapes {
    map: HashMap<Box<[u8]>, Entry>,
    bytes: usize,
}

impl Clone for ShapeTable {
    fn clone(&self) -> ShapeTable {
        ShapeTable::default()
    }
}

impl std::fmt::Debug for ShapeTable {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let stats = self.stats();
        f.debug_struct("ShapeTable")
            .field("shapes", &stats.shapes)
            .field("hits", &stats.hits)
            .field("misses", &stats.misses)
            .finish()
    }
}

/// A shape table's counters ([`CodeImage::shape_stats`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ShapeStats {
    /// Query compiles on the image answered from its table.
    pub hits: u64,
    /// Query compiles on the image that its table did not answer.
    pub misses: u64,
    /// Shapes the table holds now, uncacheable ones included.
    pub shapes: usize,
    /// The bytes they hold ([`QueryTemplate::bytes`] plus their keys).
    pub bytes: usize,
}

impl ShapeTable {
    fn lock(&self) -> std::sync::MutexGuard<'_, Shapes> {
        self.shapes.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn stats(&self) -> ShapeStats {
        let shapes = self.lock();
        ShapeStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            shapes: shapes.map.len(),
            bytes: shapes.bytes,
        }
    }

    /// Forgets every shape (the image changed); the counters stay.
    pub(crate) fn clear(&mut self) {
        let shapes = self
            .shapes
            .get_mut()
            .unwrap_or_else(PoisonError::into_inner);
        if !shapes.map.is_empty() {
            *shapes = Shapes::default();
        }
    }
}

impl CodeImage {
    /// Looks a query shape up in this flat image's table, counting a hit
    /// or a miss. A template compiled against a symbol table of another
    /// size, or for other code than the image now ends with, is a miss.
    pub fn find_shape(&self, key: &[u8], symbols: &SymbolTable) -> ShapeLookup {
        let found = match self.shapes.lock().map.get(key) {
            Some((Some(t), _))
                if t.symbols == (symbols.atom_count(), symbols.functor_count())
                    && t.overlay.first_index as usize == self.num_instrs()
                    && t.overlay.first_addr == self.end =>
            {
                ShapeLookup::Hit(Arc::clone(t))
            }
            Some((None, _)) => ShapeLookup::Uncacheable,
            _ => ShapeLookup::Miss,
        };
        let counter = match found {
            ShapeLookup::Hit(_) => &self.shapes.hits,
            _ => &self.shapes.misses,
        };
        counter.fetch_add(1, Ordering::Relaxed);
        found
    }

    /// Counts a query compile on this image that did not consult its
    /// table (the query's shape could not be keyed).
    pub fn count_shape_miss(&self) {
        self.shapes.misses.fetch_add(1, Ordering::Relaxed);
    }

    /// Keeps `template` under `key`, or with `None` marks the shape
    /// uncacheable. A template larger than [`MAX_TEMPLATE_BYTES`] is not
    /// kept; a table that would pass [`MAX_SHAPES`] or
    /// [`MAX_SHAPE_BYTES`] starts over.
    pub fn insert_shape(&self, key: &[u8], template: Option<QueryTemplate>) {
        let bytes = key.len() + template.as_ref().map_or(0, QueryTemplate::bytes);
        if bytes > MAX_TEMPLATE_BYTES {
            return;
        }
        let mut shapes = self.shapes.lock();
        if shapes.map.len() >= MAX_SHAPES || shapes.bytes + bytes > MAX_SHAPE_BYTES {
            *shapes = Shapes::default();
        }
        if let Some((_, old)) = shapes
            .map
            .insert(key.into(), (template.map(Arc::new), bytes))
        {
            shapes.bytes -= old;
        }
        shapes.bytes += bytes;
    }

    /// The counters of this image's shape table.
    pub fn shape_stats(&self) -> ShapeStats {
        self.shapes.stats()
    }
}
