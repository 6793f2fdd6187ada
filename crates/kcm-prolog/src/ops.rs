//! The standard operator table.
//!
//! Priorities and types follow the de-facto standard (Warren/Edinburgh)
//! table that SEPIA and Quintus shared, which is what the PLM benchmark
//! sources assume.

use std::collections::HashMap;

/// Operator fixity/associativity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OpType {
    /// Infix, both args strictly lower priority.
    Xfx,
    /// Infix, right arg may have equal priority (right associative).
    Xfy,
    /// Infix, left arg may have equal priority (left associative).
    Yfx,
    /// Prefix, arg strictly lower.
    Fy,
    /// Prefix, arg may be equal.
    Fx,
    /// Postfix, arg strictly lower.
    Xf,
    /// Postfix, arg may be equal.
    Yf,
}

impl OpType {
    /// Whether this is a prefix operator type.
    pub fn is_prefix(self) -> bool {
        matches!(self, OpType::Fy | OpType::Fx)
    }

    /// Whether this is an infix operator type.
    pub fn is_infix(self) -> bool {
        matches!(self, OpType::Xfx | OpType::Xfy | OpType::Yfx)
    }
}

/// One operator definition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OpDef {
    /// Priority 1..=1200 (higher binds looser).
    pub priority: u16,
    /// The fixity.
    pub op_type: OpType,
}

/// The operator table: maps an atom to its prefix and/or infix/postfix
/// definitions (an atom may be both, like `-`).
///
/// # Examples
///
/// ```
/// use kcm_prolog::{OpTable, OpType};
/// let t = OpTable::standard();
/// let minus_prefix = t.prefix("-").unwrap();
/// assert_eq!(minus_prefix.op_type, OpType::Fy);
/// let minus_infix = t.infix("-").unwrap();
/// assert_eq!(minus_infix.priority, 500);
/// ```
#[derive(Debug, Clone)]
pub struct OpTable {
    prefix: HashMap<String, OpDef>,
    infix: HashMap<String, OpDef>,
    postfix: HashMap<String, OpDef>,
}

impl Default for OpTable {
    fn default() -> OpTable {
        OpTable::standard()
    }
}

impl OpTable {
    /// An empty table.
    pub fn empty() -> OpTable {
        OpTable {
            prefix: HashMap::new(),
            infix: HashMap::new(),
            postfix: HashMap::new(),
        }
    }

    /// The standard Edinburgh table.
    pub fn standard() -> OpTable {
        let mut t = OpTable::empty();
        let defs: &[(&str, u16, OpType)] = &[
            (":-", 1200, OpType::Xfx),
            ("-->", 1200, OpType::Xfx),
            (":-", 1200, OpType::Fx),
            ("?-", 1200, OpType::Fx),
            (";", 1100, OpType::Xfy),
            ("->", 1050, OpType::Xfy),
            (",", 1000, OpType::Xfy),
            ("\\+", 900, OpType::Fy),
            ("not", 900, OpType::Fy),
            ("=", 700, OpType::Xfx),
            ("\\=", 700, OpType::Xfx),
            ("==", 700, OpType::Xfx),
            ("\\==", 700, OpType::Xfx),
            ("@<", 700, OpType::Xfx),
            ("@>", 700, OpType::Xfx),
            ("@=<", 700, OpType::Xfx),
            ("@>=", 700, OpType::Xfx),
            ("=..", 700, OpType::Xfx),
            ("is", 700, OpType::Xfx),
            ("=:=", 700, OpType::Xfx),
            ("=\\=", 700, OpType::Xfx),
            ("<", 700, OpType::Xfx),
            (">", 700, OpType::Xfx),
            ("=<", 700, OpType::Xfx),
            (">=", 700, OpType::Xfx),
            ("+", 500, OpType::Yfx),
            ("-", 500, OpType::Yfx),
            ("/\\", 500, OpType::Yfx),
            ("\\/", 500, OpType::Yfx),
            ("xor", 500, OpType::Yfx),
            ("*", 400, OpType::Yfx),
            ("/", 400, OpType::Yfx),
            ("//", 400, OpType::Yfx),
            ("mod", 400, OpType::Yfx),
            ("rem", 400, OpType::Yfx),
            ("<<", 400, OpType::Yfx),
            (">>", 400, OpType::Yfx),
            ("**", 200, OpType::Xfx),
            ("^", 200, OpType::Xfy),
            ("-", 200, OpType::Fy),
            ("+", 200, OpType::Fy),
            ("\\", 200, OpType::Fy),
        ];
        for &(name, priority, op_type) in defs {
            t.add(name, priority, op_type);
        }
        t
    }

    /// Adds or replaces an operator definition (the `op/3` directive).
    pub fn add(&mut self, name: &str, priority: u16, op_type: OpType) {
        let def = OpDef { priority, op_type };
        let map = if op_type.is_prefix() {
            &mut self.prefix
        } else if op_type.is_infix() {
            &mut self.infix
        } else {
            &mut self.postfix
        };
        map.insert(name.to_owned(), def);
    }

    /// The prefix definition of `name`, if any.
    pub fn prefix(&self, name: &str) -> Option<OpDef> {
        self.prefix.get(name).copied()
    }

    /// The infix definition of `name`, if any.
    pub fn infix(&self, name: &str) -> Option<OpDef> {
        self.infix.get(name).copied()
    }

    /// The postfix definition of `name`, if any.
    pub fn postfix(&self, name: &str) -> Option<OpDef> {
        self.postfix.get(name).copied()
    }

    /// Whether `name` is an operator in any fixity.
    pub fn is_operator(&self, name: &str) -> bool {
        self.prefix.contains_key(name)
            || self.infix.contains_key(name)
            || self.postfix.contains_key(name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standard_table_has_the_essentials() {
        let t = OpTable::standard();
        assert_eq!(t.infix(":-").unwrap().priority, 1200);
        assert_eq!(t.infix(",").unwrap().priority, 1000);
        assert_eq!(t.infix("is").unwrap().priority, 700);
        assert_eq!(t.infix("+").unwrap().op_type, OpType::Yfx);
        assert_eq!(t.infix("^").unwrap().op_type, OpType::Xfy);
        assert!(t.prefix("\\+").is_some());
    }

    #[test]
    fn minus_is_both_prefix_and_infix() {
        let t = OpTable::standard();
        assert!(t.prefix("-").is_some());
        assert!(t.infix("-").is_some());
        assert!(t.postfix("-").is_none());
    }

    #[test]
    fn op_directive_extends_table() {
        let mut t = OpTable::standard();
        assert!(!t.is_operator("===>"));
        t.add("===>", 800, OpType::Xfx);
        assert_eq!(t.infix("===>").unwrap().priority, 800);
    }

    #[test]
    fn non_operator_is_unknown() {
        let t = OpTable::standard();
        assert!(!t.is_operator("append"));
        assert_eq!(t.infix("append"), None);
    }
}
