//! Interned identifiers and their string tables.
//!
//! Regions (functions / code phases) and segment contexts (hierarchical loop
//! names such as `main.2.1`) are referenced everywhere by small integer ids.
//! The string tables are stored once per application trace and serialized
//! once per trace file, which is part of what makes the reduced trace format
//! compact.

use std::collections::BTreeMap;
use std::fmt;

/// A process (MPI task) identifier.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub struct Rank(pub u32);

impl Rank {
    /// Numeric rank value.
    #[inline]
    pub const fn as_u32(self) -> u32 {
        self.0
    }

    /// Numeric rank value as a usize index.
    #[inline]
    pub const fn as_usize(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for Rank {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "rank {}", self.0)
    }
}

impl From<u32> for Rank {
    fn from(v: u32) -> Self {
        Rank(v)
    }
}

impl From<usize> for Rank {
    fn from(v: usize) -> Self {
        Rank(v as u32)
    }
}

/// Identifier of a code region (function, MPI call, or computation phase).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct RegionId(pub u32);

impl RegionId {
    /// Numeric value of the region id.
    #[inline]
    pub const fn as_u32(self) -> u32 {
        self.0
    }
}

/// Identifier of a segment context (hierarchical loop / phase name).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct ContextId(pub u32);

impl ContextId {
    /// Numeric value of the context id.
    #[inline]
    pub const fn as_u32(self) -> u32 {
        self.0
    }
}

/// A generic interning table mapping names to dense integer ids.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
struct InternTable {
    names: Vec<String>,
    index: BTreeMap<String, u32>,
}

impl InternTable {
    fn intern(&mut self, name: &str) -> u32 {
        if let Some(&id) = self.index.get(name) {
            return id;
        }
        let id = self.names.len() as u32;
        self.names.push(name.to_owned());
        self.index.insert(name.to_owned(), id);
        id
    }

    fn lookup(&self, name: &str) -> Option<u32> {
        self.index.get(name).copied()
    }

    fn name(&self, id: u32) -> Option<&str> {
        self.names.get(id as usize).map(String::as_str)
    }

    fn len(&self) -> usize {
        self.names.len()
    }

    fn names(&self) -> &[String] {
        &self.names
    }

    fn from_names<I: IntoIterator<Item = String>>(names: I) -> Self {
        let mut t = InternTable::default();
        for n in names {
            t.intern(&n);
        }
        t
    }
}

/// Table of code-region names.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RegionTable {
    inner: InternTable,
}

impl RegionTable {
    /// Creates an empty region table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Interns a region name, returning its id (existing or new).
    pub fn intern(&mut self, name: &str) -> RegionId {
        RegionId(self.inner.intern(name))
    }

    /// Looks up an existing region by name.
    pub fn lookup(&self, name: &str) -> Option<RegionId> {
        self.inner.lookup(name).map(RegionId)
    }

    /// Returns the name of a region id, if known.
    pub fn name(&self, id: RegionId) -> Option<&str> {
        self.inner.name(id.0)
    }

    /// Returns the name of a region id, or `"<unknown>"`.
    pub fn name_or_unknown(&self, id: RegionId) -> &str {
        self.name(id).unwrap_or("<unknown>")
    }

    /// Number of interned regions.
    pub fn len(&self) -> usize {
        self.inner.len()
    }

    /// True if no regions have been interned.
    pub fn is_empty(&self) -> bool {
        self.inner.len() == 0
    }

    /// All region names in id order.
    pub fn names(&self) -> &[String] {
        self.inner.names()
    }

    /// Rebuilds a table from a name list in id order (used by the codec).
    pub fn from_names<I: IntoIterator<Item = String>>(names: I) -> Self {
        RegionTable {
            inner: InternTable::from_names(names),
        }
    }
}

/// Table of segment-context names (e.g. `init`, `main.1`, `main.2.1`).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ContextTable {
    inner: InternTable,
}

impl ContextTable {
    /// Creates an empty context table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Interns a context name, returning its id (existing or new).
    pub fn intern(&mut self, name: &str) -> ContextId {
        ContextId(self.inner.intern(name))
    }

    /// Looks up an existing context by name.
    pub fn lookup(&self, name: &str) -> Option<ContextId> {
        self.inner.lookup(name).map(ContextId)
    }

    /// Returns the name of a context id, if known.
    pub fn name(&self, id: ContextId) -> Option<&str> {
        self.inner.name(id.0)
    }

    /// Returns the name of a context id, or `"<unknown>"`.
    pub fn name_or_unknown(&self, id: ContextId) -> &str {
        self.name(id).unwrap_or("<unknown>")
    }

    /// Number of interned contexts.
    pub fn len(&self) -> usize {
        self.inner.len()
    }

    /// True if no contexts have been interned.
    pub fn is_empty(&self) -> bool {
        self.inner.len() == 0
    }

    /// All context names in id order.
    pub fn names(&self) -> &[String] {
        self.inner.names()
    }

    /// Rebuilds a table from a name list in id order (used by the codec).
    pub fn from_names<I: IntoIterator<Item = String>>(names: I) -> Self {
        ContextTable {
            inner: InternTable::from_names(names),
        }
    }

    /// Returns the parent context name of a hierarchical context name, e.g.
    /// the parent of `main.2.1` is `main.2`; top-level names have no parent.
    pub fn parent_name(name: &str) -> Option<&str> {
        name.rfind('.').map(|idx| &name[..idx])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_is_idempotent() {
        let mut t = RegionTable::new();
        let a = t.intern("MPI_Recv");
        let b = t.intern("do_work");
        let a2 = t.intern("MPI_Recv");
        assert_eq!(a, a2);
        assert_ne!(a, b);
        assert_eq!(t.len(), 2);
        assert_eq!(t.name(a), Some("MPI_Recv"));
        assert_eq!(t.lookup("do_work"), Some(b));
        assert_eq!(t.lookup("missing"), None);
    }

    #[test]
    fn context_hierarchy_helpers() {
        assert_eq!(ContextTable::parent_name("main.2.1"), Some("main.2"));
        assert_eq!(ContextTable::parent_name("main"), None);
    }

    #[test]
    fn from_names_preserves_order() {
        let t = ContextTable::from_names(vec!["init".into(), "main.1".into(), "final".into()]);
        assert_eq!(t.name(ContextId(0)), Some("init"));
        assert_eq!(t.name(ContextId(1)), Some("main.1"));
        assert_eq!(t.name(ContextId(2)), Some("final"));
        assert_eq!(t.lookup("main.1"), Some(ContextId(1)));
    }

    #[test]
    fn name_or_unknown_fallback() {
        let t = RegionTable::new();
        assert_eq!(t.name_or_unknown(RegionId(42)), "<unknown>");
    }

    #[test]
    fn rank_conversions() {
        let r: Rank = 7usize.into();
        assert_eq!(r.as_u32(), 7);
        assert_eq!(r.as_usize(), 7);
        assert_eq!(format!("{r}"), "rank 7");
    }
}
