//! Strongly-typed node identifiers.
//!
//! The paper juggles two vertex universes (pages and sources); using
//! distinct index newtypes prevents accidentally indexing a page-level
//! structure with a source id or vice versa.

use std::fmt;

/// Raw node index used throughout the adjacency structures.
///
/// `u32` bounds graphs at ~4.29 billion nodes, comfortably above the paper's
/// largest crawl (118M pages) while halving index memory versus `usize`.
pub type NodeId = u32;

/// Checked `usize → NodeId` conversion: the one sanctioned way to narrow
/// an index. Clippy's `cast_possible_truncation` bans bare `as u32` casts
/// (the zigzag truncation bug class); this helper panics loudly in
/// **every** build profile instead of silently wrapping in release.
///
/// # Panics
/// Panics when `idx` does not fit in a `u32`.
#[inline]
pub fn node_id(idx: usize) -> NodeId {
    NodeId::try_from(idx).expect("node index overflows u32")
}

/// The half-open id range `0..n` as `NodeId`s — the ubiquitous
/// all-nodes/all-sources loop, with the narrowing checked once up front
/// instead of an unchecked `0..n as u32` per site.
///
/// # Panics
/// Panics when `n` does not fit in a `u32`.
#[inline]
pub fn node_range(n: usize) -> std::ops::Range<NodeId> {
    0..node_id(n)
}

macro_rules! id_newtype {
    ($(#[$doc:meta])* $name:ident) => {
        $(#[$doc])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
        pub struct $name(pub NodeId);

        // Written out: a derived `PartialOrd` calls `partial_cmp`, which
        // clippy.toml disallows and a lint attribute cannot waive in derive
        // output; deriving `Ord` beside a manual `PartialOrd` trips
        // `derive_ord_xor_partial_ord`. Both order by the raw index.
        impl Ord for $name {
            #[inline]
            fn cmp(&self, other: &Self) -> std::cmp::Ordering {
                self.0.cmp(&other.0)
            }
        }

        impl PartialOrd for $name {
            #[inline]
            fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
                Some(self.cmp(other))
            }
        }

        impl $name {
            /// Returns the underlying index as a `usize` for slice indexing.
            #[inline]
            pub fn index(self) -> usize {
                self.0 as usize
            }

            /// Builds an id from a `usize` index.
            ///
            /// # Panics
            /// Panics if `idx` does not fit in a `u32`.
            #[inline]
            pub fn from_index(idx: usize) -> Self {
                Self($crate::ids::node_id(idx))
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, "{}", self.0)
            }
        }

        impl From<NodeId> for $name {
            #[inline]
            fn from(v: NodeId) -> Self {
                Self(v)
            }
        }

        impl From<$name> for NodeId {
            #[inline]
            fn from(v: $name) -> NodeId {
                v.0
            }
        }
    };
}

id_newtype! {
    /// Identifier of a Web page (a vertex of the page graph `G_P`).
    PageId
}

id_newtype! {
    /// Identifier of a Web source (a vertex of the source graph `G_S`).
    ///
    /// A source is a logical collection of pages — in this reproduction, as in
    /// the paper's evaluation, pages are grouped by the host component of
    /// their URL.
    SourceId
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn page_id_roundtrip() {
        let p = PageId::from_index(42);
        assert_eq!(p.index(), 42);
        assert_eq!(p, PageId(42));
        assert_eq!(format!("{p}"), "42");
    }

    #[test]
    fn source_id_from_node_id() {
        let s: SourceId = 7u32.into();
        assert_eq!(s.index(), 7);
        let raw: NodeId = s.into();
        assert_eq!(raw, 7);
    }

    #[test]
    #[should_panic(expected = "overflows")]
    fn from_index_overflow_panics() {
        let _ = PageId::from_index(u32::MAX as usize + 1);
    }

    #[test]
    fn ids_are_ordered() {
        assert!(PageId(1) < PageId(2));
        assert!(SourceId(0) < SourceId(10));
    }
}
