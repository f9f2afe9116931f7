//! Strongly-typed identifiers.
//!
//! Using newtypes instead of raw integers prevents the classic "passed a
//! pipeline id where a node id was expected" bug class, at zero runtime cost.

use std::fmt;

macro_rules! id_type {
    ($(#[$doc:meta])* $name:ident, $prefix:literal) => {
        $(#[$doc])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
        pub struct $name(pub u32);

        impl $name {
            /// Wraps a raw index.
            pub const fn new(raw: u32) -> Self {
                Self(raw)
            }

            /// The raw index, for use as a `Vec` subscript.
            pub const fn index(self) -> usize {
                self.0 as usize
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!($prefix, "{}"), self.0)
            }
        }

        impl From<u32> for $name {
            fn from(raw: u32) -> Self {
                Self(raw)
            }
        }

        impl From<usize> for $name {
            fn from(raw: usize) -> Self {
                debug_assert!(raw <= u32::MAX as usize);
                Self(raw as u32)
            }
        }
    };
}

id_type!(
    /// A compute node in the elastic cluster.
    NodeId, "node-"
);
id_type!(
    /// A user query admitted to the warehouse.
    QueryId, "q-"
);
id_type!(
    /// One pipeline (execution stage between pipeline breakers) of a physical plan.
    PipelineId, "pipe-"
);
id_type!(
    /// A physical operator instance inside a plan.
    OperatorId, "op-"
);
id_type!(
    /// A table registered in the catalog.
    TableId, "tbl-"
);
id_type!(
    /// A scheduling stage: a set of pipelines that may run concurrently.
    StageId, "stage-"
);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_uses_prefix() {
        assert_eq!(NodeId::new(3).to_string(), "node-3");
        assert_eq!(QueryId::new(0).to_string(), "q-0");
        assert_eq!(PipelineId::new(7).to_string(), "pipe-7");
        assert_eq!(TableId::new(1).to_string(), "tbl-1");
    }

    #[test]
    fn index_round_trips() {
        let id = OperatorId::from(42usize);
        assert_eq!(id.index(), 42);
        assert_eq!(OperatorId::new(42), id);
    }

    #[test]
    fn ids_are_ordered_and_hashable() {
        use std::collections::HashSet;
        let mut s = HashSet::new();
        s.insert(StageId::new(1));
        s.insert(StageId::new(1));
        s.insert(StageId::new(2));
        assert_eq!(s.len(), 2);
        assert!(StageId::new(1) < StageId::new(2));
    }
}
