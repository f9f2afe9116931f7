//! The levels of the storage hierarchy a partition can be served from.

/// Which level of the memory -> local-SSD -> object-store hierarchy served
/// (or would serve) an access, or holds a partition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TierLevel {
    /// In-memory cache of decoded batches.
    Mem,
    /// Local-SSD cache of encoded partition files.
    Ssd,
    /// The backing object store — a cache miss.
    Object,
}

impl TierLevel {
    /// Stable numeric code for traces (0 = mem, 1 = ssd, 2 = object).
    pub fn code(self) -> u64 {
        match self {
            TierLevel::Mem => 0,
            TierLevel::Ssd => 1,
            TierLevel::Object => 2,
        }
    }
}
