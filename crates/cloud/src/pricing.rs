//! The "T-shirt size" provisioning menu of Figure 1 and the cache-tier price menu.
//!
//! Snowflake-style warehouses are sold in doubling sizes (XS, S, M, ...)
//! where each step doubles both the node count and the hourly price. The
//! paper's opening argument is that forcing users to pick from this menu
//! causes over/under-provisioning; experiment F1 quantifies it against the
//! bi-objective optimizer's automatic deployment.

use ci_types::TierLevel;

/// The classic warehouse T-shirt sizes with their node counts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum TShirtSize {
    /// 1 node.
    XS,
    /// 2 nodes.
    S,
    /// 4 nodes.
    M,
    /// 8 nodes.
    L,
    /// 16 nodes.
    XL,
    /// 32 nodes.
    XXL,
    /// 64 nodes.
    XXXL,
    /// 128 nodes.
    XXXXL,
}

impl TShirtSize {
    /// All sizes in ascending order.
    pub const ALL: [TShirtSize; 8] = [
        TShirtSize::XS,
        TShirtSize::S,
        TShirtSize::M,
        TShirtSize::L,
        TShirtSize::XL,
        TShirtSize::XXL,
        TShirtSize::XXXL,
        TShirtSize::XXXXL,
    ];

    /// Number of nodes this size provisions.
    pub fn nodes(self) -> u32 {
        match self {
            TShirtSize::XS => 1,
            TShirtSize::S => 2,
            TShirtSize::M => 4,
            TShirtSize::L => 8,
            TShirtSize::XL => 16,
            TShirtSize::XXL => 32,
            TShirtSize::XXXL => 64,
            TShirtSize::XXXXL => 128,
        }
    }

    /// Display label matching the provider UI.
    pub fn label(self) -> &'static str {
        match self {
            TShirtSize::XS => "X-Small",
            TShirtSize::S => "Small",
            TShirtSize::M => "Medium",
            TShirtSize::L => "Large",
            TShirtSize::XL => "X-Large",
            TShirtSize::XXL => "2X-Large",
            TShirtSize::XXXL => "3X-Large",
            TShirtSize::XXXXL => "4X-Large",
        }
    }
}

/// One level of the tiered cache hierarchy: capacity, service model, and
/// the occupancy rent charged per GB-hour of residency.
#[derive(Debug, Clone, PartialEq)]
pub struct TierSpec {
    /// Bytes this tier can hold before eviction kicks in.
    pub capacity_bytes: u64,
    /// Sequential service bandwidth.
    pub bytes_per_sec: f64,
    /// Fixed per-request latency (seek / syscall / first-byte).
    pub request_latency_secs: f64,
    /// Occupancy rent in dollars per GB per hour.
    pub price_per_gb_hour: f64,
}

impl TierSpec {
    /// Virtual seconds to serve `bytes` from this tier (latency + transfer).
    pub fn access_secs(&self, bytes: f64) -> f64 {
        if bytes <= 0.0 {
            0.0
        } else {
            self.request_latency_secs + bytes / self.bytes_per_sec
        }
    }

    /// Hourly rent for keeping `bytes` resident in this tier.
    pub fn rent_per_hour(&self, bytes: u64) -> f64 {
        bytes as f64 / 1e9 * self.price_per_gb_hour
    }
}

/// Prices and service models for the memory -> local-SSD -> object-store
/// hierarchy. The object tier itself is modelled by
/// [`crate::objectstore::ObjectStoreModel`]; this struct adds the cache
/// tiers in front of it plus the request/transfer prices that make a
/// re-fetch cost real dollars.
#[derive(Debug, Clone, PartialEq)]
pub struct TierPricing {
    /// In-memory buffer cache (decoded batches).
    pub mem: TierSpec,
    /// Local-SSD file cache (encoded partition files).
    pub ssd: TierSpec,
    /// Dollars per object-store GET request.
    pub object_get_dollars: f64,
    /// Dollars per GB transferred out of the object store.
    pub object_transfer_dollars_per_gb: f64,
    /// Horizon over which occupancy rent is amortised when scoring
    /// admissions: an entry must save more re-fetch dollars over this many
    /// hours than it costs to keep resident.
    pub rent_horizon_hours: f64,
}

impl Default for TierPricing {
    fn default() -> TierPricing {
        TierPricing::standard()
    }
}

impl TierPricing {
    /// Tier menu used across experiments: generous caches, S3-like request
    /// pricing, cross-zone transfer rates.
    pub fn standard() -> TierPricing {
        TierPricing {
            mem: TierSpec {
                capacity_bytes: 8 << 30,
                bytes_per_sec: 10e9,
                request_latency_secs: 1e-6,
                price_per_gb_hour: 0.05,
            },
            ssd: TierSpec {
                capacity_bytes: 256 << 30,
                bytes_per_sec: 2e9,
                request_latency_secs: 100e-6,
                price_per_gb_hour: 0.002,
            },
            object_get_dollars: 4e-7,
            object_transfer_dollars_per_gb: 0.01,
            rent_horizon_hours: 1.0,
        }
    }

    /// The cache tier behind `level`; `None` for the object store, which
    /// is no cache.
    pub fn spec(&self, level: TierLevel) -> Option<&TierSpec> {
        match level {
            TierLevel::Mem => Some(&self.mem),
            TierLevel::Ssd => Some(&self.ssd),
            TierLevel::Object => None,
        }
    }

    /// Dollars saved by serving `bytes` from a cache tier instead of
    /// re-fetching them from the object store.
    pub fn refetch_dollars(&self, bytes: f64) -> f64 {
        self.object_get_dollars + bytes / 1e9 * self.object_transfer_dollars_per_gb
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sizes_double() {
        let mut prev = 0;
        for s in TShirtSize::ALL {
            let n = s.nodes();
            if prev != 0 {
                assert_eq!(n, prev * 2, "{s:?}");
            }
            prev = n;
        }
        assert_eq!(TShirtSize::XS.nodes(), 1);
        assert_eq!(TShirtSize::XXXXL.nodes(), 128);
    }

    #[test]
    fn labels_are_unique() {
        let mut labels: Vec<_> = TShirtSize::ALL.iter().map(|s| s.label()).collect();
        labels.sort_unstable();
        labels.dedup();
        assert_eq!(labels.len(), TShirtSize::ALL.len());
    }

    #[test]
    fn tier_menu_orders_latency_and_rent() {
        let t = TierPricing::standard();
        assert!(t.mem.access_secs(1e6) < t.ssd.access_secs(1e6));
        assert!(t.mem.price_per_gb_hour > t.ssd.price_per_gb_hour);
        assert!(t.refetch_dollars(1e9) > t.refetch_dollars(0.0));
        assert_eq!(t.mem.access_secs(0.0), 0.0);
    }

    #[test]
    fn tier_rent_scales_with_bytes() {
        let t = TierPricing::standard();
        assert!((t.ssd.rent_per_hour(2_000_000_000) - 0.004).abs() < 1e-12);
    }
}
