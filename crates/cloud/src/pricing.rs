//! The cache-tier price menu: capacity, service model and occupancy rent of
//! the memory and local-SSD tiers in front of the object store, and the
//! request and transfer prices that make a re-fetch cost real dollars.

use ci_types::TierLevel;

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
