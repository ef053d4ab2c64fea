//! Wide-area latency model.
//!
//! RTT between two points is modelled as
//!
//! ```text
//! rtt = 2 · distance_km · inflation / fiber_speed
//!     + client_access_overhead + server_overhead + jitter
//! ```
//!
//! * `fiber_speed` ≈ 200,000 km/s (light in glass, ~2/3 c).
//! * `inflation` captures route stretch (fiber does not follow great
//!   circles). It is sampled *per path* from a deterministic hash of the
//!   endpoints so repeated probes of one path agree (Table 1 reports
//!   σ < 7 ms) while different paths show realistic diversity.
//! * `client_access_overhead` models WiFi + last-mile queuing at the AP
//!   vantage (the paper probes from the APs).
//! * per-probe `jitter` is half-normal, keeping each path's σ small.

use crate::coords::GeoPoint;
use visionsim_core::rng::SimRng;
use visionsim_core::time::SimDuration;

/// Speed of light in fiber, km/s.
pub const FIBER_KM_PER_S: f64 = 200_000.0;

/// Parameters of the latency model.
#[derive(Clone, Debug)]
pub struct LatencyModel {
    /// Minimum route-inflation factor (≥ 1).
    pub inflation_min: f64,
    /// Maximum route-inflation factor.
    pub inflation_max: f64,
    /// Client-side access overhead added to each RTT, ms.
    pub access_overhead_ms: f64,
    /// Scale of the per-probe half-normal jitter, ms.
    pub jitter_sigma_ms: f64,
}

impl Default for LatencyModel {
    fn default() -> Self {
        LatencyModel {
            inflation_min: 1.25,
            inflation_max: 1.9,
            access_overhead_ms: 4.0,
            jitter_sigma_ms: 1.5,
        }
    }
}

/// The latency characteristics of one path (endpoint pair).
#[derive(Clone, Copy, Debug)]
pub struct PathLatency {
    /// Great-circle distance, km.
    pub distance_km: f64,
    /// The path's (deterministic) route-inflation factor.
    pub inflation: f64,
    /// Base RTT excluding jitter, ms.
    pub base_rtt_ms: f64,
}

impl LatencyModel {
    /// Deterministic per-path inflation in `[inflation_min, inflation_max]`,
    /// derived by hashing the endpoint coordinates. Short paths (same metro)
    /// skew toward the low end — intra-city routes are direct.
    fn path_inflation(&self, a: &GeoPoint, b: &GeoPoint) -> f64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for v in [a.lat_deg, a.lon_deg, b.lat_deg, b.lon_deg] {
            // Quantize to ~100 m so that a==b hashes symmetric paths equally.
            let q = (v * 1_000.0).round() as i64 as u64;
            h ^= q;
            h = h.wrapping_mul(0x1000_0000_01b3);
        }
        // Make the hash order-independent by mixing both directions.
        let mut h2: u64 = 0xcbf2_9ce4_8422_2325;
        for v in [b.lat_deg, b.lon_deg, a.lat_deg, a.lon_deg] {
            let q = (v * 1_000.0).round() as i64 as u64;
            h2 ^= q;
            h2 = h2.wrapping_mul(0x1000_0000_01b3);
        }
        let mixed = h ^ h2;
        let unit = (mixed >> 11) as f64 / (1u64 << 53) as f64;
        self.inflation_min + unit * (self.inflation_max - self.inflation_min)
    }

    /// The deterministic path characteristics between `a` and `b` toward a
    /// server with the given processing overhead.
    pub fn path(&self, a: &GeoPoint, b: &GeoPoint, server_overhead_ms: f64) -> PathLatency {
        let distance_km = a.distance_km(b);
        let inflation = self.path_inflation(a, b);
        let prop_ms = 2.0 * distance_km * inflation / FIBER_KM_PER_S * 1_000.0;
        PathLatency {
            distance_km,
            inflation,
            base_rtt_ms: prop_ms + self.access_overhead_ms + server_overhead_ms,
        }
    }

    /// One RTT probe (base + half-normal jitter), in milliseconds.
    pub fn probe_rtt_ms(
        &self,
        a: &GeoPoint,
        b: &GeoPoint,
        server_overhead_ms: f64,
        rng: &mut SimRng,
    ) -> f64 {
        let path = self.path(a, b, server_overhead_ms);
        path.base_rtt_ms + rng.normal(0.0, self.jitter_sigma_ms).abs()
    }

    /// One-way propagation delay (half of the jitter-free RTT) as a
    /// [`SimDuration`], for configuring network links.
    pub fn one_way(&self, a: &GeoPoint, b: &GeoPoint) -> SimDuration {
        let path = self.path(a, b, 0.0);
        SimDuration::from_millis_f64(path.base_rtt_ms / 2.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cities;

    fn model() -> LatencyModel {
        LatencyModel::default()
    }

    fn loc(name: &str) -> GeoPoint {
        cities::by_name(name).unwrap().location
    }

    #[test]
    fn inflation_is_deterministic_and_symmetric() {
        let m = model();
        let a = loc("San Francisco, CA");
        let b = loc("New York, NY");
        let i1 = m.path(&a, &b, 0.0).inflation;
        let i2 = m.path(&a, &b, 0.0).inflation;
        let i3 = m.path(&b, &a, 0.0).inflation;
        assert_eq!(i1, i2);
        assert_eq!(i1, i3);
        assert!(i1 >= m.inflation_min && i1 <= m.inflation_max);
    }

    #[test]
    fn different_paths_get_different_inflation() {
        let m = model();
        let sf = loc("San Francisco, CA");
        let i_ny = m.path(&sf, &loc("New York, NY"), 0.0).inflation;
        let i_chi = m.path(&sf, &loc("Chicago, IL"), 0.0).inflation;
        assert_ne!(i_ny, i_chi);
    }

    #[test]
    fn coast_to_coast_rtt_lands_in_table1_band() {
        // Table 1's W↔E entries are ~71-79 ms.
        let m = model();
        let rtt = m
            .path(&loc("San Francisco, CA"), &loc("New York, NY"), 2.0)
            .base_rtt_ms;
        assert!((50.0..95.0).contains(&rtt), "rtt = {rtt}");
    }

    #[test]
    fn same_metro_rtt_is_single_digit() {
        // Table 1 diagonal entries are 5.9-8.8 ms.
        let m = model();
        let sf = loc("San Francisco, CA");
        let sj = GeoPoint::new(37.3382, -121.8863); // San Jose
        let rtt = m.path(&sf, &sj, 2.0).base_rtt_ms;
        assert!((4.0..12.0).contains(&rtt), "rtt = {rtt}");
    }

    #[test]
    fn probe_jitter_is_small_and_positive() {
        let m = model();
        let mut rng = SimRng::seed_from_u64(1);
        let a = loc("San Francisco, CA");
        let b = loc("New York, NY");
        let base = m.path(&a, &b, 2.0).base_rtt_ms;
        let probes: Vec<f64> = (0..200)
            .map(|_| m.probe_rtt_ms(&a, &b, 2.0, &mut rng))
            .collect();
        for &p in &probes {
            assert!(p >= base, "jitter must not reduce RTT");
        }
        let mean = probes.iter().sum::<f64>() / probes.len() as f64;
        let std =
            (probes.iter().map(|p| (p - mean).powi(2)).sum::<f64>() / probes.len() as f64).sqrt();
        // Table 1: "standard deviation of all results is <7 ms".
        assert!(std < 7.0, "std = {std}");
    }

    #[test]
    fn europe_asia_one_way_exceeds_100ms() {
        // §4.1: "the one-way propagation delay between Europe and Asia may
        // already exceed 100 ms".
        let m = model();
        let d = m.one_way(&loc("Frankfurt, DE"), &loc("Tokyo, JP"));
        assert!(d.as_millis_f64() > 60.0, "one-way = {d}");
    }

    #[test]
    fn rtt_monotone_in_distance_for_same_inflation() {
        let mut m = model();
        m.inflation_min = 1.5;
        m.inflation_max = 1.5; // fix inflation to isolate distance
        let sf = loc("San Francisco, CA");
        let near = m.path(&sf, &loc("Seattle, WA"), 0.0).base_rtt_ms;
        let far = m.path(&sf, &loc("New York, NY"), 0.0).base_rtt_ms;
        assert!(near < far);
    }
}
