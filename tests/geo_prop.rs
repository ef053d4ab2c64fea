//! Randomized property tests for geodesy and the latency model, driven by
//! deterministic SimRng cases.

use visionsim::core::par::derive_seed;
use visionsim::core::rng::SimRng;
use visionsim::geo::coords::{GeoPoint, EARTH_RADIUS_KM};
use visionsim::geo::geodb::GeoDb;
use visionsim::geo::propagation::LatencyModel;
use visionsim::geo::regions::Region;

const CASES: u64 = 256;

fn case_rng(label: &str, i: u64) -> SimRng {
    SimRng::seed_from_u64(derive_seed(0x6E0_6E0, label, i))
}

fn point(rng: &mut SimRng) -> GeoPoint {
    GeoPoint::new(rng.uniform_range(-90.0, 90.0), rng.uniform_range(-180.0, 180.0))
}

/// Distance is a metric: non-negative, symmetric, zero iff same point
/// (up to fp), and bounded by half the circumference.
#[test]
fn distance_is_a_metric() {
    for i in 0..CASES {
        let mut rng = case_rng("distance_metric", i);
        let a = point(&mut rng);
        let b = point(&mut rng);
        let d = a.distance_km(&b);
        assert!(d >= 0.0);
        assert!((d - b.distance_km(&a)).abs() < 1e-9);
        assert!(d <= std::f64::consts::PI * EARTH_RADIUS_KM + 1e-6);
        assert!(a.distance_km(&a) < 1e-9);
    }
}

/// Triangle inequality.
#[test]
fn triangle_inequality() {
    for i in 0..CASES {
        let mut rng = case_rng("triangle", i);
        let a = point(&mut rng);
        let b = point(&mut rng);
        let c = point(&mut rng);
        let direct = a.distance_km(&c);
        let via = a.distance_km(&b) + b.distance_km(&c);
        assert!(direct <= via + 1e-6, "{direct} > {via}");
    }
}

/// Every point classifies into exactly one region without panicking.
#[test]
fn classification_is_total() {
    for i in 0..CASES {
        let mut rng = case_rng("classification", i);
        let p = point(&mut rng);
        let r = Region::of(&p);
        assert!(Region::ALL.contains(&r));
    }
}

/// Path latency: deterministic, symmetric, at least the speed-of-light
/// floor, and monotone-boundable by inflation limits.
#[test]
fn path_latency_bounds() {
    for i in 0..CASES {
        let mut rng = case_rng("path_latency", i);
        let a = point(&mut rng);
        let b = point(&mut rng);
        let overhead = rng.uniform_range(0.0, 10.0);
        let m = LatencyModel::default();
        let p1 = m.path(&a, &b, overhead);
        let p2 = m.path(&b, &a, overhead);
        assert_eq!(p1.inflation, p2.inflation);
        assert!((p1.base_rtt_ms - p2.base_rtt_ms).abs() < 1e-9);
        let d = a.distance_km(&b);
        let floor = 2.0 * d * m.inflation_min / 200_000.0 * 1_000.0 + m.access_overhead_ms + overhead;
        let ceil = 2.0 * d * m.inflation_max / 200_000.0 * 1_000.0 + m.access_overhead_ms + overhead;
        assert!(p1.base_rtt_ms >= floor - 1e-6);
        assert!(p1.base_rtt_ms <= ceil + 1e-6);
    }
}

/// Address allocation: unique addresses, lookups return the right
/// record, prefixes encode regions.
#[test]
fn geodb_allocation_invariants() {
    for i in 0..64 {
        let mut rng = case_rng("geodb", i);
        let n = rng.uniform_u64(1, 49) as usize;
        let points: Vec<GeoPoint> = (0..n).map(|_| point(&mut rng)).collect();
        let mut db = GeoDb::new();
        let mut addrs = Vec::new();
        for (k, p) in points.iter().enumerate() {
            let a = db.allocate(&format!("org{k}"), "city", *p);
            assert!(!addrs.contains(&a), "duplicate address");
            addrs.push(a);
        }
        assert_eq!(db.len(), points.len());
        for (k, (a, p)) in addrs.iter().zip(&points).enumerate() {
            let rec = db.lookup(*a).expect("registered");
            assert_eq!(&rec.org, &format!("org{k}"));
            assert_eq!(rec.region, Region::of(p));
            assert_eq!(db.region_of_prefix(*a), Some(rec.region));
        }
    }
}
