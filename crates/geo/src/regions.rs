//! Region taxonomy.
//!
//! The paper partitions the US into Western (W), Middle (M), and Eastern (E)
//! regions for Table 1 and discusses intercontinental deployments (Europe /
//! Asia) in §4.1, so the taxonomy covers both.

use crate::coords::GeoPoint;
use std::fmt;

/// A coarse geographic region.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Region {
    /// Western US (roughly west of 110°W).
    UsWest,
    /// Middle US (roughly 110°W to 81.5°W — includes Chicago, Dallas,
    /// Kansas City, Columbus).
    UsMiddle,
    /// Eastern US (roughly east of 81.5°W — the seaboard from Miami up).
    UsEast,
    /// Western/Central Europe.
    Europe,
    /// East Asia.
    AsiaEast,
}

impl Region {
    /// All regions, in display order.
    pub const ALL: [Region; 5] = [
        Region::UsWest,
        Region::UsMiddle,
        Region::UsEast,
        Region::Europe,
        Region::AsiaEast,
    ];

    /// The three US regions used by Table 1, in the paper's row order.
    pub const US: [Region; 3] = [Region::UsWest, Region::UsMiddle, Region::UsEast];

    /// Classify a point into a region. US longitude bands follow the paper's
    /// W/M/E split; non-US points fall into the continental buckets by
    /// longitude.
    pub fn of(point: &GeoPoint) -> Region {
        let lon = point.lon_deg;
        let lat = point.lat_deg;
        if (24.0..=50.0).contains(&lat) && (-125.0..=-66.0).contains(&lon) {
            if lon < -110.0 {
                Region::UsWest
            } else if lon < -81.5 {
                Region::UsMiddle
            } else {
                Region::UsEast
            }
        } else if (-15.0..=45.0).contains(&lon) {
            Region::Europe
        } else if (95.0..=150.0).contains(&lon) {
            Region::AsiaEast
        } else if lon < -110.0 {
            Region::UsWest
        } else if lon < -81.5 {
            Region::UsMiddle
        } else {
            Region::UsEast
        }
    }

    /// The paper's single-letter abbreviation (W/M/E); continental regions
    /// get two letters.
    pub fn abbrev(&self) -> &'static str {
        match self {
            Region::UsWest => "W",
            Region::UsMiddle => "M",
            Region::UsEast => "E",
            Region::Europe => "EU",
            Region::AsiaEast => "AS",
        }
    }

    /// True for the three US regions.
    pub fn is_us(&self) -> bool {
        matches!(self, Region::UsWest | Region::UsMiddle | Region::UsEast)
    }
}

impl fmt::Display for Region {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            Region::UsWest => "Western US",
            Region::UsMiddle => "Middle US",
            Region::UsEast => "Eastern US",
            Region::Europe => "Europe",
            Region::AsiaEast => "East Asia",
        };
        write!(f, "{name}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classifies_us_cities() {
        assert_eq!(Region::of(&GeoPoint::new(37.77, -122.42)), Region::UsWest); // SF
        assert_eq!(Region::of(&GeoPoint::new(41.88, -87.63)), Region::UsMiddle); // Chicago
        assert_eq!(Region::of(&GeoPoint::new(40.71, -74.01)), Region::UsEast); // NYC
    }

    #[test]
    fn classifies_continental_cities() {
        assert_eq!(Region::of(&GeoPoint::new(48.85, 2.35)), Region::Europe); // Paris
        assert_eq!(Region::of(&GeoPoint::new(35.68, 139.69)), Region::AsiaEast);
        // Tokyo
    }

    #[test]
    fn dallas_is_middle() {
        assert_eq!(Region::of(&GeoPoint::new(32.78, -96.80)), Region::UsMiddle);
    }

    #[test]
    fn abbreviations_match_paper() {
        assert_eq!(Region::UsWest.abbrev(), "W");
        assert_eq!(Region::UsMiddle.abbrev(), "M");
        assert_eq!(Region::UsEast.abbrev(), "E");
    }

    #[test]
    fn us_predicate() {
        assert!(Region::UsWest.is_us());
        assert!(!Region::Europe.is_us());
        assert_eq!(Region::US.len(), 3);
    }
}
