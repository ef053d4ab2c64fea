//! Table 1 — RTT between provider servers and the three test users.
//!
//! Methodology, as in §4.1: a test user in each US region (W / M / E)
//! TCP-pings every US server site of every provider. The simulated
//! topology is built from the geo substrate (per-path route inflation,
//! access overhead, provider server overhead), and probing runs over the
//! packet network — so the matrix is *measured*, not computed.

use crate::report::render_table;
use visionsim_core::par::{derive_seed, par_map};
use visionsim_core::stats::StreamingStats;
use visionsim_core::time::SimDuration;
use visionsim_geo::cities::{table1_test_users, City};
use visionsim_geo::propagation::LatencyModel;
use visionsim_geo::sites::{Provider, ServerSite, SiteRegistry};
use visionsim_net::link::LinkConfig;
use visionsim_net::network::Network;
use visionsim_net::probe::RttProber;

/// One measured matrix.
#[derive(Debug)]
pub struct Table1 {
    /// Column sites, in the paper's order (FaceTime W/M1/M2/E, Zoom W/E,
    /// Webex W/M/E, Teams W).
    pub sites: Vec<ServerSite>,
    /// Row users (W, M, E).
    pub users: Vec<City>,
    /// RTT statistics per (user, site), ms.
    pub rtts: Vec<Vec<StreamingStats>>,
}

/// Run the Table 1 measurement with `probes` pings per pair.
pub fn run(probes: usize, seed: u64) -> Table1 {
    let registry = SiteRegistry::us_fleet();
    let users = table1_test_users().to_vec();
    let sites: Vec<ServerSite> = Provider::ALL
        .iter()
        .flat_map(|&p| registry.for_provider(p))
        .collect();

    let latency = LatencyModel::default();
    // Each (user, site) pair probes over its own private two-node network
    // (the probe goes AP → site, as the paper probes from the APs), so
    // every pair is an independent cell with its own derived seed.
    let cells: Vec<(usize, usize)> = (0..users.len())
        .flat_map(|ui| (0..sites.len()).map(move |si| (ui, si)))
        .collect();
    let flat = par_map(cells, |(ui, si)| {
        let user = &users[ui];
        let site = &sites[si];
        let mut net = Network::new(derive_seed(seed, "table1", (ui * sites.len() + si) as u64));
        let un = net.add_node(user.name, "vantage", user.location);
        let sn = net.add_node(
            &format!("{} {}", site.provider, site.label),
            &format!("{}", site.provider),
            site.location(),
        );
        // One-way delay: propagation + half the access and server
        // overheads on each direction.
        let path = latency.path(
            &user.location,
            &site.location(),
            site.provider.server_overhead_ms(),
        );
        let one_way = SimDuration::from_millis_f64(path.base_rtt_ms / 2.0);
        let mut cfg = LinkConfig::core(one_way);
        // Access-path jitter: each direction adds U[0, 1.5] ms, giving
        // per-pair RTT spreads well inside the paper's σ < 7 ms.
        cfg.netem.jitter = SimDuration::from_millis_f64(1.5);
        net.add_duplex(un, sn, cfg);
        RttProber::default().probe_stats(&mut net, un, sn, probes, SimDuration::from_millis(200))
    });
    let mut flat = flat.into_iter();
    let rtts = (0..users.len())
        .map(|_| flat.by_ref().take(sites.len()).collect())
        .collect();
    Table1 { sites, users, rtts }
}

impl Table1 {
    /// The RTT mean for (user region row, site column), ms.
    pub fn mean_ms(&self, row: usize, col: usize) -> f64 {
        self.rtts[row][col].mean()
    }

    /// Largest standard deviation in the matrix (the paper: <7 ms).
    pub fn max_std(&self) -> f64 {
        self.rtts
            .iter()
            .flatten()
            .map(|s| s.std_dev())
            .fold(0.0, f64::max)
    }

    /// Column index of a provider site by (provider, label).
    pub fn col(&self, provider: Provider, label: &str) -> Option<usize> {
        self.sites
            .iter()
            .position(|s| s.provider == provider && s.label == label)
    }
}

impl std::fmt::Display for Table1 {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut header = vec!["Users".to_string()];
        header.extend(
            self.sites
                .iter()
                .map(|s| format!("{} {}", s.provider, s.label)),
        );
        let rows: Vec<Vec<String>> = self
            .users
            .iter()
            .enumerate()
            .map(|(ui, u)| {
                let mut row = vec![u.region().abbrev().to_string()];
                row.extend(self.rtts[ui].iter().map(|s| format!("{:.1}", s.mean())));
                row
            })
            .collect();
        write!(
            f,
            "{}",
            render_table(
                "Table 1: mean RTT (ms) between provider servers and test users",
                &header,
                &rows
            )
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matrix_has_paper_shape() {
        let t = run(5, 42);
        // 10 columns: FaceTime 4 + Zoom 2 + Webex 3 + Teams 1.
        assert_eq!(t.sites.len(), 10);
        assert_eq!(t.users.len(), 3);

        // Same-region diagonals are small (paper: 5.9–8.8 ms).
        let ft_w = t.col(Provider::FaceTime, "W").unwrap();
        let ft_e = t.col(Provider::FaceTime, "E").unwrap();
        assert!(t.mean_ms(0, ft_w) < 15.0, "W↔W {}", t.mean_ms(0, ft_w));
        assert!(t.mean_ms(2, ft_e) < 15.0, "E↔E {}", t.mean_ms(2, ft_e));

        // Cross-country entries are large (paper: ~71–79 ms).
        assert!(
            (45.0..100.0).contains(&t.mean_ms(0, ft_e)),
            "W user ↔ E site {}",
            t.mean_ms(0, ft_e)
        );
        assert!(
            (45.0..100.0).contains(&t.mean_ms(2, ft_w)),
            "E user ↔ W site {}",
            t.mean_ms(2, ft_w)
        );

        // Middle sits between.
        let ft_m1 = t.col(Provider::FaceTime, "M1").unwrap();
        let m_mid = t.mean_ms(1, ft_m1);
        assert!(m_mid < t.mean_ms(1, ft_e) + 10.0, "M↔M1 {m_mid}");
        assert!(m_mid < 20.0, "M↔M1 {m_mid}");

        // σ < 7 ms across the matrix.
        assert!(t.max_std() < 7.0, "σ {}", t.max_std());

        // Teams' single Western site is notably slower even for W users
        // (paper: 31 ms vs 8.8–14 for the others).
        let teams_w = t.col(Provider::Teams, "W").unwrap();
        assert!(
            t.mean_ms(0, teams_w) > t.mean_ms(0, ft_w) + 5.0,
            "Teams W {} vs FaceTime W {}",
            t.mean_ms(0, teams_w),
            t.mean_ms(0, ft_w)
        );
    }

    #[test]
    fn display_renders_all_rows() {
        let t = run(2, 1);
        let text = format!("{t}");
        assert!(text.contains("Table 1"));
        assert_eq!(text.lines().count(), 6); // title + header + rule + 3 rows
    }
}
