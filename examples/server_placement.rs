//! Server infrastructure study (Table 1 + the §4.1 proposed fix): measure
//! RTT from the three regional test users to every provider site, then
//! quantify what geo-distributed serving would buy an intercontinental
//! session.
//!
//! ```sh
//! cargo run --release --example server_placement
//! ```

use visionsim::experiments::{ablations, table1};

fn main() {
    println!("Probing every provider site from the W / M / E test users");
    println!("(TCP-ping analogue over the simulated network, 10 probes/pair)...\n");
    let table = table1::run(10, 2024);
    println!("{table}");
    println!(
        "max σ across the matrix: {:.2} ms (paper: <7 ms)\n",
        table.max_std()
    );

    println!("Why a single initiator-near server hurts (§4.1):");
    println!("an Eastern-US initiator pins SF/Frankfurt/Tokyo participants to a");
    println!("US-East server. The paper's proposed fix attaches each client to");
    println!("its nearest site over a private backbone:\n");
    let placement = ablations::placement();
    println!(
        "  nearest-to-initiator : worst client→server RTT = {:>6.1} ms",
        placement.initiator_worst_rtt_ms
    );
    println!(
        "  geo-distributed      : worst client→server RTT = {:>6.1} ms",
        placement.geo_worst_rtt_ms
    );
    println!(
        "  improvement          : {:.1}x",
        placement.initiator_worst_rtt_ms / placement.geo_worst_rtt_ms
    );
}
