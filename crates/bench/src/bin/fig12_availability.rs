//! E3 — Figure 12: availability / downtime comparison of single vs.
//! multiple head nodes (MTTF = 5000 h, MTTR = 72 h) from the exact
//! Markov chain of `jrs_availability`: without rack outages it is the
//! paper's Equations 1–3, with them the correlated-failure extension the
//! paper flags as a caveat.

use jrs_availability::{figure12, NodeReliability, RackFailure};
use jrs_bench::report;

fn main() {
    let node = NodeReliability::paper();
    println!(
        "E3 / Figure 12 — availability/downtime (MTTF={}h, MTTR={}h)",
        node.mttf_hours, node.mttr_hours
    );
    println!();

    let paper = ["5d 4h 21min", "1h 45min", "1min 30s", "1s"];
    let rows: Vec<Vec<String>> = figure12(node, 4, None)
        .iter()
        .zip(paper)
        .map(|(row, paper_dt)| [row.cells(8), vec![paper_dt.to_string()]].concat())
        .collect();
    report::table(
        &["#", "Availability", "Nines", "Downtime/Year", "Paper"],
        &rows,
    );

    println!();
    let rack = RackFailure::e3();
    println!(
        "Correlated-failure extension (rack outage MTTF={}h, MTTR={}h):",
        rack.mttf_hours, rack.mttr_hours
    );
    println!("(the paper's caveat: location-dependent failures cap the benefit)");
    println!();
    let rows: Vec<Vec<String>> = figure12(node, 4, Some(rack))
        .iter()
        .map(|row| row.cells(6))
        .collect();
    report::table(&["#", "Availability", "Nines", "Downtime/Year"], &rows);
}
