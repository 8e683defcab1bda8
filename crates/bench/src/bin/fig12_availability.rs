//! E3 — Figure 12: availability / downtime comparison of single vs.
//! multiple head nodes (MTTF = 5000 h, MTTR = 72 h), analytic (the
//! paper's Equations 1–3) cross-checked by Monte Carlo simulation, plus
//! the correlated-failure extension the paper flags as a caveat.

use jrs_availability::{figure12, format_downtime, monte_carlo, McConfig, NodeReliability};
use jrs_bench::report;

fn main() {
    let node = NodeReliability::paper();
    println!(
        "E3 / Figure 12 — availability/downtime (MTTF={}h, MTTR={}h)",
        node.mttf_hours, node.mttr_hours
    );
    println!();

    let paper = ["5d 4h 21min", "1h 45min", "1min 30s", "1s"];
    let mut rows = Vec::new();
    for (row, paper_dt) in figure12(node, 4).iter().zip(paper) {
        // Monte Carlo cross-check (longer spans for the rarer outages).
        let mut mc_cfg = McConfig::paper(row.nodes);
        mc_cfg.span_hours = match row.nodes {
            1 => 100.0 * 8760.0,
            2 => 400.0 * 8760.0,
            _ => 2000.0 * 8760.0,
        };
        mc_cfg.trials = 8;
        let mc = monte_carlo(&mc_cfg);
        rows.push(vec![
            row.nodes.to_string(),
            format!("{:.8}%", row.availability * 100.0),
            row.nines.to_string(),
            format_downtime(row.downtime_hours),
            paper_dt.to_string(),
            format!("{}", format_downtime(mc.downtime_hours_per_year)),
        ]);
    }
    report::table(
        &[
            "#",
            "Availability",
            "Nines",
            "Downtime/Year",
            "Paper",
            "MonteCarlo",
        ],
        &rows,
    );

    println!();
    println!("Correlated-failure extension (rack outage MTTF=50000h, MTTR=24h):");
    println!("(the paper's caveat: location-dependent failures cap the benefit)");
    println!();
    let mut rows = Vec::new();
    for n in 1..=4u32 {
        let mut cfg = McConfig::paper(n);
        cfg.correlated_mttf_hours = 50_000.0;
        cfg.correlated_mttr_hours = 24.0;
        cfg.span_hours = 500.0 * 8760.0;
        cfg.trials = 8;
        let mc = monte_carlo(&cfg);
        rows.push(vec![
            n.to_string(),
            format!("{:.6}%", mc.availability * 100.0),
            format_downtime(mc.downtime_hours_per_year),
        ]);
    }
    report::table(&["#", "Availability (MC)", "Downtime/Year"], &rows);
}
