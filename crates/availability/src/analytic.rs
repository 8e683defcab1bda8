//! The paper's availability analysis (Section 5, Equations 1–3 and
//! Figure 12).
//!
//! * Eq. 1: `A_node = MTTF / (MTTF + MTTR)`
//! * Eq. 2: `A_service = 1 − (1 − A_node)^n` (parallel redundancy — valid
//!   for JOSHUA because failover is instantaneous: no additional
//!   system-wide MTTR is introduced)
//! * Eq. 3: `t_down = 8760 h · (1 − A_service)`

use std::fmt;

/// Hours in a (non-leap) year, as used by Eq. 3.
pub const HOURS_PER_YEAR: f64 = 8760.0;

/// A node's failure/repair characteristics, in hours.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct NodeReliability {
    /// Mean time to failure.
    pub mttf_hours: f64,
    /// Mean time to restore.
    pub mttr_hours: f64,
}

impl NodeReliability {
    /// The paper's working values: MTTF = 5000 h, MTTR = 72 h.
    pub fn paper() -> Self {
        NodeReliability {
            mttf_hours: 5000.0,
            mttr_hours: 72.0,
        }
    }

    /// Eq. 1 — steady-state availability of a single node.
    pub(crate) fn availability(&self) -> f64 {
        self.mttf_hours / (self.mttf_hours + self.mttr_hours)
    }
}

/// Eq. 2 — availability of `n` redundant nodes in parallel (service up
/// while at least one is up).
pub fn parallel_availability(node: NodeReliability, n: u32) -> f64 {
    1.0 - (1.0 - node.availability()).powi(n as i32)
}

/// Eq. 3 — expected downtime per year (hours) for a service availability.
pub fn downtime_hours_per_year(availability: f64) -> f64 {
    HOURS_PER_YEAR * (1.0 - availability)
}

/// The "number of nines" of an availability (floor of −log10(1−A)).
pub fn nines(availability: f64) -> u32 {
    if availability >= 1.0 {
        return u32::MAX;
    }
    // Epsilon guards floating-point artifacts (1 - 0.99 is slightly
    // above 0.01, which would otherwise lose a nine).
    ((-((1.0 - availability).log10())) + 1e-9).floor().max(0.0) as u32
}

/// Render a downtime (hours/year) like the paper ("5d 4h 21min", "1s").
pub fn format_downtime(hours: f64) -> String {
    let secs = hours * 3600.0;
    if secs < 1.5 {
        return format!("{secs:.0}s");
    }
    let total = secs.round() as u64;
    let days = total / 86_400;
    let h = (total % 86_400) / 3600;
    let m = (total % 3600) / 60;
    let s = total % 60;
    let mut parts = Vec::new();
    if days > 0 {
        parts.push(format!("{days}d"));
    }
    if h > 0 {
        parts.push(format!("{h}h"));
    }
    if m > 0 {
        parts.push(format!("{m}min"));
    }
    if parts.is_empty() || (days == 0 && h == 0 && m < 5 && s > 0) {
        parts.push(format!("{s}s"));
    }
    parts.join(" ")
}

/// One row of the Figure 12 table.
#[derive(Clone, Debug)]
pub struct AvailabilityRow {
    /// Head-node count.
    pub nodes: u32,
    /// Service availability (Eq. 2).
    pub availability: f64,
    /// Nines.
    pub nines: u32,
    /// Downtime per year, hours (Eq. 3).
    pub downtime_hours: f64,
}

impl fmt::Display for AvailabilityRow {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} node(s): A={:.8} ({} nines), downtime/year = {}",
            self.nodes,
            self.availability,
            self.nines,
            format_downtime(self.downtime_hours)
        )
    }
}

/// Compute the Figure 12 table for 1..=max_nodes head nodes.
pub fn figure12(node: NodeReliability, max_nodes: u32) -> Vec<AvailabilityRow> {
    (1..=max_nodes)
        .map(|n| {
            let a = parallel_availability(node, n);
            AvailabilityRow {
                nodes: n,
                availability: a,
                nines: nines(a),
                downtime_hours: downtime_hours_per_year(a),
            }
        })
        .collect()
}

/// Availability of an **active/standby** system with failover time
/// `failover_hours`: each node failure of the primary adds a failover
/// interruption even though a standby exists. Approximation:
/// unavailability ≈ P(both down) + failure_rate_of_primary × failover.
/// Used by the HA-model comparison (E6), not by the paper's Figure 12.
pub fn active_standby_availability(node: NodeReliability, failover_hours: f64) -> f64 {
    let both_down = (1.0 - node.availability()).powi(2);
    // Primary fails once per MTTF+MTTR cycle; each costs a failover.
    let failover_frac = failover_hours / (node.mttf_hours + node.mttr_hours);
    (1.0 - both_down - failover_frac).clamp(0.0, 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn paper_node() -> NodeReliability {
        NodeReliability::paper()
    }

    #[test]
    fn eq1_single_node_availability() {
        // 5000/5072 = 0.98580... → "98.6%" in the paper.
        let a = paper_node().availability();
        assert!((a - 0.985804).abs() < 1e-5, "{a}");
    }

    #[test]
    fn figure12_matches_paper_rows() {
        let rows = figure12(paper_node(), 4);
        // Paper: 98.6% / 99.98% / 99.9997% / 99.999996%
        assert!((rows[0].availability - 0.9858).abs() < 1e-3);
        assert!((rows[1].availability - 0.9998).abs() < 1e-4);
        assert!((rows[2].availability - 0.999997).abs() < 1e-6);
        assert!((rows[3].availability - 0.99999996).abs() < 2e-8);
        // Paper nines column: 1, 3, 5, 7.
        let nines: Vec<u32> = rows.iter().map(|r| r.nines).collect();
        assert_eq!(nines, vec![1, 3, 5, 7]);
    }

    #[test]
    fn figure12_downtimes_match_paper() {
        let rows = figure12(paper_node(), 4);
        // Paper: 5d 4h 21min; 1h 45min; 1min 30s; 1s.
        let d0 = rows[0].downtime_hours;
        assert!((d0 - 124.36).abs() < 0.5, "{d0}"); // ≈ 5d 4.4h
        let d1 = rows[1].downtime_hours * 60.0; // minutes
        assert!((d1 - 105.7).abs() < 2.0, "{d1}");
        let d2 = rows[2].downtime_hours * 3600.0; // seconds
        assert!((d2 - 90.0).abs() < 5.0, "{d2}");
        let d3 = rows[3].downtime_hours * 3600.0;
        assert!((d3 - 1.3).abs() < 0.3, "{d3}");
    }

    #[test]
    fn downtime_formatting() {
        assert_eq!(format_downtime(124.35), "5d 4h 21min");
        let s = format_downtime(1.75);
        assert!(s.starts_with("1h 45min"), "{s}");
        assert_eq!(format_downtime(0.025), "1min 30s");
        assert_eq!(format_downtime(1.3 / 3600.0), "1s");
    }

    #[test]
    fn nines_boundaries() {
        assert_eq!(nines(0.9), 1);
        assert_eq!(nines(0.99), 2);
        assert_eq!(nines(0.999), 3);
        assert_eq!(nines(0.9858), 1);
        assert_eq!(nines(1.0), u32::MAX);
    }

    #[test]
    fn parallel_availability_monotone_in_n() {
        let node = paper_node();
        let mut last = 0.0;
        for n in 1..=6 {
            let a = parallel_availability(node, n);
            assert!(a > last);
            last = a;
        }
        assert!(last < 1.0);
    }

    #[test]
    fn active_standby_worse_than_symmetric_two_nodes() {
        let node = paper_node();
        let sym = parallel_availability(node, 2);
        let asb = active_standby_availability(node, 0.001); // 3.6 s failover
        assert!(asb < sym, "failover interruptions must cost availability");
        // But still far better than a single node.
        assert!(asb > node.availability());
    }
}
