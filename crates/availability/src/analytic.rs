//! The paper's availability analysis (Section 5, Equations 1–3 and
//! Figure 12), solved exactly as a Markov chain over head states.
//!
//! * Eq. 1: `A_node = MTTF / (MTTF + MTTR)`
//! * Eq. 2: `A_service = 1 − (1 − A_node)^n` (parallel redundancy — valid
//!   for JOSHUA because failover is instantaneous: no additional
//!   system-wide MTTR is introduced)
//! * Eq. 3: `t_down = 8760 h · (1 − A_service)`
//!
//! [`unavailability`] gives Eq. 2 exactly when there are no rack outages,
//! and with them the correlated-failure floor the paper names as the
//! caveat to Eq. 2.

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
}

/// A correlated outage (rack or machine room) that takes every head down
/// at once, in hours.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RackFailure {
    /// Mean time between rack outages.
    pub mttf_hours: f64,
    /// Mean time to restore one head after a rack outage.
    pub mttr_hours: f64,
}

impl RackFailure {
    /// Experiment E3's correlated case: an outage every 50 000 h, 24 h to
    /// restore each head.
    pub fn e3() -> Self {
        RackFailure {
            mttf_hours: 50_000.0,
            mttr_hours: 24.0,
        }
    }
}

/// Steady-state probability that none of `n` heads is up.
///
/// The chain's state is (heads down from an ordinary failure, heads down
/// from a rack outage); the rest are up. An up head fails at 1/MTTF, an
/// ordinarily-down head is repaired at 1/MTTR, a rack-down head at
/// 1/rack MTTR, and a rack outage (1/rack MTTF) moves every head to
/// rack-down. Without rack outages this is the `n + 1`-state birth-death
/// chain whose answer is `(1 − A_node)^n`, Eq. 2.
pub fn unavailability(node: NodeReliability, n: u32, rack: Option<RackFailure>) -> f64 {
    // The states reachable from all-up, which is index 0.
    let max_rack_down = if rack.is_some() { n } else { 0 };
    let states: Vec<(u32, u32)> = (0..=max_rack_down)
        .flat_map(|r| (0..=n - r).map(move |d| (d, r)))
        .collect();
    let m = states.len();
    let mut rate = vec![vec![0.0; m]; m];
    for (i, &(d, r)) in states.iter().enumerate() {
        let up = n - d - r;
        let moves = [
            (up > 0).then(|| ((d + 1, r), f64::from(up) / node.mttf_hours)),
            (d > 0).then(|| ((d - 1, r), f64::from(d) / node.mttr_hours)),
            rack.filter(|_| r > 0)
                .map(|k| ((d, r - 1), f64::from(r) / k.mttr_hours)),
            rack.filter(|_| r < n).map(|k| ((0, n), 1.0 / k.mttf_hours)),
        ];
        for (to, x) in moves.into_iter().flatten() {
            if let Some(j) = states.iter().position(|&s| s == to) {
                rate[i][j] += x;
            }
        }
    }
    // Gaussian elimination without subtraction (Grassmann–Taksar–Heyman):
    // fold the last state's flows into the others. Nothing cancels, so a
    // probability as small as the 4-head Eq. 2 row (4e-8) keeps its
    // relative accuracy.
    for k in (1..m).rev() {
        let (rows, last) = rate.split_at_mut(k);
        let last = &last[0][..k];
        let out: f64 = last.iter().sum();
        for row in rows {
            let via = row[k] / out;
            for (x, y) in row.iter_mut().zip(last) {
                *x += via * y;
            }
        }
    }
    // Back-substitute each state's balance in the chain it was folded
    // from; no later fold touches its row or column.
    let mut pi = vec![1.0; m];
    for k in 1..m {
        let inflow: f64 = (0..k).map(|i| pi[i] * rate[i][k]).sum();
        pi[k] = inflow / rate[k][..k].iter().sum::<f64>();
    }
    let down: f64 = states
        .iter()
        .zip(&pi)
        .filter(|((d, r), _)| d + r == n)
        .map(|(_, p)| p)
        .sum();
    down / pi.iter().sum::<f64>()
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
    /// Service availability.
    pub availability: f64,
    /// Nines.
    pub nines: u32,
    /// Downtime per year, hours (Eq. 3).
    pub downtime_hours: f64,
}

impl AvailabilityRow {
    /// The row as printed: heads, availability in percent to `digits`
    /// places, nines, downtime per year.
    pub fn cells(&self, digits: usize) -> Vec<String> {
        vec![
            self.nodes.to_string(),
            format!("{:.digits$}%", self.availability * 100.0),
            self.nines.to_string(),
            format_downtime(self.downtime_hours),
        ]
    }
}

/// Compute the Figure 12 table for 1..=max_nodes head nodes.
pub fn figure12(
    node: NodeReliability,
    max_nodes: u32,
    rack: Option<RackFailure>,
) -> Vec<AvailabilityRow> {
    (1..=max_nodes)
        .map(|n| {
            let a = 1.0 - unavailability(node, n, rack);
            AvailabilityRow {
                nodes: n,
                availability: a,
                nines: nines(a),
                downtime_hours: downtime_hours_per_year(a),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn paper_node() -> NodeReliability {
        NodeReliability::paper()
    }

    /// Eq. 2's `(1 − A_node)^n`, with `1 − A_node` written as
    /// `MTTR / (MTTF + MTTR)` so no digits cancel.
    fn eq2_unavailability(node: NodeReliability, n: u32) -> f64 {
        (node.mttr_hours / (node.mttf_hours + node.mttr_hours)).powi(n as i32)
    }

    #[test]
    fn figure12_matches_paper_rows() {
        let rows = figure12(paper_node(), 4, None);
        // Eq. 1: 5000/5072 = 0.98580... → "98.6%" in the paper.
        assert!((rows[0].availability - 5000.0 / 5072.0).abs() < 1e-12);
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
        let rows = figure12(paper_node(), 4, None);
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
    fn one_head_with_rack_outages_is_the_three_state_closed_form() {
        // States up / down / rack-down with failure λ, repair μ, rack
        // outage γ and rack repair ρ: π_rack = γ / (γ + ρ) and
        // π_up = ρ (μ + γ) / ((γ + ρ)(λ + μ + γ)).
        let (node, rack) = (paper_node(), RackFailure::e3());
        let (l, mu) = (1.0 / node.mttf_hours, 1.0 / node.mttr_hours);
        let (g, rho) = (1.0 / rack.mttf_hours, 1.0 / rack.mttr_hours);
        let up = rho * (mu + g) / ((g + rho) * (l + mu + g));
        let chain = unavailability(node, 1, Some(rack));
        assert!(
            (chain - (1.0 - up)).abs() <= 1e-15,
            "{chain} vs {}",
            1.0 - up
        );
    }

    #[test]
    fn correlated_rows_are_pinned() {
        // Agrees with an exact rational solve of the same chain.
        let printed: Vec<Vec<String>> = figure12(paper_node(), 4, Some(RackFailure::e3()))
            .iter()
            .map(|row| row.cells(6))
            .collect();
        let expected = [
            ["1", "98.535157%", "1", "5d 8h 19min"],
            ["2", "99.955736%", "3", "3h 52min"],
            ["3", "99.983667%", "3", "1h 25min"],
            ["4", "99.987974%", "3", "1h 3min"],
        ];
        assert_eq!(printed, expected.map(|row| row.map(String::from)));
    }

    proptest! {
        #[test]
        fn chain_is_eq2_and_monotone(
            mttf in 10.0f64..1.0e6,
            mttr in 0.1f64..1.0e3,
            rack_mttf in 100.0f64..1.0e7,
            rack_mttr in 0.1f64..1.0e3,
        ) {
            let node = NodeReliability { mttf_hours: mttf, mttr_hours: mttr };
            let rack = Some(RackFailure { mttf_hours: rack_mttf, mttr_hours: rack_mttr });
            let mut last = (1.0, 1.0);
            for n in 1..=6 {
                let (free, with_rack) = (unavailability(node, n, None), unavailability(node, n, rack));
                let eq2 = eq2_unavailability(node, n);
                prop_assert!((free - eq2).abs() <= 1e-12 * eq2, "n={} chain {} vs Eq. 2 {}", n, free, eq2);
                prop_assert!(free <= last.0 * (1.0 + 1e-12), "n={} downtime rose: {} > {}", n, free, last.0);
                prop_assert!(with_rack <= last.1 * (1.0 + 1e-12), "n={} downtime rose: {} > {}", n, with_rack, last.1);
                // A rack outage also moves an ordinarily-down head to
                // rack-down, which speeds its repair when rack MTTR < MTTR;
                // only a slower rack repair is sure to cost downtime.
                if rack_mttr >= mttr {
                    prop_assert!(with_rack >= free * (1.0 - 1e-12), "n={} rack {} < free {}", n, with_rack, free);
                }
                last = (free, with_rack);
            }
        }
    }
}
