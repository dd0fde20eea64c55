//! The experiment harness: regenerates every table and figure of the
//! paper's evaluation.
//!
//! Each experiment lives in [`experiments`] as a function returning the
//! rendered rows/series and is registered in [`registry`] under a short
//! id. One driver runs them: `run_all` executes everything in paper
//! order (writing the combined report that `EXPERIMENTS.md` is checked
//! against), and `run_all --only <id>` prints a single experiment —
//! `run_all --list` names every id:
//!
//! | Id | Reproduces |
//! |---|---|
//! | `table1` | Table I — cooling-technology comparison |
//! | `table2` | Table II — dielectric fluid properties |
//! | `table3` | Table III — max turbo, air vs 2PIC |
//! | `table4` | Table IV — failure-mode dependencies |
//! | `table5` | Table V — lifetime projections |
//! | `table6` | Table VI — TCO deltas |
//! | `table7` | Table VII — CPU frequency configurations |
//! | `table8` | Table VIII — GPU configurations |
//! | `table9` | Table IX — application suite |
//! | `table11` | Table XI — full auto-scaler comparison |
//! | `fig4` | Figure 4 — operating domains |
//! | `fig5` | Figure 5 — frequency bands and packing |
//! | `fig6` | Figure 6 — static vs virtual buffers |
//! | `fig7` | Figure 7 — capacity-crisis bridging |
//! | `fig8` | Figure 8 — scale-up-then-out timelines |
//! | `fig9` | Figure 9 — per-app overclocking response |
//! | `fig10` | Figure 10 — STREAM bandwidth |
//! | `fig11` | Figure 11 — VGG training under GPU overclocking |
//! | `fig12` | Figure 12 — SQL P95 vs pcores |
//! | `fig13` | Figure 13 / Table X — mixed oversubscription |
//! | `fig14` | Figure 14 — ASC components and cadences |
//! | `fig15` | Figure 15 — Equation 1 validation trace |
//! | `fig16` | Figure 16 — policy utilization traces |
//! | `composed`, `composed_v2` | Composed control plane — ASC + capping + governor + failover |
//! | `fleet_scale` | Fleet-scale control plane — 100 / 1k / 10k power domains |
//! | `chaos` | Chaos — wear-coupled faults and graceful degradation |
//! | `ablation_interference` | Ablation — scale-out interference vs Table XI |
//! | `ablation_policies` | Ablation — reactive vs predictive vs overclocking policies |
//! | `ablation_lifetime` | Ablation — lifetime-model parameter sensitivity |
//! | `ablation_packing` | Ablation — placement policy × oversubscription |
//!
//! The other binaries are `check` (the kernel-benchmark gate) and
//! `dump_scenario` (the paper scenario as JSON).

pub mod check;
pub mod experiments;
pub mod registry;
pub mod report;

/// Formats a floating value with a fixed width for table output.
pub fn cell(value: f64, decimals: usize) -> String {
    format!("{value:.decimals$}")
}

/// Renders a header followed by aligned rows.
pub fn table(title: &str, header: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let mut out = format!("== {title} ==\n");
    let fmt_row = |cells: &[String], widths: &[usize]| {
        cells
            .iter()
            .zip(widths)
            .map(|(c, w)| format!("{c:>w$}"))
            .collect::<Vec<_>>()
            .join("  ")
    };
    let header_cells: Vec<String> = header.iter().map(|s| s.to_string()).collect();
    out.push_str(&fmt_row(&header_cells, &widths));
    out.push('\n');
    out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1)));
    out.push('\n');
    for row in rows {
        out.push_str(&fmt_row(row, &widths));
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_aligns_columns() {
        let out = table(
            "demo",
            &["name", "value"],
            &[
                vec!["a".into(), "1.00".into()],
                vec!["longer".into(), "2.50".into()],
            ],
        );
        assert!(out.contains("== demo =="));
        assert!(out.contains("longer"));
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 5);
    }

    #[test]
    fn cell_formats() {
        assert_eq!(cell(1.2345, 2), "1.23");
        assert_eq!(cell(10.0, 0), "10");
    }
}
