//! Reference outputs, frozen with the benchmark: the fig5/fig6/table
//! goldens as committed under `results/`, and the deterministic columns
//! of the incast and collectives runs as the `scaling` and `collectives`
//! bins printed them when the benchmark was defined.

use std::collections::HashMap;

pub const FIG5: &str = include_str!("../reference/fig5.csv");
pub const FIG6: &str = include_str!("../reference/fig6.csv");
pub const TABLE4: &str = include_str!("../reference/table4.txt");
pub const TABLE5: &str = include_str!("../reference/table5.txt");
const COLLECTIVES: &str = include_str!("../reference/collectives.csv");
const INCAST: &str = include_str!("../reference/incast.csv");

/// Golden sweep rows keyed like [`crate::workloads::Point::key`].
pub fn golden_rows() -> HashMap<String, String> {
    let mut rows = HashMap::new();
    for (fig, text, key_cells) in [("fig5", FIG5, 4), ("fig6", FIG6, 3)] {
        for line in text.lines().skip(1) {
            let key: Vec<&str> = line.split(',').take(key_cells).collect();
            rows.insert(format!("{fig}:{}", key.join(",")), line.to_string());
        }
    }
    rows
}

/// Rows in the full golden sweeps.
pub fn golden_len() -> usize {
    FIG5.lines().count() - 1 + FIG6.lines().count() - 1
}

/// `sim_ns_per_op,host_completions,events` of a collectives cell keyed
/// `ranks,op,topo,mode`; empty when the reference has no such cell.
pub fn collectives(key: &str) -> String {
    COLLECTIVES
        .lines()
        .skip(1)
        .find_map(|l| {
            let cells: Vec<&str> = l.split(',').collect();
            (cells[..4].join(",") == key).then(|| cells[4..].join(","))
        })
        .unwrap_or_default()
}

/// `(events, delivered)` of the 16-sender incast at `msgs` per sender.
pub fn incast(msgs: u32) -> (u64, u64) {
    INCAST
        .lines()
        .skip(1)
        .find_map(|l| {
            let c: Vec<u64> = l
                .split(',')
                .map(|x| x.parse().expect("numeric reference"))
                .collect();
            (c[1] == msgs as u64).then_some((c[3], c[4]))
        })
        .unwrap_or((0, 0))
}
