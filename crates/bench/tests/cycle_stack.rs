//! The Figure-7 cycle-stack contract: every cell's head-of-ROB stack sums
//! to its cycles, and the class differences against UnsafeBaseline sum
//! exactly (integers, no tolerance) to the cell's cycle delta.

use spt_bench::runner::{suite_matrix, SweepOptions};
use spt_core::ThreatModel;
use spt_workloads::{full_suite, Scale};

#[test]
fn stack_deltas_sum_exactly_to_cycle_deltas() {
    // One transmitter-heavy workload (mcf) and one branchy one (leela).
    let picked: Vec<_> = full_suite(Scale::Bench)
        .into_iter()
        .filter(|w| w.name == "mcf" || w.name == "leela")
        .collect();
    assert_eq!(picked.len(), 2, "probe workloads present in the suite");

    for threat in [ThreatModel::Spectre, ThreatModel::Futuristic] {
        let m = suite_matrix(threat, &picked, SweepOptions::new(2_000).jobs(2))
            .expect("sweep completes");
        let base = m.baseline_index();
        for (w, workload) in m.workloads.iter().enumerate() {
            let base_cycles = m.rows[w][base].cycles;
            assert_eq!(m.rows[w][base].cycle_stack.gated, 0, "{workload} [{threat}]: baseline");
            for (c, config) in m.configs.iter().enumerate() {
                let row = &m.rows[w][c];
                assert_eq!(row.cycle_stack.total(), row.cycles, "{workload} under {config}");
                let delta: i64 = m.stack_delta(w, c).iter().map(|&(_, d)| d).sum();
                assert_eq!(
                    delta,
                    row.cycles as i64 - base_cycles as i64,
                    "{workload} under {config} [{threat}]"
                );
            }
        }
        let mcf = m.workloads.iter().position(|w| w == "mcf").unwrap();
        let spt = m.config_index("SPT{Bwd,ShadowL1}").expect("Table 2 has SPT{Bwd,ShadowL1}");
        let held = m.rows[mcf][spt].cycle_stack.gated;
        assert!(held > 0, "mcf under SPT{{Bwd,ShadowL1}} [{threat}]: no gated cycles");
    }
}
