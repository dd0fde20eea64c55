//! Fidelity: at seed 42 and the registry's shapes, the benchmark's own
//! composition code reproduces the `composed_v2` and `table11` records
//! of `run_all --json` (modulo `wall_ms`), through the windowed, traced
//! and one-shot paths alike. This pins the workloads to the real
//! program. Run with `cargo test --release`.

use ic_bench::registry::{run_one, Mode};
use ic_bench::report::{ExperimentRecord, Metric};
use ic_par::ParPool;
use ic_scenario::Scenario;
use ic_sim::rng::StreamVersion;
use perfbench::compose::{composed_record, registry_composed_spec, table11_record, RecordMetric};
use perfbench::run::{fleet_one_shot, fleet_rep, table11_one_shot, table11_rep, Checks};

fn registry_record(id: &str) -> ExperimentRecord {
    run_one(id, &Scenario::paper(), Mode::Full).expect("experiment is registered")
}

fn as_metrics(metrics: Vec<RecordMetric>) -> Vec<Metric> {
    metrics
        .into_iter()
        .map(|m| Metric {
            name: m.name,
            unit: m.unit,
            paper: m.paper,
            measured: m.measured,
        })
        .collect()
}

fn assert_matches(record: &ExperimentRecord, (sim_events, metrics): (u64, Vec<RecordMetric>)) {
    assert_eq!(record.sim_events, sim_events, "{} sim_events", record.id);
    assert_eq!(record.metrics, as_metrics(metrics), "{} metrics", record.id);
}

#[test]
fn composition_reproduces_the_composed_v2_record() {
    let record = registry_record("composed_v2");
    let spec = registry_composed_spec(42, StreamVersion::V2);
    let one_shot = fleet_one_shot(&spec);
    assert_matches(&record, composed_record(&one_shot));

    let mut checks = Checks::default();
    for traced in [false, true] {
        let (rep, windowed) = fleet_rep(&spec, traced, &mut checks);
        assert_eq!(windowed, one_shot, "traced={traced}");
        assert_eq!(rep.windows_s.len(), 30, "900 s in 30 s windows");
    }
    assert!(checks.attempted > 0);
    assert_eq!(checks.failed, 0, "{:?}", checks.notes);
}

#[test]
fn composition_reproduces_the_table11_record() {
    let record = registry_record("table11");
    assert_matches(&record, table11_record(&table11_one_shot(42)));

    let mut checks = Checks::default();
    for (workers, traced) in [(1, false), (2, true)] {
        let (_, runs) = table11_rep(ParPool::with_workers(workers), 42, traced, &mut checks);
        assert_matches(&record, table11_record(&runs));
    }
    assert_eq!(checks.failed, 0, "{:?}", checks.notes);
}
