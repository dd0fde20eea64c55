//! Cross-validation of the two queueing substrates: the analytic
//! M/G/k approximations (used by Figure 12) against the client-server
//! simulation (used by the auto-scaler experiments), under both sampler
//! streams. Where both can express the same system, they must agree.
//!
//! Only the one-VM case is a plain M/G/k queue: behind the round-robin
//! balancer each of n VMs sees every n-th Poisson arrival, an Erlang-n
//! renewal stream.

use immersion_cloud::sim::rng::StreamVersion;
use immersion_cloud::sim::stats::Tally;
use immersion_cloud::sim::SimTime;
use immersion_cloud::workloads::mgk::ClientServerSim;
use immersion_cloud::workloads::queueing::MgkQueue;

const STREAMS: [StreamVersion; 2] = [StreamVersion::V1, StreamVersion::V2];

/// Runs the simulation as a plain M/G/k queue (one VM with k vcores)
/// and returns (mean sojourn, p95 sojourn).
fn simulate(
    k: u32,
    lambda: f64,
    service_mean: f64,
    scv: f64,
    seed: u64,
    version: StreamVersion,
) -> (f64, f64) {
    let mut sim = ClientServerSim::with_stream_version(seed, service_mean, scv, k, 0.0, version);
    sim.add_vm();
    sim.set_qps(lambda);
    // Warm up, then measure.
    sim.advance_to(SimTime::from_secs(60));
    sim.take_completions();
    sim.advance_to(SimTime::from_secs(60 + 600));
    let mut tally: Tally = sim.take_completions().into_iter().map(|(_, l)| l).collect();
    (tally.mean(), tally.percentile(0.95))
}

#[test]
fn mean_sojourn_matches_analytic_at_moderate_load() {
    for version in STREAMS {
        for (k, lambda) in [(4u32, 900.0f64), (8, 1800.0), (16, 3600.0)] {
            let service = 0.0028;
            let scv = 1.5;
            let analytic = MgkQueue::new(k, lambda, service, scv).mean_sojourn();
            let (sim_mean, _) = simulate(k, lambda, service, scv, 42, version);
            let err = (sim_mean - analytic).abs() / analytic;
            // Allen–Cunneen is an approximation; 10 % agreement at ρ = 0.63
            // validates both sides.
            assert!(
                err < 0.10,
                "{version:?} k={k} λ={lambda}: sim {sim_mean:.5} vs analytic {analytic:.5} ({:.1}% off)",
                err * 100.0
            );
        }
    }
}

#[test]
fn p95_sojourn_matches_analytic_within_tail_tolerance() {
    let (k, lambda, service, scv) = (8u32, 2000.0, 0.0028, 1.5);
    let analytic = MgkQueue::new(k, lambda, service, scv).sojourn_quantile(0.95);
    for version in STREAMS {
        let (_, sim_p95) = simulate(k, lambda, service, scv, 7, version);
        let err = (sim_p95 - analytic).abs() / analytic;
        assert!(
            err < 0.20,
            "{version:?}: sim P95 {sim_p95:.5} vs analytic {analytic:.5} ({:.1}% off)",
            err * 100.0
        );
    }
}

#[test]
fn exponential_service_matches_mm_k_theory() {
    // SCV = 1 reduces Allen–Cunneen to exact M/M/k; the simulation must
    // agree tightly.
    let (k, lambda, service) = (4u32, 1000.0, 0.0028);
    let analytic = MgkQueue::new(k, lambda, service, 1.0).mean_sojourn();
    for version in STREAMS {
        let (sim_mean, _) = simulate(k, lambda, service, 1.0, 11, version);
        let err = (sim_mean - analytic).abs() / analytic;
        assert!(
            err < 0.08,
            "{version:?}: sim {sim_mean:.5} vs exact {analytic:.5}"
        );
    }
}

#[test]
fn both_substrates_agree_on_the_overclocking_benefit() {
    // Speeding service by 1.206× must shrink the P95 by a similar factor
    // in both worlds.
    let (k, lambda, service, scv) = (8u32, 2200.0, 0.0028, 1.5);
    let ratio = 4.1 / 3.4;

    let analytic_base = MgkQueue::new(k, lambda, service, scv).sojourn_quantile(0.95);
    let analytic_oc = MgkQueue::new(k, lambda, service / ratio, scv).sojourn_quantile(0.95);
    let analytic_gain = 1.0 - analytic_oc / analytic_base;

    for version in STREAMS {
        let (_, sim_base) = simulate(k, lambda, service, scv, 13, version);
        let mut sim_oc_run =
            ClientServerSim::with_stream_version(13, service, scv, k, 0.0, version);
        let vm = sim_oc_run.add_vm();
        sim_oc_run.set_freq_ratio(vm, ratio);
        sim_oc_run.set_qps(lambda);
        sim_oc_run.advance_to(SimTime::from_secs(60));
        sim_oc_run.take_completions();
        sim_oc_run.advance_to(SimTime::from_secs(660));
        let mut tally: Tally = sim_oc_run
            .take_completions()
            .into_iter()
            .map(|(_, l)| l)
            .collect();
        let sim_oc = tally.percentile(0.95);

        let sim_gain = 1.0 - sim_oc / sim_base;
        assert!(
            (analytic_gain - sim_gain).abs() < 0.08,
            "{version:?}: analytic gain {analytic_gain:.3} vs sim gain {sim_gain:.3}"
        );
        assert!(
            sim_gain > 0.10,
            "{version:?}: overclocking should visibly cut the tail"
        );
    }
}
