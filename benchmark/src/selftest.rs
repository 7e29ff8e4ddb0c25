//! Self-tests of the benchmark at a tiny size: inputs are a pure function
//! of the seed, traced runs reproduce the untraced digests, result lines
//! carry exactly the metrics `BENCHMARK.json` declares, and the `failed`
//! numerator counts fabricated failures.

use crate::trace::run_traced;
use crate::workloads::*;
use crate::{run_untraced, RunResult};

fn tiny() -> Sizes {
    Sizes::tiny()
}

/// Metric names listed in one section of `BENCHMARK.json`.
fn declared(section: &str) -> Vec<String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
    let start = text
        .find(&format!("\"{section}\""))
        .expect("section present");
    let body = &text[start..];
    let end = body.find(']').expect("section is a list");
    body[..end]
        .split("\"name\"")
        .skip(1)
        .map(|rest| rest.split('"').nth(1).expect("quoted name").to_string())
        .collect()
}

fn assert_clean(kind: Kind, run: &RunResult) {
    assert!(
        run.problems.is_empty(),
        "{}: {:?}",
        kind.name(),
        run.problems
    );
    assert_eq!(run.failed, 0, "{}: failures", kind.name());
    assert!(run.attempted > 0);
}

#[test]
fn inputs_are_a_pure_function_of_the_seed() {
    let sizes = tiny();
    let render = |seed: u64| {
        let universe = tspu_registry::Universe::generate(seed);
        format!(
            "{:?}|{:?}|{:?}|{:?}",
            soak_config(seed, &sizes).profile,
            sweep_domains(&universe, seed, sizes.sweep_domains),
            differential_domains(&universe, seed, sizes.diff_domains),
            tomography_config(&universe, seed, &sizes),
        )
    };
    assert_eq!(render(11), render(11));
    assert_ne!(render(11), render(12));
}

#[test]
fn sweep_inputs_are_distinct_and_sized() {
    let universe = tspu_registry::Universe::generate(3);
    let domains = sweep_domains(&universe, 3, 30_000);
    let distinct: std::collections::HashSet<_> = domains.iter().collect();
    assert_eq!(domains.len(), 30_000);
    assert_eq!(distinct.len(), domains.len());
}

#[test]
fn untraced_runs_repeat_and_print_only_declared_metrics() {
    let end_to_end = declared("end_to_end");
    for kind in Kind::ALL {
        let run = run_untraced(kind, 5, 0.01, &tiny());
        assert_clean(kind, &run);
        let names: Vec<&str> = run.metrics.iter().map(|m| m.name.as_str()).collect();
        assert_eq!(names, end_to_end, "{}", kind.name());
        assert!(
            run.metrics
                .iter()
                .all(|m| m.value.is_finite() && m.value > 0.0),
            "{}",
            kind.name()
        );
    }
}

/// The per-layer records each workload prints beside the declared
/// per-layer metrics.
fn expected_records(kind: Kind) -> Vec<&'static str> {
    const POOL: [&str; 5] = [
        "measure.pool.busy_frac",
        "measure.pool.claim_us",
        "measure.pool.cell_us_p50",
        "measure.pool.cell_us_p99",
        "measure.pool.speedup_nproc",
    ];
    let mut names = match kind {
        Kind::Soak => vec![
            "core.device.ns_per_packet",
            "core.device.calls_per_packet",
            "load.apps.ns_per_call",
            "load.apps.calls_per_packet",
            "netsim.dispatch.ns_per_event",
            "netsim.scheduler.pending_peak",
            "load.driver.ns_per_event",
            "netsim.inbox.bytes_per_packet",
            "core.conntrack.peak_flows",
            "core.conntrack.gc_probes_per_packet",
            "core.conntrack.bytes_per_flow",
        ],
        Kind::RegistrySweep => {
            let mut v = vec![
                "measure.classify.us_per_cell",
                "core.device.packets_per_cell",
            ];
            v.extend(POOL);
            v
        }
        Kind::Differential => {
            let mut v = vec![
                "core.profile.us_per_cell.tspu",
                "core.profile.us_per_cell.turkmenistan",
                "core.profile.us_per_cell.india",
                "netsim.oracle.us_per_cell",
                "measure.merge.us_per_cell",
            ];
            v.extend(POOL);
            v
        }
        Kind::Tomography => vec![
            "core.device.packets_per_probe",
            "netsim.route_flip_ns",
            "netsim.interned_routes",
            "measure.tomography.probes_per_cell",
        ],
    };
    names.sort_unstable();
    names
}

#[test]
fn traced_runs_reproduce_the_untraced_digest_and_print_every_per_layer_metric() {
    let per_layer = declared("per_layer");
    for kind in Kind::ALL {
        let run = run_traced(kind, 5, 0.01, &tiny());
        assert_clean(kind, &run);
        assert!(
            run.digests.len() >= 2,
            "{}: nothing to compare",
            kind.name()
        );
        let names: Vec<&str> = run.metrics.iter().map(|m| m.name.as_str()).collect();
        assert_eq!(names, per_layer, "{}", kind.name());
        let mut records: Vec<&str> = run.records.iter().map(|m| m.name.as_str()).collect();
        records.sort_unstable();
        assert_eq!(records, expected_records(kind), "{}", kind.name());
        for metric in run.metrics.iter().chain(&run.records) {
            assert!(
                metric.value.is_finite(),
                "{}: {} = {}",
                kind.name(),
                metric.name,
                metric.value
            );
        }
    }
}

#[test]
fn failed_counts_fabricated_failures() {
    // Soak: an incomplete flow and an oracle mismatch each count once.
    let (prepared, _) = prepare(Kind::Soak, 5, &tiny());
    let Prepared::Soak { lab, total_flows } = &prepared else {
        unreachable!()
    };
    let mut facts = SoakFacts::from_report(&soak_run(lab));
    assert_eq!(facts.failed(*total_flows), 0);
    facts.flows_completed -= 1;
    facts.oracle_mismatches += 1;
    assert_eq!(facts.failed(*total_flows), 2);
    facts.gc_probes = u64::MAX;
    assert_eq!(
        facts.failed(*total_flows),
        *total_flows,
        "GC over budget fails every flow"
    );

    // Sweep: a verdict that disagrees with the policy's membership.
    let (prepared, _) = prepare(Kind::RegistrySweep, 5, &tiny());
    let Prepared::RegistrySweep {
        spec,
        expected,
        pool,
    } = &prepared
    else {
        unreachable!()
    };
    let mut verdicts = sweep_run(spec, pool, &tspu_measure::RunOpts::quick()).verdicts;
    assert_eq!(sweep_failed(&verdicts, expected), 0);
    verdicts[0] = match verdicts[0] {
        tspu_measure::domains::DomainVerdict::Open => tspu_measure::domains::DomainVerdict::Sni1,
        _ => tspu_measure::domains::DomainVerdict::Open,
    };
    assert_eq!(sweep_failed(&verdicts, expected), 1);

    // Differential: a cell with an oracle violation.
    let (prepared, _) = prepare(Kind::Differential, 5, &tiny());
    let Prepared::Differential { campaign, pool } = &prepared else {
        unreachable!()
    };
    let (mut matrix, _) = differential_run(campaign, pool, &differential_opts());
    assert_eq!(matrix_failed(&matrix, campaign.len()), 0);
    matrix.cells[0]
        .oracle_violations
        .push("fabricated".to_string());
    assert_eq!(matrix_failed(&matrix, campaign.len()), 1);

    // Tomography: a cell that did not name its censor.
    let (prepared, _) = prepare(Kind::Tomography, 5, &tiny());
    let Prepared::Tomography { spec, config, pool } = &prepared else {
        unreachable!()
    };
    let (mut run, _) = tomography_run(spec, pool, &tspu_measure::RunOpts::quick());
    assert_eq!(tomography_failed(&run, config.cells), 0);
    run.cells[0].named = false;
    assert_eq!(tomography_failed(&run, config.cells), 1);
}
