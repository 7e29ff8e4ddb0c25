//! What observing a campaign adds: an observed registry sweep returns
//! the same verdicts as a quick one plus a snapshot that really holds the
//! scenarios' metrics and spans, and a quick run carries neither snapshot
//! nor report. Byte-identity across thread counts is pinned for every
//! driver in `campaign_determinism.rs`.

use tspu_measure::{RunOpts, ScanPool, SweepSpec};
use tspu_registry::Universe;

fn campaign_spec() -> SweepSpec {
    let universe = Universe::generate(3);
    let mut domains: Vec<String> = ["twitter.com", "meduza.io", "play.google.com", "nordvpn.com", "wikipedia.org"]
        .into_iter()
        .map(String::from)
        .collect();
    // Enough unlisted scenarios that 8 workers genuinely shard the sweep.
    for i in 0..59 {
        domains.push(format!("site-{i}.example"));
    }
    SweepSpec::from_universe(&universe, domains)
}

#[test]
fn observed_run_matches_plain_run_and_actually_observes() {
    let spec = campaign_spec();
    let observed = spec.run(&ScanPool::new(4), &RunOpts::observed());
    assert_eq!(observed.verdicts, spec.run(&ScanPool::new(4), &RunOpts::quick()).verdicts);
    assert_eq!(observed.report.expect("report requested").total_items(), spec.len());
    let snapshot = observed.snapshot.expect("observed run");

    if tspu_obs::ENABLED {
        assert_eq!(snapshot.counter("sweep.scenarios"), spec.len() as u64);
        let hist = snapshot.histogram("sweep.scenario_us").expect("scenario_us recorded");
        assert_eq!(hist.count(), spec.len() as u64);
        assert!(!snapshot.spans().is_empty(), "tracing was on; spans expected");
        // Every scenario contributed device metrics under its own scope.
        assert!(snapshot.counter("device.ertelecom-sym.packets_seen") > 0);
    } else {
        assert!(snapshot.metrics().is_empty());
        assert!(snapshot.spans().is_empty());
    }
}

#[test]
fn quick_run_carries_no_snapshot_or_report() {
    let spec = campaign_spec();
    let quick = spec.run(&ScanPool::new(2), &RunOpts::quick());
    assert!(quick.snapshot.is_none());
    assert!(quick.report.is_none());
}
