//! The campaign determinism contract, once for every driver on the
//! fork-per-cell runner: a campaign's results, merged snapshot (JSON,
//! Chrome trace, OpenMetrics) and time series are byte-identical at 1, 2
//! and 8 scan-pool workers, and observing a run does not change its
//! results. Every cell is a pure function of its index, spans carry
//! virtual timestamps and cell indices, and the runner merges in index
//! order, so worker assignment cannot leak in.
//!
//! CI runs this file at `TSPU_THREADS=1 --test-threads=1` and
//! `TSPU_THREADS=8 --test-threads=8`, on top of the pool sizes here.

use std::fmt::Debug;

use tspu_core::PolicyHandle;
use tspu_measure::domains::{DomainCampaign, DomainVerdict};
use tspu_measure::sweep::registry_campaign;
use tspu_measure::{
    ChaosSweep, ChurnCampaign, DifferentialCampaign, LocalizeSpec, RunOpts, ScanPool, SweepSpec,
    TomographyConfig,
};
use tspu_obs::{Snapshot, TimeSeries};
use tspu_registry::Universe;
use tspu_topology::{policy_from_universe, GenParams, TopologySpec, VantageLab};

/// What one campaign run exposes to the comparison.
struct Run<T> {
    /// The campaign's results, compared through their `Debug` rendering.
    value: T,
    /// The merged campaign snapshot, when the driver produced one.
    snapshot: Option<Snapshot>,
    /// The campaign's time series, when the driver keeps one.
    series: Option<TimeSeries>,
}

impl<T> Run<T> {
    fn new(value: T, snapshot: Option<Snapshot>) -> Run<T> {
        Run { value, snapshot, series: None }
    }

    fn with_series(mut self, series: TimeSeries) -> Run<T> {
        self.series = Some(series);
        self
    }
}

/// Every byte the comparison covers, one rendering per export.
fn exports<T: Debug>(run: &Run<T>) -> Vec<(&'static str, String)> {
    let mut out = vec![("results", format!("{:?}", run.value))];
    if let Some(snapshot) = &run.snapshot {
        out.push(("snapshot debug", format!("{snapshot:?}")));
        out.push(("snapshot JSON", snapshot.to_json()));
        out.push(("Chrome trace", snapshot.chrome_trace_string()));
        out.push(("OpenMetrics", snapshot.to_openmetrics()));
    }
    if let Some(series) = &run.series {
        out.push(("series JSON", series.to_json()));
        out.push(("series OpenMetrics", series.to_openmetrics()));
    }
    out
}

/// The one helper: runs `campaign` observed on 1, 2 and 8 workers and
/// quick on 8, and asserts every export agrees byte-for-byte. Returns the
/// single-worker run for the row's own assertions.
fn assert_thread_count_independent<T: Debug>(
    name: &str,
    campaign: impl Fn(&ScanPool, &RunOpts) -> Run<T>,
) -> Run<T> {
    let one = campaign(&ScanPool::new(1), &RunOpts::observed());
    let baseline = exports(&one);
    for threads in [2, 8] {
        let parallel = exports(&campaign(&ScanPool::new(threads), &RunOpts::observed()));
        assert_eq!(
            parallel.iter().map(|(what, _)| *what).collect::<Vec<_>>(),
            baseline.iter().map(|(what, _)| *what).collect::<Vec<_>>(),
            "{name}: {threads} workers exported a different set of outputs"
        );
        for ((what, expected), (_, actual)) in baseline.iter().zip(&parallel) {
            assert_eq!(actual, expected, "{name}: {what} diverges at {threads} workers");
        }
    }
    let quick = campaign(&ScanPool::new(8), &RunOpts::quick());
    assert_eq!(
        format!("{:?}", quick.value),
        baseline[0].1,
        "{name}: observing the run changed its results"
    );
    if let Some(snapshot) = &one.snapshot {
        let om = snapshot.to_openmetrics();
        assert!(om.ends_with("# EOF\n"), "{name}: exposition must terminate: {om}");
    }
    one
}

fn policy() -> PolicyHandle {
    policy_from_universe(&Universe::generate(2022), false, true)
}

/// 40 registry-sample domains plus the paper's anchors: enough scenarios
/// that 8 workers genuinely shard the sweep.
fn sweep_domains(universe: &Universe) -> Vec<String> {
    ["meduza.io", "play.google.com", "wikipedia.org", "twitter.com", "nordvpn.com"]
        .map(String::from)
        .into_iter()
        .chain(universe.registry_sample.iter().take(40).map(|d| d.name.clone()))
        .collect()
}

#[test]
fn simulation_stack_is_send() {
    fn assert_send<T: Send>() {}
    assert_send::<tspu_netsim::Network>();
    assert_send::<VantageLab>();
    assert_send::<tspu_topology::Vantage>();
    assert_send::<PolicyHandle>();
    assert_send::<ScanPool>();
    assert_send::<SweepSpec>();
}

#[test]
fn fig1_sweep() {
    let universe = Universe::generate(2022);
    let spec = SweepSpec::from_universe(&universe, sweep_domains(&universe));
    let one = assert_thread_count_independent("Fig. 1 sweep", |pool, opts| {
        let run = spec.run(pool, opts);
        Run::new(run.verdicts, run.snapshot)
    });
    assert!(one.value.iter().any(|v| *v != DomainVerdict::Open), "sweep found no blocking");
    let snapshot = one.snapshot.expect("observed run");
    if tspu_obs::ENABLED {
        assert!(snapshot.to_openmetrics().contains("# TYPE "));
        assert!(!snapshot.spans().is_empty(), "every scenario traced; spans expected");
    }
}

#[test]
fn registry_campaign_aggregation() {
    let universe = Universe::generate(2022);
    let names: Vec<&str> =
        universe.registry_sample.iter().take(30).map(|d| d.name.as_str()).collect();
    // `isp_blocked` holds `HashSet`s whose debug order is seeded per
    // instance; canonicalize to sorted lists before the byte comparison.
    let canonical = |campaign: &DomainCampaign| {
        let isp: std::collections::BTreeMap<&String, Vec<&String>> = campaign
            .isp_blocked
            .iter()
            .map(|(isp, set)| {
                let mut sorted: Vec<&String> = set.iter().collect();
                sorted.sort();
                (isp, sorted)
            })
            .collect();
        format!("{:?}\n{isp:?}", campaign.tspu)
    };
    // The §6 aggregation runs quick whatever the options say.
    assert_thread_count_independent("registry campaign", |pool, _| {
        Run::new(canonical(&registry_campaign(&universe, names.iter().copied(), pool)), None)
    });
}

#[test]
fn generated_sweep() {
    let universe = Universe::generate(2022);
    let spec = SweepSpec::from_universe(&universe, sweep_domains(&universe))
        .with_topology(TopologySpec::Generated(GenParams::new(2022, 300)));
    let one = assert_thread_count_independent("generated sweep", |pool, opts| {
        let run = spec.run(pool, opts);
        Run::new(run.verdicts, run.snapshot)
    });
    // Anchor verdicts: generated clients see the same central policy the
    // Fig. 1 vantages do.
    assert_eq!(one.value[0], DomainVerdict::Sni1, "meduza.io");
    assert_eq!(one.value[1], DomainVerdict::Sni2, "play.google.com");
    assert_eq!(one.value[2], DomainVerdict::Open, "wikipedia.org");
}

/// Runs one TTL technique from every Fig. 1 vantage; the walks' merged
/// snapshots stand for the row's snapshot.
fn ttl_walks(
    name: &str,
    spec: impl Fn(&str) -> LocalizeSpec,
) -> Run<Vec<Vec<tspu_measure::LocalizedDevice>>> {
    assert_thread_count_independent(name, |pool, opts| {
        let mut snapshot: Option<Snapshot> = None;
        let devices = ["Rostelecom", "ER-Telecom", "OBIT"]
            .iter()
            .map(|vantage| {
                let run = spec(vantage).run(pool, opts);
                if let Some(walk) = &run.snapshot {
                    snapshot.get_or_insert_with(Snapshot::new).merge(walk);
                }
                run.devices
            })
            .collect();
        Run::new(devices, snapshot)
    })
}

#[test]
fn symmetric_ttl_walk() {
    let policy = policy();
    let one = ttl_walks("symmetric TTL walk", |vantage| {
        LocalizeSpec::symmetric(policy.clone(), vantage).port_base(55_000)
    });
    assert!(one.value.iter().all(|found| found.len() == 1), "{:?}", one.value);
}

#[test]
fn upstream_ttl_walk() {
    let policy = policy();
    let one = ttl_walks("upstream TTL walk", |vantage| {
        LocalizeSpec::upstream(policy.clone(), vantage)
    });
    // Rostelecom and OBIT carry an upstream-only device; ER-Telecom none.
    assert_eq!(one.value.iter().map(Vec::len).collect::<Vec<_>>(), vec![1, 0, 1]);
}

#[test]
fn tomography() {
    let config = TomographyConfig::new(GenParams::new(13, 140)).cells(4);
    let spec = LocalizeSpec::tomography(policy(), config);
    let one = assert_thread_count_independent("tomography", |pool, opts| {
        let run = spec.run(pool, opts);
        let tomography = run.tomography.expect("tomography technique");
        let series = tomography.series.clone();
        Run::new(tomography, run.snapshot).with_series(series)
    });
    assert_eq!(one.value.cells.len(), 4);
    if tspu_obs::ENABLED {
        assert_eq!(one.snapshot.expect("observed run").counter("tomography.cells"), 4);
    }
}

#[test]
fn differential() {
    let universe = Universe::generate(3);
    let mut domains: Vec<String> = ["meduza.io", "twitter.com", "nordvpn.com", "rust-lang.org"]
        .into_iter()
        .map(String::from)
        .collect();
    // Enough unlisted domains that 8 workers genuinely shard the matrix.
    domains.extend((0..16).map(|i| format!("site-{i}.example")));
    let campaign =
        DifferentialCampaign::three_country(policy_from_universe(&universe, false, true), domains);
    // The matrix's `Debug` covers its cells, profiles and domains, so its
    // rendered table is compared too; its snapshot is compared as one.
    let one = assert_thread_count_independent("differential", |pool, opts| {
        let (mut matrix, _) = campaign.run(pool, opts);
        let (snapshot, series) = (matrix.snapshot.take(), matrix.series.clone());
        Run::new(matrix, snapshot).with_series(series)
    });
    assert!(one.value.oracle_clean(), "{:?}", one.value.oracle_violations());
}

fn chaos_grid() -> ChaosSweep {
    let universe = Universe::generate(3);
    let policy = policy_from_universe(&universe, false, true);
    ChaosSweep::table1_grid(policy, vec![11, 22, 33, 44, 55, 66, 77], 4)
}

#[test]
fn chaos_sweep() {
    let sweep = chaos_grid();
    assert!(sweep.len() >= 100, "grid too small: {}", sweep.len());
    let one = assert_thread_count_independent("chaos sweep", |pool, opts| {
        let run = sweep.run(pool, opts);
        Run::new(run.results, run.snapshot)
    });
    assert_eq!(one.value.len(), sweep.len());
    for cell in &one.value {
        assert!(
            cell.oracle_violations.is_empty(),
            "{} {:?} seed {}: {:?}",
            cell.vantage,
            cell.mechanism,
            cell.seed,
            cell.oracle_violations
        );
    }
    // The plan is not a no-op: chaos actually interfered somewhere.
    assert!(one.value.iter().any(|c| c.chaos_dropped > 0), "no chaos link ever dropped a packet");
}

/// An observed chaos sweep merges its cells' lab metrics like every other
/// campaign instead of dropping `observe` on the floor.
#[test]
fn observed_chaos_sweep_merges_device_metrics() {
    let sweep = ChaosSweep { seeds: vec![11], ..chaos_grid() };
    let run = sweep.run(&ScanPool::new(2), &RunOpts::observed());
    let snapshot = run.snapshot.expect("an observed chaos sweep merges a snapshot");
    if tspu_obs::ENABLED {
        assert!(snapshot.counter("device.ertelecom-sym.packets_seen") > 0);
        assert!(!snapshot.spans().is_empty(), "every cell traced; spans expected");
    }
    assert!(sweep.run(&ScanPool::new(2), &RunOpts::quick()).snapshot.is_none());
}

#[test]
fn churn_campaign() {
    let universe = Universe::generate(7);
    let mut campaign = ChurnCampaign::escalation_2022();
    // Ten escalation days make enough cells for 8 workers to genuinely
    // shard the replay.
    campaign.churn.end_day = campaign.churn.start_day + 10;
    // Churn keeps its always-on policy snapshot whatever the options say.
    let one = assert_thread_count_independent("churn campaign", |pool, _| {
        let report = campaign.run(&universe, pool);
        let (snapshot, series) = (report.snapshot.clone(), report.series.clone());
        Run::new(report, Some(snapshot)).with_series(series)
    });
    assert!(!one.value.convergence_curve().is_empty());
}
