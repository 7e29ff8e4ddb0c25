//! The traced run: splits each workload's wall time across the layers by
//! timing calls into public functions from the benchmark's own files.
//!
//! Nothing here changes the program. The soak is re-assembled from the
//! public parts `build_lab` uses, with a [`Middlebox`] decorator around the
//! TSPU device and an [`Application`] decorator around every endpoint app;
//! the registry sweep's cells are composed from `LabImage::fork` and
//! `test_domain`, the calls `SweepSpec::run` makes. Both must reproduce the
//! untraced digest, which is what shows they serve the same traffic. The
//! differential and tomography campaigns are driven through their public
//! `run` with option pairs (oracle on/off, observe on/off, one profile at
//! a time, 1 thread vs the pool) and split by difference.
//!
//! Decorators time a fixed 1-in-[`SAMPLE_EVERY`] of calls and count every
//! call, so counts are exact and the timing overhead stays small.
//!
//! Every workload reports the same declared per-layer metrics ([`Common`]);
//! the rows only some workloads can measure are printed as records.

use std::net::Ipv4Addr;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use tspu_core::{CensorProfile, Policy, PolicyHandle, TspuDevice};
use tspu_load::gen::{build_schedule, LoadClientApp, LoadServerApp, LoadStats};
use tspu_load::SoakConfig;
use tspu_measure::domains::{test_domain, DomainVerdict};
use tspu_measure::sweep::scenario_port;
use tspu_measure::{DifferentialCampaign, LocalizeSpec, PoolReport, RunOpts, ScanPool, SweepSpec};
use tspu_netsim::{
    Application, Direction, HostId, Middlebox, MiddleboxHandle, Network, Output, Route, RouteStep,
    Time, Verdict,
};
use tspu_obs::{MetricValue, Snapshot};
use tspu_registry::Universe;
use tspu_topology::{policy_from_universe, LabImage, TopologySpec, VantageLab};
use tspu_wire::tls::{extract_sni, ClientHelloBuilder};

use crate::report::{median, Better, Digest, Metric};
use crate::workloads::{
    differential_domains, differential_opts, differential_run, expected_verdict, input_sizes,
    matrix_digest, matrix_failed, prepare, soak_config, sweep_digest, sweep_domains, sweep_failed,
    sweep_run, tomography_config, tomography_digest, tomography_failed, tomography_probes,
    tomography_run, Kind, Prepared, Sizes, SoakFacts,
};
use crate::RunResult;

/// Decorators time one call in this many.
const SAMPLE_EVERY: u64 = 16;

/// Runs `kind` traced and returns its per-layer metrics.
pub fn run_traced(kind: Kind, seed: u64, seconds: f64, sizes: &Sizes) -> RunResult {
    match kind {
        Kind::Soak => soak(seed, seconds, sizes),
        Kind::RegistrySweep => registry_sweep(seed, sizes),
        Kind::Differential => differential(seed, sizes),
        Kind::Tomography => tomography(seed, sizes),
    }
}

/// Per-layer metric builders: every per-layer metric is reported with
/// its unit and direction; `samples` says how many calls or runs back it.
fn ns(name: &str, value: f64, samples: usize) -> Metric {
    Metric::new(name, value, "ns", Better::Lower, samples)
}
fn us(name: &str, value: f64, samples: usize) -> Metric {
    Metric::new(name, value, "us", Better::Lower, samples)
}
fn ms(name: &str, value: f64) -> Metric {
    Metric::new(name, value, "ms", Better::Lower, 1)
}
fn count(name: &str, value: f64, samples: usize) -> Metric {
    Metric::new(name, value, "count", Better::Lower, samples)
}
fn ratio(name: &str, value: f64, better: Better, samples: usize) -> Metric {
    Metric::new(name, value, "ratio", better, samples)
}

fn elapsed_ms(started: Instant) -> f64 {
    started.elapsed().as_secs_f64() * 1e3
}

/// Compares every digest with the first and names the ones that differ.
fn digest_problems(digests: &[(String, Digest)]) -> Vec<String> {
    let Some((first_label, first)) = digests.first() else {
        return vec!["no digest recorded".to_string()];
    };
    digests
        .iter()
        .filter(|(_, d)| d != first)
        .map(|(label, _)| format!("{label} did not reproduce the digest of {first_label}"))
        .collect()
}

/// The per-layer metrics every workload reports, in the order
/// `BENCHMARK.json` declares them. A workload's other per-layer figures
/// are records beside them. Pairs hold a value and its sample count.
struct Common {
    universe_ms: f64,
    compile_ms: f64,
    image_ms: f64,
    fork_us: (f64, usize),
    /// From [`wire_metrics`] over the workload's own domains.
    wire: Vec<Metric>,
    events_per_item: (f64, usize),
    residual: (f64, usize),
    overhead: (f64, usize),
}

impl Common {
    fn metrics(self) -> Vec<Metric> {
        let mut metrics = vec![
            ms("registry.universe_ms", self.universe_ms),
            ms("core.policy.compile_ms", self.compile_ms),
            ms("topology.image_ms", self.image_ms),
            us("topology.fork.us_per_cell", self.fork_us.0, self.fork_us.1),
        ];
        metrics.extend(self.wire);
        metrics.extend([
            count(
                "netsim.events_per_item",
                self.events_per_item.0,
                self.events_per_item.1,
            ),
            ratio(
                "residual_frac",
                self.residual.0,
                Better::Lower,
                self.residual.1,
            ),
            ratio(
                "trace_overhead_frac",
                self.overhead.0,
                Better::Lower,
                self.overhead.1,
            ),
        ]);
        metrics
    }
}

// ---------------------------------------------------------------------------
// Decorators.

/// Wall-time tally of sampled calls plus an exact call count.
#[derive(Debug, Default, Clone, Copy)]
struct Tally {
    calls: u64,
    sampled: u64,
    sampled_ns: u64,
}

impl Tally {
    /// Calls `f`, timing it when this call falls on the sampling period.
    #[inline]
    fn call<R>(&mut self, f: impl FnOnce() -> R) -> R {
        self.calls += 1;
        if !self.calls.is_multiple_of(SAMPLE_EVERY) {
            return f();
        }
        let started = Instant::now();
        let out = f();
        self.sampled_ns += started.elapsed().as_nanos() as u64;
        self.sampled += 1;
        out
    }

    fn add(&mut self, other: Tally) {
        self.calls += other.calls;
        self.sampled += other.sampled;
        self.sampled_ns += other.sampled_ns;
    }

    fn mean_ns(&self) -> f64 {
        self.sampled_ns as f64 / self.sampled.max(1) as f64
    }

    /// Estimated wall nanoseconds of all calls.
    fn total_ns(&self) -> f64 {
        self.mean_ns() * self.calls as f64
    }
}

/// The TSPU device behind a timing decorator.
struct TimedDevice {
    inner: TspuDevice,
    tally: Tally,
}

impl Middlebox for TimedDevice {
    fn process(&mut self, now: Time, direction: Direction, packet: &mut Vec<u8>) -> Verdict {
        let inner = &mut self.inner;
        self.tally.call(|| inner.process(now, direction, packet))
    }

    fn label(&self) -> String {
        self.inner.label()
    }
}

/// An endpoint app behind a timing decorator. Each app keeps its own
/// tally and folds it into the shared one when the network drops it.
struct TimedApp<A: Application> {
    inner: A,
    tally: Tally,
    shared: Arc<Mutex<Tally>>,
}

impl<A: Application> Application for TimedApp<A> {
    fn on_packet(&mut self, now: Time, packet: &[u8]) -> Vec<Output> {
        let inner = &mut self.inner;
        self.tally.call(|| inner.on_packet(now, packet))
    }

    fn on_timer(&mut self, now: Time) -> Vec<Output> {
        let inner = &mut self.inner;
        self.tally.call(|| inner.on_timer(now))
    }
}

impl<A: Application> Drop for TimedApp<A> {
    fn drop(&mut self) {
        if let Ok(mut shared) = self.shared.lock() {
            shared.add(self.tally);
        }
    }
}

// ---------------------------------------------------------------------------
// Soak.

/// The soak re-assembled from `build_lab`'s public parts, decorated.
struct TracedSoak {
    net: Network,
    device: MiddleboxHandle<TimedDevice>,
    hosts: Vec<HostId>,
    stats: Arc<Mutex<LoadStats>>,
    apps: Arc<Mutex<Tally>>,
    total_flows: u64,
    domains: Vec<Arc<str>>,
    policy: PolicyHandle,
    universe_ms: f64,
    compile_ms: f64,
    image_ms: f64,
}

/// Builds the soak exactly as `build_lab` + `SoakLab::fork` do — same
/// universe order, policy, device, host and route layout, schedules and
/// apps — with the device and apps decorated.
fn assemble_soak(config: &SoakConfig) -> TracedSoak {
    let profile = &config.profile;
    let started = Instant::now();
    let universe = Universe::generate(profile.seed);
    let universe_ms = elapsed_ms(started);

    let domains: Vec<Arc<str>> = universe
        .tranco
        .iter()
        .chain(universe.registry_sample.iter())
        .map(|d| d.name.clone())
        .chain((0..profile.universe_domains).map(|i| format!("filler-{i}.example.ru")))
        .take(profile.universe_domains)
        .map(|name| Arc::from(name.as_str()))
        .collect();

    let started = Instant::now();
    let mut policy = Policy::permissive();
    for d in &universe.blocks.sni_rst {
        policy.sni_rst.insert(d.clone());
    }
    let blocked: Vec<bool> = domains.iter().map(|d| policy.sni_rst.matches(d)).collect();
    let handle = PolicyHandle::new(policy);
    let compile_ms = elapsed_ms(started);

    let started = Instant::now();
    let device =
        TspuDevice::reliable("tspu-load", handle.clone()).with_flow_capacity(config.flow_capacity);
    let mut net = Network::with_default_latency();
    let device = net.install_middlebox(TimedDevice {
        inner: device,
        tally: Tally::default(),
    });
    let server_addr = Ipv4Addr::new(93, 184, 216, 34);
    let server = net.add_host(server_addr);
    let route = Route {
        steps: vec![
            RouteStep::router(Ipv4Addr::new(10, 255, 0, 1)),
            RouteStep::with_device(
                Ipv4Addr::new(185, 140, 30, 77),
                device.id(),
                Direction::LocalToRemote,
            ),
            RouteStep::router(Ipv4Addr::new(192, 0, 2, 1)),
        ],
    };
    let mut clients = Vec::with_capacity(profile.clients);
    for i in 0..profile.clients {
        let addr = Ipv4Addr::new(10, 77, (i / 250) as u8, (i % 250 + 1) as u8);
        let host = net.add_host(addr);
        net.set_route_symmetric(host, server, route.clone());
        clients.push((host, addr));
    }
    let image_ms = elapsed_ms(started);

    let schedules = build_schedule(profile, &domains, &blocked);
    let total_flows = schedules
        .iter()
        .map(|c| c.open.len() + c.closed.len())
        .sum::<usize>() as u64;

    let stats: Arc<Mutex<LoadStats>> = Arc::default();
    let apps: Arc<Mutex<Tally>> = Arc::default();
    net.set_app(
        server,
        Box::new(TimedApp {
            inner: LoadServerApp::new(server_addr, profile.response_bytes, Arc::clone(&stats)),
            tally: Tally::default(),
            shared: Arc::clone(&apps),
        }),
    );
    for (i, &(host, addr)) in clients.iter().enumerate() {
        let app = LoadClientApp::new(
            addr,
            server_addr,
            443,
            schedules[i].clone(),
            profile.closed_loop_window,
            Arc::clone(&stats),
        );
        net.set_app(
            host,
            Box::new(TimedApp {
                inner: app,
                tally: Tally::default(),
                shared: Arc::clone(&apps),
            }),
        );
        net.arm_timer(host, Duration::ZERO);
    }
    let mut hosts: Vec<HostId> = clients.iter().map(|&(h, _)| h).collect();
    hosts.push(server);
    TracedSoak {
        net,
        device,
        hosts,
        stats,
        apps,
        total_flows,
        domains,
        policy: handle,
        universe_ms,
        compile_ms,
        image_ms,
    }
}

/// What one traced soak drive measured.
struct SoakTrace {
    facts: SoakFacts,
    wall_ns: f64,
    run_for_ns: f64,
    driver_ns: f64,
    device: Tally,
    apps: Tally,
    pending_peak: usize,
    inbox_bytes: u64,
    conntrack_bytes: usize,
}

/// Drives the assembled soak with `SoakLab::run`'s slice loop: run a
/// slice, drain the inboxes, read the stats and the flow table; stop when
/// every flow completed or the deadline passed; drain the stragglers.
fn drive_soak(mut soak: TracedSoak, config: &SoakConfig) -> SoakTrace {
    let deadline = Time::ZERO + config.profile.span + Duration::from_secs(120);
    let (mut run_for_ns, mut driver_ns) = (0u64, 0u64);
    let (mut peak_tracked, mut pending_peak, mut inbox_bytes) = (0usize, 0usize, 0u64);
    let drain = |net: &mut Network| -> u64 {
        soak.hosts
            .iter()
            .flat_map(|&h| net.take_inbox(h))
            .map(|(_, packet)| packet.len() as u64)
            .sum()
    };
    let started = Instant::now();
    loop {
        let slice_started = Instant::now();
        soak.net.run_for(config.slice);
        run_for_ns += slice_started.elapsed().as_nanos() as u64;

        let driver_started = Instant::now();
        inbox_bytes += drain(&mut soak.net);
        let tracked = soak.net.middlebox(soak.device).inner.conntrack().len();
        peak_tracked = peak_tracked.max(tracked);
        pending_peak = pending_peak.max(soak.net.pending_events());
        let completed = soak.stats.lock().expect("stats lock").flows_completed;
        driver_ns += driver_started.elapsed().as_nanos() as u64;
        if completed >= soak.total_flows || soak.net.now() >= deadline {
            break;
        }
    }
    let idle_started = Instant::now();
    soak.net.run_until_idle();
    run_for_ns += idle_started.elapsed().as_nanos() as u64;
    let driver_started = Instant::now();
    inbox_bytes += drain(&mut soak.net);
    driver_ns += driver_started.elapsed().as_nanos() as u64;
    let wall_ns = started.elapsed().as_nanos() as f64;

    let mb = soak.net.middlebox(soak.device);
    let conntrack = mb.inner.conntrack();
    let (gc_probes, conntrack_bytes, device) = (
        conntrack.gc_probes(),
        conntrack.memory_bytes_estimate(),
        mb.tally,
    );
    let events = soak.net.events_popped();
    let stats = soak.stats.lock().expect("stats lock").clone();
    // Dropping the network drops the apps, which fold their tallies in.
    drop(soak.net);
    let apps = *soak.apps.lock().expect("app tally lock");
    SoakTrace {
        facts: SoakFacts::from_stats(&stats, events, peak_tracked, gc_probes),
        wall_ns,
        run_for_ns: run_for_ns as f64,
        driver_ns: driver_ns as f64,
        device,
        apps,
        pending_peak,
        inbox_bytes,
        conntrack_bytes,
    }
}

fn soak(seed: u64, seconds: f64, sizes: &Sizes) -> RunResult {
    let config = soak_config(seed, sizes);
    let (prepared, _) = prepare(Kind::Soak, seed, sizes);
    let (mut digests, mut untraced_pps) = (Vec::new(), Vec::new());
    let (mut attempted, mut failed) = (0u64, 0u64);
    let budget = Instant::now();
    // Untraced reference runs through the adapter after one warm-up, then
    // traced drives, each taking about half the time budget (at least two
    // and one).
    let mut warm = false;
    while untraced_pps.len() < 2 || budget.elapsed().as_secs_f64() < seconds / 2.0 {
        let outcome = prepared.run();
        if warm {
            untraced_pps.push(outcome.items as f64 / outcome.wall_s);
        }
        warm = true;
        attempted += outcome.attempted;
        failed += outcome.failed;
        digests.push((format!("untraced{}", digests.len()), outcome.digest));
    }
    // Forks of the soak's lab image, each with fresh apps attached.
    const FORKS: usize = 5;
    let Prepared::Soak { lab, .. } = &prepared else {
        unreachable!("prepared as a soak")
    };
    let started = Instant::now();
    for _ in 0..FORKS {
        std::hint::black_box(lab.fork());
    }
    let fork_us = started.elapsed().as_nanos() as f64 / 1e3 / FORKS as f64;
    drop(prepared);

    let mut traces = Vec::new();
    let (mut universe_ms, mut compile_ms, mut image_ms) = (Vec::new(), Vec::new(), Vec::new());
    let mut wire = Vec::new();
    while traces.is_empty() || budget.elapsed().as_secs_f64() < seconds {
        let soak = assemble_soak(&config);
        let total_flows = soak.total_flows;
        universe_ms.push(soak.universe_ms);
        compile_ms.push(soak.compile_ms);
        image_ms.push(soak.image_ms);
        if wire.is_empty() {
            wire = wire_metrics(&soak.domains, &soak.policy);
        }
        let trace = drive_soak(soak, &config);
        attempted += total_flows;
        failed += trace.facts.failed(total_flows);
        digests.push((format!("traced{}", traces.len()), trace.facts.digest()));
        traces.push(trace);
    }

    // Per-layer figures from the median traced drive (by wall time).
    traces.sort_by(|a, b| a.wall_ns.total_cmp(&b.wall_ns));
    let t = &traces[traces.len() / 2];
    let packets = t.facts.device_packets.max(1) as f64;
    let events = t.facts.events.max(1) as f64;
    let dispatch_ns = t.run_for_ns - t.device.total_ns() - t.apps.total_ns();
    let traced_pps = packets / (t.wall_ns / 1e9);
    let n = traces.len();
    let metrics = Common {
        universe_ms: median(&universe_ms),
        compile_ms: median(&compile_ms),
        image_ms: median(&image_ms),
        fork_us: (fork_us, FORKS),
        wire,
        events_per_item: (events / packets, n),
        residual: ((t.wall_ns - t.run_for_ns - t.driver_ns) / t.wall_ns, n),
        overhead: (1.0 - traced_pps / median(&untraced_pps), n),
    }
    .metrics();
    let records = vec![
        ns(
            "core.device.ns_per_packet",
            t.device.total_ns() / packets,
            t.device.sampled as usize,
        ),
        count(
            "core.device.calls_per_packet",
            t.device.calls as f64 / packets,
            t.device.calls as usize,
        ),
        ns(
            "load.apps.ns_per_call",
            t.apps.mean_ns(),
            t.apps.sampled as usize,
        ),
        count(
            "load.apps.calls_per_packet",
            t.apps.calls as f64 / packets,
            t.apps.calls as usize,
        ),
        ns("netsim.dispatch.ns_per_event", dispatch_ns / events, n),
        count("netsim.scheduler.pending_peak", t.pending_peak as f64, n),
        ns("load.driver.ns_per_event", t.driver_ns / events, n),
        Metric::new(
            "netsim.inbox.bytes_per_packet",
            t.inbox_bytes as f64 / packets,
            "B",
            Better::Lower,
            n,
        ),
        count(
            "core.conntrack.peak_flows",
            t.facts.peak_tracked_flows as f64,
            n,
        ),
        count(
            "core.conntrack.gc_probes_per_packet",
            t.facts.gc_probes as f64 / packets,
            n,
        ),
        Metric::new(
            "core.conntrack.bytes_per_flow",
            t.conntrack_bytes as f64 / t.facts.peak_tracked_flows.max(1) as f64,
            "B",
            Better::Lower,
            n,
        ),
    ];
    let problems = digest_problems(&digests);
    RunResult {
        metrics,
        records,
        sizes: input_sizes(Kind::Soak, sizes),
        attempted,
        failed,
        digests,
        problems,
    }
}

// ---------------------------------------------------------------------------
// Shared campaign helpers.

/// Worker time a pool run spent, plus the serial time around the pool
/// (image build before it, reassembly and merge after it): the campaign's
/// cost in thread-seconds, comparable across thread counts.
fn campaign_cost_ns(wall_ns: f64, report: &PoolReport) -> f64 {
    let busy: u64 = report.workers.iter().map(|w| w.busy_ns).sum();
    busy as f64 + (wall_ns - report.wall_ns as f64).max(0.0)
}

/// Pool metrics from one reported run, plus the speedup of the pool over
/// a single thread on the same campaign.
fn pool_metrics(report: &PoolReport, speedup: f64) -> Vec<Metric> {
    let busy: u64 = report.workers.iter().map(|w| w.busy_ns).sum();
    let alive: u64 = report.workers.iter().map(|w| w.alive_ns).sum();
    let claim: u64 = report.workers.iter().map(|w| w.claim_ns).sum();
    let chunks: usize = report.workers.iter().map(|w| w.chunks).sum();
    let cells = report.scenario_wall_ns.count() as usize;
    vec![
        ratio(
            "measure.pool.busy_frac",
            busy as f64 / alive.max(1) as f64,
            Better::Higher,
            report.workers.len(),
        ),
        us(
            "measure.pool.claim_us",
            claim as f64 / 1e3 / chunks.max(1) as f64,
            chunks,
        ),
        us(
            "measure.pool.cell_us_p50",
            report.scenario_wall_ns.quantile_lower(0.50) as f64 / 1e3,
            cells,
        ),
        us(
            "measure.pool.cell_us_p99",
            report.scenario_wall_ns.quantile_lower(0.99) as f64 / 1e3,
            cells,
        ),
        ratio("measure.pool.speedup_nproc", speedup, Better::Higher, 2),
    ]
}

/// Nanoseconds per call of `f` over `items`, each passed through
/// `black_box` so the work cannot be elided.
fn ns_per<T, R>(items: &[T], mut f: impl FnMut(&T) -> R) -> f64 {
    let started = Instant::now();
    for item in items {
        std::hint::black_box(f(std::hint::black_box(item)));
    }
    started.elapsed().as_nanos() as f64 / items.len().max(1) as f64
}

/// Wire and policy micro-timings over the workload's own domains.
fn wire_metrics<D: AsRef<str>>(domains: &[D], policy: &PolicyHandle) -> Vec<Metric> {
    const MAX_DOMAINS: usize = 20_000;
    let domains = &domains[..domains.len().min(MAX_DOMAINS)];
    let build_ns = ns_per(domains, |d| ClientHelloBuilder::new(d.as_ref()).build());
    let hellos: Vec<Vec<u8>> = domains
        .iter()
        .map(|d| ClientHelloBuilder::new(d.as_ref()).build())
        .collect();
    let parse_ns = ns_per(&hellos, |h| extract_sni(h));
    let guard = policy.read();
    let match_ns = ns_per(domains, |d| guard.sni_rst.matches(d.as_ref()));
    let n = domains.len();
    vec![
        ns("wire.clienthello_build_ns", build_ns, n),
        ns("wire.sni_parse_ns", parse_ns, n),
        ns("core.policy.match_ns", match_ns, n),
    ]
}

// ---------------------------------------------------------------------------
// Registry sweep.

/// Packets the TSPU devices behind `snapshots` saw (their
/// `device.<label>.packets_seen` counters).
fn packets_seen<'a>(snapshots: impl IntoIterator<Item = &'a Snapshot>) -> u64 {
    snapshots
        .into_iter()
        .flat_map(|snap| snap.metrics().iter())
        .filter_map(|(name, value)| match value {
            MetricValue::Counter(n) if name.ends_with(".packets_seen") => Some(*n),
            _ => None,
        })
        .sum()
}

/// Composed sweep cells read device snapshots on one cell in this many.
const SNAPSHOT_EVERY: usize = 64;

/// What one composed sweep cell measured.
struct CellTrace {
    verdict: DomainVerdict,
    /// The fork and the drop of the forked lab.
    fork_ns: u64,
    classify_ns: u64,
    counters_ns: u64,
    events: u64,
    /// Packets the lab's devices saw, read on sampled cells only.
    device_packets: Option<u64>,
}

/// Mean device packets over the cells that read them.
fn mean_sampled_packets(cells: &[CellTrace]) -> f64 {
    let read: Vec<u64> = cells.iter().filter_map(|c| c.device_packets).collect();
    read.iter().sum::<u64>() as f64 / read.len().max(1) as f64
}

fn registry_sweep(seed: u64, sizes: &Sizes) -> RunResult {
    let started = Instant::now();
    let universe = Universe::generate(seed);
    let universe_ms = elapsed_ms(started);
    let domains = sweep_domains(&universe, seed, sizes.sweep_domains);
    let started = Instant::now();
    let spec = SweepSpec::from_universe(&universe, domains);
    let compile_ms = elapsed_ms(started);
    let expected: Vec<_> = spec
        .domains
        .iter()
        .map(|d| expected_verdict(&spec.policy, d))
        .collect();
    let pool = ScanPool::new(sizes.threads);
    let cells = spec.len() as u64;
    let mut digests = Vec::new();
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut check = |label: &str, verdicts: &[_], digests: &mut Vec<(String, Digest)>| {
        attempted += cells;
        failed += sweep_failed(verdicts, &expected);
        digests.push((label.to_string(), sweep_digest(verdicts)));
    };

    // Untraced reference: the adapter with the pool report on, after a
    // checked warm-up (repetition 0) that is not timed.
    let mut walls = Vec::new();
    let mut reports = Vec::new();
    for rep in 0..3 {
        let started = Instant::now();
        let run = sweep_run(&spec, &pool, &RunOpts::reported());
        let wall = started.elapsed().as_nanos() as f64;
        check(&format!("untraced{rep}"), &run.verdicts, &mut digests);
        if rep > 0 {
            walls.push(wall);
            reports.push(run.report.expect("reported run"));
        }
    }
    let started = Instant::now();
    let single = sweep_run(&spec, &ScanPool::single_thread(), &RunOpts::quick());
    let single_wall = started.elapsed().as_nanos() as f64;
    check("single_thread", &single.verdicts, &mut digests);
    drop(single);

    // Traced: the same cells composed from the calls SweepSpec::run makes.
    let started = Instant::now();
    let image = VantageLab::builder()
        .policy(spec.policy.clone())
        .topology(spec.topology.clone())
        .image();
    let image_ms = elapsed_ms(started);
    let started = Instant::now();
    let traced = pool.run(
        &spec.domains,
        &RunOpts::reported(),
        || (),
        |(), index, domain| {
            let t0 = Instant::now();
            let mut lab = image.fork(index);
            let t1 = Instant::now();
            let verdict = test_domain(&mut lab, domain, scenario_port(index));
            let t2 = Instant::now();
            let events = lab.net.events_popped();
            // Device snapshots cost about as much as a whole cell, so only
            // every SNAPSHOT_EVERY-th cell (by index, hence deterministic)
            // reads them.
            let device_packets = (index % SNAPSHOT_EVERY == 0)
                .then(|| packets_seen(lab.device_snapshots().iter().map(|(_, snap)| snap)));
            let t3 = Instant::now();
            drop(lab);
            CellTrace {
                verdict,
                fork_ns: ((t1 - t0) + t3.elapsed()).as_nanos() as u64,
                classify_ns: (t2 - t1).as_nanos() as u64,
                counters_ns: (t3 - t2).as_nanos() as u64,
                events,
                device_packets,
            }
        },
    );
    let traced_wall = started.elapsed().as_nanos() as f64;
    let verdicts: Vec<_> = traced.results.iter().map(|c| c.verdict).collect();
    check("traced", &verdicts, &mut digests);

    let sum = |f: fn(&CellTrace) -> u64| traced.results.iter().map(f).sum::<u64>() as f64;
    let sampled = traced
        .results
        .iter()
        .filter(|c| c.device_packets.is_some())
        .count();
    let n = cells.max(1) as f64;
    let (fork, classify, counters) = (
        sum(|c| c.fork_ns),
        sum(|c| c.classify_ns),
        sum(|c| c.counters_ns),
    );
    let report = traced.report.as_ref().expect("reported run");
    let worker_ns: u64 = report.workers.iter().map(|w| w.alive_ns).sum();
    let worker_ns = worker_ns as f64 + (traced_wall - report.wall_ns as f64).max(0.0);
    let untraced_wall = median(&walls);
    let mid = reports.len() / 2;
    let metrics = Common {
        universe_ms,
        compile_ms,
        image_ms,
        fork_us: (fork / n / 1e3, cells as usize),
        wire: wire_metrics(&spec.domains, &spec.policy),
        events_per_item: (sum(|c| c.events) / n, cells as usize),
        residual: ((worker_ns - fork - classify - counters) / worker_ns, 1),
        overhead: (1.0 - untraced_wall / traced_wall, 1),
    }
    .metrics();
    let mut records = vec![
        us(
            "measure.classify.us_per_cell",
            classify / n / 1e3,
            cells as usize,
        ),
        count(
            "core.device.packets_per_cell",
            mean_sampled_packets(&traced.results),
            sampled,
        ),
    ];
    records.extend(pool_metrics(&reports[mid], single_wall / untraced_wall));
    let problems = digest_problems(&digests);
    RunResult {
        metrics,
        records,
        sizes: input_sizes(Kind::RegistrySweep, sizes),
        attempted,
        failed,
        digests,
        problems,
    }
}

// ---------------------------------------------------------------------------
// Differential.

fn differential(seed: u64, sizes: &Sizes) -> RunResult {
    let started = Instant::now();
    let universe = Universe::generate(seed);
    let universe_ms = elapsed_ms(started);
    let started = Instant::now();
    let policy = policy_from_universe(&universe, false, true);
    let compile_ms = elapsed_ms(started);
    let domains = differential_domains(&universe, seed, sizes.diff_domains);
    let campaign = DifferentialCampaign::three_country(policy.clone(), domains);
    let pool = ScanPool::new(sizes.threads);

    // The three profile images the campaign builds before its pool runs,
    // and forks of them.
    let started = Instant::now();
    let images: Vec<LabImage> = campaign
        .profiles
        .iter()
        .map(|profile| {
            VantageLab::builder()
                .policy(policy.clone())
                .censor_profile(profile.clone())
                .image()
        })
        .collect();
    let image_ms = elapsed_ms(started);
    const FORKS: usize = 300;
    let started = Instant::now();
    for image in &images {
        for index in 0..FORKS {
            std::hint::black_box(image.fork(index));
        }
    }
    let forks = FORKS * images.len();
    let fork_us = started.elapsed().as_nanos() as f64 / 1e3 / forks as f64;
    drop(images);

    let opts = differential_opts();
    let mut no_oracle = campaign.clone();
    no_oracle.check_oracle = false;
    let unobserved = RunOpts {
        observe: false,
        ..opts.clone()
    };
    let singles: Vec<DifferentialCampaign> = campaign
        .profiles
        .iter()
        .map(|p| DifferentialCampaign {
            profiles: vec![p.clone()],
            ..campaign.clone()
        })
        .collect();

    // A checked warm-up, then the variants in rounds, so each difference
    // pairs runs taken close together in time; the rows are medians over
    // the rounds.
    const ROUNDS: usize = 3;
    let cells = campaign.len().max(1) as f64;
    let (matrix, _) = differential_run(&campaign, &pool, &opts);
    let events = matrix
        .snapshot
        .as_ref()
        .expect("an observed campaign merges a snapshot")
        .counter("netsim.events_processed");
    let mut digests = vec![("warm_up".to_string(), matrix_digest(&matrix))];
    let mut problems = Vec::new();
    let (mut attempted, mut failed) = (
        campaign.len() as u64,
        matrix_failed(&matrix, campaign.len()),
    );
    // An untraced set: the same call as the untraced command, back to back.
    let mut untraced_walls = Vec::with_capacity(ROUNDS);
    for round in 0..ROUNDS {
        let started = Instant::now();
        let (matrix, _) = differential_run(&campaign, &pool, &opts);
        untraced_walls.push(started.elapsed().as_nanos() as f64);
        attempted += campaign.len() as u64;
        failed += matrix_failed(&matrix, campaign.len());
        digests.push((format!("untraced{round}"), matrix_digest(&matrix)));
    }
    let (mut full_walls, mut oracle_us, mut merge_us, mut residual) =
        (vec![], vec![], vec![], vec![]);
    let mut profile_us = vec![Vec::new(); singles.len()];
    let mut first_report = None;
    for round in 0..ROUNDS {
        let mut variant = |c: &DifferentialCampaign, opts: &RunOpts| {
            let started = Instant::now();
            let (matrix, report) = differential_run(c, &pool, opts);
            let wall = started.elapsed().as_nanos() as f64;
            attempted += c.len() as u64;
            failed += matrix_failed(&matrix, c.len());
            let report = report.expect("differential runs collect the pool report");
            (wall, campaign_cost_ns(wall, &report), report, matrix)
        };
        let (wall, full_cost, report, matrix) = variant(&campaign, &opts);
        digests.push((format!("full{round}"), matrix_digest(&matrix)));
        full_walls.push(wall);
        first_report.get_or_insert(report);
        let (_, cost, _, m) = variant(&no_oracle, &opts);
        digests.push((format!("oracle_off{round}"), matrix_digest(&m)));
        oracle_us.push((full_cost - cost) / cells / 1e3);
        let (_, cost, _, m) = variant(&campaign, &unobserved);
        digests.push((format!("observe_off{round}"), matrix_digest(&m)));
        merge_us.push((full_cost - cost) / cells / 1e3);
        let mut parts = 0.0;
        for (i, one) in singles.iter().enumerate() {
            let (_, cost, _, part) = variant(one, &opts);
            parts += cost;
            profile_us[i].push(cost / one.len().max(1) as f64 / 1e3);
            // A one-profile matrix must reproduce that profile's cells.
            let same = part.cells.iter().all(|c| {
                let full = matrix.cell(c.profile, &c.domain);
                (full.tls, full.http, full.dns, &full.oracle_violations)
                    == (c.tls, c.http, c.dns, &c.oracle_violations)
            });
            if !same {
                problems.push(format!(
                    "profile {} alone did not reproduce its cells",
                    one.profiles[0].name
                ));
            }
        }
        residual.push((full_cost - parts) / full_cost);
    }
    let started = Instant::now();
    let (matrix, _) = differential_run(&campaign, &ScanPool::single_thread(), &opts);
    let single_wall = started.elapsed().as_nanos() as f64;
    attempted += campaign.len() as u64;
    failed += matrix_failed(&matrix, campaign.len());
    digests.push(("single_thread".to_string(), matrix_digest(&matrix)));

    let metrics = Common {
        universe_ms,
        compile_ms,
        image_ms,
        fork_us: (fork_us, forks),
        wire: wire_metrics(&campaign.domains, &policy),
        events_per_item: (events as f64 / cells, campaign.len()),
        residual: (median(&residual), ROUNDS),
        // The untraced run already collects the pool report the rows
        // read, so no tracing is added: this compares the full campaign
        // runs interleaved with the variants against the untraced set,
        // median against median.
        overhead: (
            1.0 - median(&untraced_walls) / median(&full_walls),
            2 * ROUNDS,
        ),
    }
    .metrics();
    let mut records: Vec<Metric> = singles
        .iter()
        .zip(&profile_us)
        .map(|(one, us_per_cell)| {
            let name = format!("core.profile.us_per_cell.{}", profile_key(&one.profiles[0]));
            us(&name, median(us_per_cell), ROUNDS)
        })
        .collect();
    records.extend([
        us("netsim.oracle.us_per_cell", median(&oracle_us), ROUNDS),
        us("measure.merge.us_per_cell", median(&merge_us), ROUNDS),
    ]);
    let report = first_report.expect("at least one round");
    records.extend(pool_metrics(&report, single_wall / median(&full_walls)));
    problems.extend(digest_problems(&digests));
    RunResult {
        metrics,
        records,
        sizes: input_sizes(Kind::Differential, sizes),
        attempted,
        failed,
        digests,
        problems,
    }
}

/// The metric-name key of a profile: its name, lower-cased, with anything
/// outside `[a-z0-9_]` replaced.
fn profile_key(profile: &CensorProfile) -> String {
    profile
        .name
        .to_ascii_lowercase()
        .chars()
        .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
        .collect()
}

// ---------------------------------------------------------------------------
// Tomography.

fn tomography(seed: u64, sizes: &Sizes) -> RunResult {
    let started = Instant::now();
    let universe = Universe::generate(seed);
    let universe_ms = elapsed_ms(started);
    let started = Instant::now();
    let policy = policy_from_universe(&universe, false, true);
    let compile_ms = elapsed_ms(started);
    let config = tomography_config(&universe, seed, sizes);
    let spec = LocalizeSpec::tomography(policy.clone(), config.clone());
    let pool = ScanPool::new(sizes.threads);

    let mut digests = Vec::new();
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut walls = Vec::new();
    let mut probes = 0;
    // Repetition 0 is a checked warm-up, not timed.
    for rep in 0..3 {
        let started = Instant::now();
        let (run, _) = tomography_run(&spec, &pool, &RunOpts::quick());
        if rep > 0 {
            walls.push(started.elapsed().as_nanos() as f64);
        }
        attempted += config.cells as u64;
        failed += tomography_failed(&run, config.cells);
        digests.push((format!("untraced{rep}"), tomography_digest(&run)));
        probes = tomography_probes(&run);
    }
    // Traced: the same campaign with observation on, which yields the
    // engine's and the devices' own counters.
    let started = Instant::now();
    let (run, snapshot) = tomography_run(
        &spec,
        &pool,
        &RunOpts {
            observe: true,
            ..RunOpts::default()
        },
    );
    let traced_wall = started.elapsed().as_nanos() as f64;
    attempted += config.cells as u64;
    failed += tomography_failed(&run, config.cells);
    digests.push(("traced".to_string(), tomography_digest(&run)));

    // The generated image, timed on its own, and forks of it.
    let started = Instant::now();
    let image = VantageLab::builder()
        .policy(policy.clone())
        .topology(TopologySpec::Generated(config.params.clone()))
        .image();
    let gen_ms = elapsed_ms(started);
    let started = Instant::now();
    for cell in 0..config.cells {
        std::hint::black_box(image.fork(cell));
    }
    let fork_us = started.elapsed().as_nanos() as f64 / 1e3 / config.cells.max(1) as f64;
    let interned_routes = image.fork(0).net.interned_routes();

    // Route flips: the workload's graph with a dense churn schedule armed
    // and drained.
    const FLIPS: usize = 2_000;
    let dense = config.params.clone().churn(FLIPS, Duration::from_millis(1));
    let mut lab = VantageLab::builder()
        .policy(policy.clone())
        .topology(TopologySpec::Generated(dense))
        .build();
    lab.arm_route_churn();
    let started = Instant::now();
    lab.net.run_for(Duration::from_millis(FLIPS as u64 + 10));
    let flip_ns = started.elapsed().as_nanos() as f64 / FLIPS as f64;

    let cells = config.cells.max(1) as f64;
    let untraced_wall = median(&walls);
    let threads = pool.threads() as f64;
    // Thread-time the campaign took versus what the rows cover: the image
    // build (serial), one fork per cell and the cell's route flips (in the
    // workers).
    let flips = config.params.churn_flips as f64;
    let covered = gen_ms * 1e6 + (fork_us * 1e3 + flips * flip_ns) * cells;
    let total = untraced_wall * threads;
    let snapshot = snapshot.expect("an observed run merges a snapshot");
    let probes = probes.max(1) as f64;
    // The campaign probes one trigger domain; the wire timings repeat it.
    let domains = vec![config.domain.as_str(); 20_000];
    let metrics = Common {
        universe_ms,
        compile_ms,
        image_ms: gen_ms,
        fork_us: (fork_us, config.cells),
        wire: wire_metrics(&domains, &policy),
        events_per_item: (
            snapshot.counter("netsim.events_processed") as f64 / probes,
            config.cells,
        ),
        residual: ((total - covered) / total, 1),
        overhead: (1.0 - untraced_wall / traced_wall, 1),
    }
    .metrics();
    let records = vec![
        count(
            "core.device.packets_per_probe",
            packets_seen([&snapshot]) as f64 / probes,
            config.cells,
        ),
        ns("netsim.route_flip_ns", flip_ns, FLIPS),
        count("netsim.interned_routes", interned_routes as f64, 1),
        count(
            "measure.tomography.probes_per_cell",
            probes / cells,
            config.cells,
        ),
    ];
    let problems = digest_problems(&digests);
    RunResult {
        metrics,
        records,
        sizes: input_sizes(Kind::Tomography, sizes),
        attempted,
        failed,
        digests,
        problems,
    }
}
