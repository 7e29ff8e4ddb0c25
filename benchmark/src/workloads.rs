//! The four workloads: their seeded inputs, their set-up, the one adapter
//! per workload through which the benchmark calls the program, and the
//! correctness checks and digests of what each run produced.
//!
//! Every input is a pure function of the seed and the [`Sizes`]. The
//! program is reached only through public entry points that the planned
//! removals keep (`build_lab`/`SoakLab::run`, `SweepSpec::run`,
//! `DifferentialCampaign::run`, `LocalizeSpec::run`); a change to one of
//! them touches only its adapter (`soak_run`, `sweep_run`,
//! `differential_run`, `tomography_run`).

use std::fmt::Write as _;
use std::time::Instant;

use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use tspu_core::PolicyHandle;
use tspu_load::{build_lab, LoadProfile, LoadStats, SoakConfig, SoakLab, SoakReport};
use tspu_measure::domains::DomainVerdict;
use tspu_measure::profiles::{DnsVerdict, HttpVerdict, ProfileMatrix, TlsVerdict};
use tspu_measure::{
    DifferentialCampaign, LocalizeSpec, PoolReport, RunOpts, ScanPool, SweepRun, SweepSpec,
    TomographyConfig, TomographyRun,
};
use tspu_obs::Snapshot;
use tspu_registry::Universe;
use tspu_topology::{policy_from_universe, GenParams};

use crate::report::Digest;

/// The workloads, by the names `--workload` takes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Soak,
    RegistrySweep,
    Differential,
    Tomography,
}

impl Kind {
    pub const ALL: [Kind; 4] = [
        Kind::Soak,
        Kind::RegistrySweep,
        Kind::Differential,
        Kind::Tomography,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Kind::Soak => "soak",
            Kind::RegistrySweep => "registry_sweep",
            Kind::Differential => "differential",
            Kind::Tomography => "tomography",
        }
    }

    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }

    /// The workload's own name for `items_per_s`: what one item is here
    /// (a device packet, a sweep scenario, a matrix cell, a probe).
    pub fn throughput_name(self) -> &'static str {
        match self {
            Kind::Soak => "packets_per_s",
            Kind::RegistrySweep | Kind::Differential => "cells_per_s",
            Kind::Tomography => "probes_per_s",
        }
    }
}

/// Input sizes. [`Sizes::full`] is what the command runs; the self-tests
/// run [`Sizes::tiny`].
#[derive(Debug, Clone)]
pub struct Sizes {
    pub soak_flows: usize,
    pub soak_clients: usize,
    pub soak_universe: usize,
    pub sweep_domains: usize,
    pub diff_domains: usize,
    pub tomo_ases: usize,
    pub tomo_flips: usize,
    pub tomo_cells: usize,
    /// Scenario pool width for the campaign workloads.
    pub threads: usize,
}

impl Sizes {
    pub fn full() -> Sizes {
        Sizes {
            soak_flows: 100_000,
            soak_clients: 64,
            soak_universe: 100_000,
            sweep_domains: 100_000,
            diff_domains: 6_000,
            tomo_ases: 5_000,
            tomo_flips: 8,
            tomo_cells: 1_500,
            threads: nproc(),
        }
    }

    #[cfg(test)]
    pub fn tiny() -> Sizes {
        Sizes {
            soak_flows: 1_500,
            soak_clients: 8,
            soak_universe: 5_000,
            sweep_domains: 300,
            diff_domains: 24,
            tomo_ases: 200,
            tomo_flips: 4,
            tomo_cells: 4,
            threads: 2,
        }
    }
}

/// Probing clients per generated graph in the tomography workload.
pub const TOMO_CLIENTS: usize = 4;

/// Hardware threads available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

// ---------------------------------------------------------------------------
// Seeded inputs: pure functions of (seed, sizes).

/// The soak's configuration: the default population shape at the
/// benchmark's scale. The span (240 s) stays under the 480 s established
/// timeout, so the device holds every flow at once.
pub fn soak_config(seed: u64, sizes: &Sizes) -> SoakConfig {
    SoakConfig {
        profile: LoadProfile {
            seed,
            flows: sizes.soak_flows,
            clients: sizes.soak_clients,
            universe_domains: sizes.soak_universe,
            ..LoadProfile::default()
        },
        flow_capacity: sizes.soak_flows.next_power_of_two(),
        ..SoakConfig::default()
    }
}

/// One scenario per distinct domain: the registry sample, then the Tranco
/// head, then unique filler names up to `n`.
pub fn sweep_domains(universe: &Universe, seed: u64, n: usize) -> Vec<String> {
    let mut seen = std::collections::HashSet::new();
    universe
        .registry_sample
        .iter()
        .chain(universe.tranco.iter())
        .map(|d| d.name.clone())
        .chain((0..n).map(|i| format!("filler-{seed:x}-{i}.example.ru")))
        .filter(|d| seen.insert(d.clone()))
        .take(n)
        .collect()
}

/// Half SNI-RST-listed and half unlisted domains, shuffled by the seed, so
/// every profile (each keys on the RST list) shows both block and pass
/// verdicts.
pub fn differential_domains(universe: &Universe, seed: u64, n: usize) -> Vec<String> {
    let mut listed: Vec<&str> = universe.blocks.sni_rst.iter().map(String::as_str).collect();
    let mut unlisted: Vec<&str> = universe
        .all_domains()
        .map(|d| d.name.as_str())
        .filter(|d| !universe.blocks.sni_rst.contains(*d))
        .collect();
    listed.sort_unstable();
    unlisted.sort_unstable();
    unlisted.dedup();
    let mut rng = SmallRng::seed_from_u64(seed);
    listed.shuffle(&mut rng);
    unlisted.shuffle(&mut rng);
    let half = n / 2;
    let mut domains: Vec<String> = listed
        .iter()
        .take(half)
        .chain(unlisted.iter().take(n - half))
        .map(|d| d.to_string())
        .collect();
    domains.shuffle(&mut rng);
    domains
}

/// The tomography campaign: a generated graph with its churn schedule,
/// probing an SNI-RST-listed domain drawn by the seed.
pub fn tomography_config(universe: &Universe, seed: u64, sizes: &Sizes) -> TomographyConfig {
    let mut listed: Vec<&String> = universe.blocks.sni_rst.iter().collect();
    listed.sort_unstable();
    let domain = listed[(seed % listed.len() as u64) as usize];
    let params = GenParams::new(seed, sizes.tomo_ases).clients(TOMO_CLIENTS);
    let params = GenParams {
        churn_flips: sizes.tomo_flips,
        ..params
    };
    TomographyConfig::new(params)
        .cells(sizes.tomo_cells)
        .domain(domain)
}

// ---------------------------------------------------------------------------
// Adapters: the benchmark's only calls into the program's campaign drivers.

pub fn soak_run(lab: &SoakLab) -> SoakReport {
    lab.run()
}

pub fn sweep_run(spec: &SweepSpec, pool: &ScanPool, opts: &RunOpts) -> SweepRun {
    spec.run(pool, opts)
}

pub fn differential_run(
    campaign: &DifferentialCampaign,
    pool: &ScanPool,
    opts: &RunOpts,
) -> (ProfileMatrix, Option<PoolReport>) {
    campaign.run(pool, opts)
}

pub fn tomography_run(
    spec: &LocalizeSpec,
    pool: &ScanPool,
    opts: &RunOpts,
) -> (TomographyRun, Option<Snapshot>) {
    let run = spec.run(pool, opts);
    (
        run.tomography
            .expect("a tomography spec yields a tomography run"),
        run.snapshot,
    )
}

// ---------------------------------------------------------------------------
// Checks and digests.

/// What one untraced repetition produced.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Work items done (see [`Kind::item`]).
    pub items: u64,
    /// Wall seconds of the adapter call.
    pub wall_s: f64,
    /// Units checked and how many failed their check.
    pub attempted: u64,
    pub failed: u64,
    /// Digest of the deterministic output.
    pub digest: Digest,
}

/// The soak's deterministic output, rendered from the report fields the
/// traced soak reproduces (the shard layout is left out: it is slated for
/// removal and the traced soak does not read it).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SoakFacts {
    pub flows_started: u64,
    pub flows_completed: u64,
    pub got_data: u64,
    pub resets: u64,
    pub oracle_mismatches: u64,
    pub client_tx: u64,
    pub client_rx: u64,
    pub server_tx: u64,
    pub server_rx: u64,
    pub events: u64,
    pub peak_tracked_flows: usize,
    pub gc_probes: u64,
    pub device_packets: u64,
}

impl SoakFacts {
    pub fn from_report(report: &SoakReport) -> SoakFacts {
        SoakFacts::from_stats(
            &report.stats,
            report.events,
            report.peak_tracked_flows,
            report.gc_probes,
        )
    }

    /// The facts from raw counters, the way `SoakLab::run` reports them.
    pub fn from_stats(
        s: &LoadStats,
        events: u64,
        peak_tracked_flows: usize,
        gc_probes: u64,
    ) -> SoakFacts {
        SoakFacts {
            flows_started: s.flows_started,
            flows_completed: s.flows_completed,
            got_data: s.got_data,
            resets: s.resets,
            oracle_mismatches: s.oracle_mismatches,
            client_tx: s.client_tx_packets,
            client_rx: s.client_rx_packets,
            server_tx: s.server_tx_packets,
            server_rx: s.server_rx_packets,
            events,
            peak_tracked_flows,
            gc_probes,
            device_packets: s.client_tx_packets + s.server_tx_packets,
        }
    }

    pub fn digest(&self) -> Digest {
        Digest::of(&format!("{self:?}"))
    }

    /// Flows that did not complete or whose outcome contradicted the
    /// policy oracle, plus every flow when GC broke its per-packet budget.
    pub fn failed(&self, total_flows: u64) -> u64 {
        let gc_budget = tspu_core::conntrack::GC_PROBE_BUDGET as u64 * self.device_packets.max(1);
        if self.gc_probes > gc_budget {
            return total_flows;
        }
        let incomplete = total_flows.saturating_sub(self.flows_completed);
        (incomplete + self.oracle_mismatches).min(total_flows)
    }
}

/// The verdict the §6 classification must return for `domain` under the
/// sweep policy (throttling off): SNI-I for RST-listed domains, upgraded
/// to SNI-IV when the backup list also holds them; SNI-II for slow-listed
/// domains; otherwise open.
pub fn expected_verdict(policy: &PolicyHandle, domain: &str) -> DomainVerdict {
    let p = policy.read();
    let throttled = p.throttle_active && p.sni_throttle.matches(domain);
    if throttled {
        DomainVerdict::Throttled
    } else if p.sni_rst.matches(domain) {
        if p.sni_backup.matches(domain) {
            DomainVerdict::Sni4
        } else {
            DomainVerdict::Sni1
        }
    } else if p.sni_slow.matches(domain) {
        DomainVerdict::Sni2
    } else {
        DomainVerdict::Open
    }
}

pub fn sweep_digest(verdicts: &[DomainVerdict]) -> Digest {
    Digest::of(&format!("{verdicts:?}"))
}

pub fn sweep_failed(verdicts: &[DomainVerdict], expected: &[DomainVerdict]) -> u64 {
    let wrong = verdicts
        .iter()
        .zip(expected)
        .filter(|(v, e)| v != e)
        .count();
    (wrong + expected.len().abs_diff(verdicts.len())) as u64
}

pub fn matrix_digest(matrix: &ProfileMatrix) -> Digest {
    let mut text = String::new();
    for c in &matrix.cells {
        let _ = writeln!(
            text,
            "{}|{}|{:?}|{:?}|{:?}|{:?}",
            c.profile, c.domain, c.tls, c.http, c.dns, c.oracle_violations
        );
    }
    Digest::of(&text)
}

/// Cells with oracle violations, plus every cell of a profile that shows
/// only block or only pass verdicts (the input was drawn to give both).
pub fn matrix_failed(matrix: &ProfileMatrix, expected_cells: usize) -> u64 {
    let mut failed = matrix
        .cells
        .iter()
        .filter(|c| !c.oracle_violations.is_empty())
        .count();
    for profile in &matrix.profiles {
        let cells: Vec<_> = matrix
            .cells
            .iter()
            .filter(|c| c.profile == *profile)
            .collect();
        let blocked = cells
            .iter()
            .filter(|c| {
                c.tls != TlsVerdict::Pass
                    || c.http != HttpVerdict::Ok
                    || c.dns != DnsVerdict::Answered
            })
            .count();
        if blocked == 0 || blocked == cells.len() {
            failed += cells.len();
        }
    }
    (failed + expected_cells.abs_diff(matrix.cells.len())) as u64
}

pub fn tomography_digest(run: &TomographyRun) -> Digest {
    let mut text = String::new();
    for c in &run.cells {
        let probes: Vec<(usize, usize, bool)> = c
            .probes
            .iter()
            .map(|p| (p.epoch, p.client, p.blocked))
            .collect();
        let _ = writeln!(
            text,
            "{}|{:?}|{:?}|{}|{:?}|{:?}|{:?}",
            c.cell, c.active_as, c.suspects, c.named, probes, c.ttl_hop, c.ttl_truth
        );
    }
    Digest::of(&text)
}

pub fn tomography_probes(run: &TomographyRun) -> u64 {
    run.cells.iter().map(|c| c.probes.len() as u64).sum()
}

pub fn tomography_failed(run: &TomographyRun, expected_cells: usize) -> u64 {
    let unnamed = run.cells.iter().filter(|c| !c.named).count();
    (unnamed + expected_cells.abs_diff(run.cells.len())) as u64
}

// ---------------------------------------------------------------------------
// Set-up and the untraced repetition.

/// A workload with its inputs built and its set-up done.
pub enum Prepared {
    Soak {
        lab: SoakLab,
        total_flows: u64,
    },
    RegistrySweep {
        spec: SweepSpec,
        expected: Vec<DomainVerdict>,
        pool: ScanPool,
    },
    Differential {
        campaign: DifferentialCampaign,
        pool: ScanPool,
    },
    Tomography {
        spec: LocalizeSpec,
        config: TomographyConfig,
        pool: ScanPool,
    },
}

/// Differential runs audit with the oracle (the campaign default), merge
/// snapshots and collect the pool report.
pub fn differential_opts() -> RunOpts {
    RunOpts {
        observe: true,
        report: true,
        ..RunOpts::default()
    }
}

/// Runs `f`, adding its wall seconds to `total`.
fn timed<R>(total: &mut f64, f: impl FnOnce() -> R) -> R {
    let started = Instant::now();
    let out = f();
    *total += started.elapsed().as_secs_f64();
    out
}

/// Builds `kind`'s inputs from `seed` and does its set-up. Returns the
/// prepared workload and the wall seconds spent in the program's set-up
/// calls (universe, policy, lab image, schedules); drawing the benchmark's
/// own inputs and expected verdicts is not counted.
pub fn prepare(kind: Kind, seed: u64, sizes: &Sizes) -> (Prepared, f64) {
    let pool = ScanPool::new(sizes.threads);
    let mut setup = 0.0;
    let prepared = match kind {
        Kind::Soak => {
            let config = soak_config(seed, sizes);
            let lab = timed(&mut setup, || build_lab(config));
            let total_flows = lab.total_flows() as u64;
            Prepared::Soak { lab, total_flows }
        }
        Kind::RegistrySweep => {
            let universe = timed(&mut setup, || Universe::generate(seed));
            let domains = sweep_domains(&universe, seed, sizes.sweep_domains);
            let spec = timed(&mut setup, || SweepSpec::from_universe(&universe, domains));
            let expected = spec
                .domains
                .iter()
                .map(|d| expected_verdict(&spec.policy, d))
                .collect();
            Prepared::RegistrySweep {
                spec,
                expected,
                pool,
            }
        }
        Kind::Differential => {
            let universe = timed(&mut setup, || Universe::generate(seed));
            let policy = timed(&mut setup, || policy_from_universe(&universe, false, true));
            let domains = differential_domains(&universe, seed, sizes.diff_domains);
            let campaign = DifferentialCampaign::three_country(policy, domains);
            Prepared::Differential { campaign, pool }
        }
        Kind::Tomography => {
            let universe = timed(&mut setup, || Universe::generate(seed));
            let policy = timed(&mut setup, || policy_from_universe(&universe, false, true));
            let config = tomography_config(&universe, seed, sizes);
            let spec = LocalizeSpec::tomography(policy, config.clone());
            Prepared::Tomography { spec, config, pool }
        }
    };
    (prepared, setup)
}

impl Prepared {
    /// One untraced repetition through the workload's adapter.
    pub fn run(&self) -> Outcome {
        let started = Instant::now();
        match self {
            Prepared::Soak { lab, total_flows } => {
                let report = soak_run(lab);
                let wall_s = started.elapsed().as_secs_f64();
                let facts = SoakFacts::from_report(&report);
                Outcome {
                    items: facts.device_packets,
                    wall_s,
                    attempted: *total_flows,
                    failed: facts.failed(*total_flows),
                    digest: facts.digest(),
                }
            }
            Prepared::RegistrySweep {
                spec,
                expected,
                pool,
            } => {
                let run = sweep_run(spec, pool, &RunOpts::quick());
                let wall_s = started.elapsed().as_secs_f64();
                Outcome {
                    items: run.verdicts.len() as u64,
                    wall_s,
                    attempted: expected.len() as u64,
                    failed: sweep_failed(&run.verdicts, expected),
                    digest: sweep_digest(&run.verdicts),
                }
            }
            Prepared::Differential { campaign, pool } => {
                let (matrix, _) = differential_run(campaign, pool, &differential_opts());
                let wall_s = started.elapsed().as_secs_f64();
                Outcome {
                    items: matrix.cells.len() as u64,
                    wall_s,
                    attempted: campaign.len() as u64,
                    failed: matrix_failed(&matrix, campaign.len()),
                    digest: matrix_digest(&matrix),
                }
            }
            Prepared::Tomography { spec, config, pool } => {
                let (run, _) = tomography_run(spec, pool, &RunOpts::quick());
                let wall_s = started.elapsed().as_secs_f64();
                Outcome {
                    items: tomography_probes(&run),
                    wall_s,
                    attempted: config.cells as u64,
                    failed: tomography_failed(&run, config.cells),
                    digest: tomography_digest(&run),
                }
            }
        }
    }
}

/// The workload's input sizes, carried by every record.
pub fn input_sizes(kind: Kind, sizes: &Sizes) -> Vec<(&'static str, u64)> {
    let threads = sizes.threads as u64;
    match kind {
        Kind::Soak => vec![
            ("flows", sizes.soak_flows as u64),
            ("clients", sizes.soak_clients as u64),
            ("universe_domains", sizes.soak_universe as u64),
            (
                "response_bytes",
                LoadProfile::default().response_bytes as u64,
            ),
            ("flow_capacity", sizes.soak_flows.next_power_of_two() as u64),
            ("threads", 1),
        ],
        Kind::RegistrySweep => vec![
            ("domains", sizes.sweep_domains as u64),
            ("cells", sizes.sweep_domains as u64),
            ("threads", threads),
        ],
        Kind::Differential => vec![
            ("domains", sizes.diff_domains as u64),
            ("profiles", 3),
            ("cells", 3 * sizes.diff_domains as u64),
            ("threads", threads),
        ],
        Kind::Tomography => vec![
            ("ases", sizes.tomo_ases as u64),
            ("clients", TOMO_CLIENTS as u64),
            ("churn_flips", sizes.tomo_flips as u64),
            ("cells", sizes.tomo_cells as u64),
            ("threads", threads),
        ],
    }
}
