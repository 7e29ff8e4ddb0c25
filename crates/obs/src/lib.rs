//! `tspu_obs` — deterministic observability for the TSPU reproduction.
//!
//! Three pieces, all designed around the simulator's determinism contract
//! (identical results at every `TSPU_THREADS` setting):
//!
//! * [`Registry`]: typed counters, gauges, and log-linear [`Histogram`]s
//!   under hierarchical dot-path names (`device.<id>.verdicts.rst_rewrite`,
//!   `netsim.pending_peak`). Registration interns the name once; recording
//!   is an indexed integer op — no hashing, no allocation.
//! * [`Tracer`]: virtual-time span recording into a bounded ring buffer,
//!   exported in Chrome trace-event format
//!   ([`Snapshot::write_chrome_trace`]) with *simulated* microseconds as
//!   the clock, so traces are byte-identical across thread counts.
//! * [`Snapshot`]: the ordered, sparse, diffable capture — counters add,
//!   high-water gauges take max, last-value gauges keep the later
//!   operand, histograms merge elementwise, spans sort by
//!   `(virtual ts, scenario, seq)`. `to_json()` is deterministic.
//! * [`TimeSeries`]: fixed-width virtual-time windows of snapshots — the
//!   time-resolved layer. Deterministic and mergeable in window-index
//!   order, exported as JSON, Chrome-trace counter tracks alongside the
//!   span timeline, and the OpenMetrics text format
//!   ([`openmetrics::render`], hand-rolled like `to_json`).
//!
//! The whole hot-path half sits behind the `obs` cargo feature (default
//! on). With `--no-default-features`, [`Registry`] and [`Tracer`] become
//! zero-sized types whose methods are empty inline bodies: instrumented
//! code compiles to the uninstrumented code, which the workspace proves
//! with a counting-allocator test and an enabled-vs-disabled bench.
//! [`Snapshot`] and [`TimeSeries`] are cold-path data and exist in both
//! shapes; with the feature off they are simply empty.

pub mod hist;
pub mod openmetrics;
pub mod registry;
pub mod series;
pub mod snapshot;

pub use hist::{bucket_index, bucket_lower, Histogram, BUCKETS};
pub use registry::{CounterId, GaugeId, HistogramId, Registry, Tracer};
pub use series::TimeSeries;
pub use snapshot::{MetricValue, Snapshot, SpanRecord};

/// Whether this build records anything (the `obs` feature state).
pub const ENABLED: bool = cfg!(feature = "obs");
