//! Metric collectors and printers for every figure and table in the
//! ScalableBulk paper's evaluation (§6).
//!
//! * [`Breakdown`] — the four-way execution-time split of Figures 7–8
//!   (Useful / Cache Miss / Commit / Squash) plus speedups.
//! * [`DirsPerCommit`] — average directories per chunk commit split into
//!   write group and read group (Figures 9–10) and the full distribution
//!   (Figures 11–12).
//! * [`LatencyDist`] — the commit-latency distribution of Figure 13.
//! * [`SerializationGauges`] — the bottleneck ratio (Figures 14–15) and
//!   chunk queue length (Figures 16–17), driven by
//!   [`sb_proto::ProtoEvent`]s.
//! * [`TrafficReport`] — the message-class mix of Figures 18–19,
//!   normalized to TCC.
//! * [`TextTable`] — aligned text/CSV rendering used by the `figures`
//!   binary.
//! * [`PerfReport`] — host-side simulator throughput (events/sec,
//!   sim-cycles/sec) behind the `profile` and `bench_json` binaries and
//!   the criterion benches.
//! * [`MetricsRegistry`] — named counters/gauges/histograms registered
//!   by the simulator (traffic per Table-1 class, phase wall times,
//!   queue depths), merged across runs and dumped as deterministic
//!   JSON alongside [`PerfReport`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod breakdown;
mod dirs;
mod latency;
pub mod perf;
mod registry;
mod serialization;
mod series;
mod table;
mod traffic;

pub use breakdown::Breakdown;
pub use dirs::DirsPerCommit;
pub use latency::LatencyDist;
pub use perf::PerfReport;
pub use registry::{Metric, MetricsRegistry};
pub use serialization::SerializationGauges;
pub use series::TimeSeries;
pub use table::TextTable;
pub use traffic::TrafficReport;
